"""The load generator: one asyncio process, at most ``nproc`` connections.

Each workload drives a running ``repro.service`` over HTTP with
``repro.service.ServiceClient`` and fills a :class:`Tally`.  Every
request is timed from its *due* time: the scheduled arrival for an
open-loop submission, the moment the client decided to send it for
everything else, so waiting for a busy connection is part of the
latency.  Generator lateness is how late the process woke for a
scheduled event: an open-loop arrival, or the end of a poll pause in
the closed loops.  Correctness checks that need the server (result
artifacts) run after each timed region closes and never add to a
latency.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import time
from dataclasses import dataclass, field

from repro.service import ServiceApiError, ServiceClient, mint_token

__all__ = ["Generator", "Tally", "WORKLOADS"]

#: Interval of every status / queue poll.
POLL_S = 0.05
#: ``work`` (simulated cpu-seconds) of submitted grid jobs.
WORKS = (5.0, 10.0, 20.0, 40.0)
#: At 40 jobs/s the edge's loop thread sat near a latency cliff on a
#: 2-core host, and run medians of equal load moved by 30-120 %.  At
#: 20 jobs/s the done-latency medians move by under 10 %.
OPEN_RATE = 20.0
OPEN_TENANTS = 2
CLUSTER_JOBS = 100
EXPERIMENT_CLIENTS = 2
#: Experiments per second of the requested run time: a fixed count (100
#: for 25 s, so done_tail_s averages >= 10 samples), which the host's
#: speed cannot change.  Serving about 4 a second, a run lasts 25-30 s.
EXPERIMENTS_PER_S = 4.0
CAMPAIGN_MATRIX = (("scoped", 1), ("naive", 1), ("scoped", 2), ("naive", 2))
#: Seconds of the requested run time per campaign rotation (2 for 25 s).
#: On a 2-core host two rotations take 17-23 s.
ROTATION_S = 10.0
#: A run not terminal this long after it was due counts as failed.
RUN_TIMEOUT_S = 120.0

_REQUEST_ERRORS = (ServiceApiError, OSError, asyncio.IncompleteReadError, ValueError)


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of *values*, and of at least two of them.

    Two, because a campaigns run has eight samples: the slowest alone is
    one campaign, whose time moved by 11 % between runs.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(2, math.ceil(len(ordered) / 10)):])


@dataclass
class Tally:
    """Everything one workload run measured, plus its failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    request_ms: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    #: units of work completed over window_s seconds, or one rate per cycle
    completed: float = 0.0
    window_s: float = 0.0
    cycle_rates: list[float] = field(default_factory=list)
    #: done latencies of each cycle, when the workload runs in cycles
    cycle_done_s: list[list[float]] = field(default_factory=list)
    connections: int = 0
    #: what the server produced, kept for the checks that follow
    outputs: list[dict] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def throughput(self) -> float:
        if self.cycle_rates:
            return statistics.median(self.cycle_rates)
        return self.completed / self.window_s

    def done_mean(self) -> float:
        return self._done_stat(statistics.fmean)

    def done_tail(self) -> float:
        return self._done_stat(tail_mean)

    def _done_stat(self, stat) -> float:
        """*stat* of the done latencies: the median over cycles if there are any."""
        if self.cycle_done_s:
            return statistics.median(stat(done) for done in self.cycle_done_s)
        return stat(self.done_s)


class Conn:
    """One keep-alive connection, shared by turns (its lock)."""

    def __init__(self, host: str, port: int):
        self.client = ServiceClient(host, port)
        self.lock = asyncio.Lock()

    async def call(self, tally: Tally | None, token: str, due: float, method: str, *args):
        """``client.<method>(*args)`` with *token*; latency from *due* into *tally*."""
        async with self.lock:
            self.client.token = token
            result = await getattr(self.client, method)(*args)
        if tally is not None:
            tally.request_ms.append((_now() - due) * 1000.0)
        return result


def _now() -> float:
    return asyncio.get_running_loop().time()


async def _sleep_until(when: float) -> None:
    delay = when - _now()
    if delay > 0:
        await asyncio.sleep(delay)


class Generator:
    """Connections and tokens for one server; never more than *nproc* open."""

    def __init__(self, host: str, port: int, secret: str, nproc: int):
        self.host = host
        self.port = port
        self.secret = secret
        self.nproc = nproc
        self.conns: list[Conn] = []

    def connect(self, wanted: int) -> list[Conn]:
        count = min(wanted, self.nproc)
        if len(self.conns) + count > self.nproc:
            raise RuntimeError(
                f"generator would hold {len(self.conns) + count} connections, nproc={self.nproc}"
            )
        fresh = [Conn(self.host, self.port) for _ in range(count)]
        self.conns.extend(fresh)
        return fresh

    def token(self, user: str) -> str:
        return mint_token(self.secret, user, int(time.time()) + 3600)

    async def close(self) -> None:
        for conn in self.conns:
            await conn.client.close()


async def _await_run(conn: Conn, tally: Tally, token: str, run_id: int, due: float) -> dict:
    """Poll one run until terminal; raises TimeoutError past RUN_TIMEOUT_S."""
    while True:
        status = await conn.call(tally, token, _now(), "run_status", run_id)
        if status["state"] in ("done", "failed"):
            return status
        if _now() - due > RUN_TIMEOUT_S:
            raise TimeoutError(f"run {run_id} still {status['state']} after {RUN_TIMEOUT_S}s")
        await _poll_pause(tally)


async def _poll_pause(tally: Tally) -> None:
    """Sleep one poll interval; how late the wake-up came is generator lateness."""
    wake = _now() + POLL_S
    await asyncio.sleep(POLL_S)
    tally.late_ms.append((_now() - wake) * 1000.0)


async def _check_job_results(conn: Conn, token: str, run_ids: list[int], tally: Tally) -> None:
    """Every job run's result artifact says it matched its expected result."""
    for run_id in run_ids:
        try:
            record = json.loads(await conn.call(None, token, 0.0, "artifact", run_id, "result"))
        except _REQUEST_ERRORS as exc:
            tally.fail(f"job run {run_id}: result unreadable: {exc}")
            continue
        if record.get("matches_expected") is not True:
            tally.fail(f"job run {run_id}: result does not match expected: {record}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

async def jobs_open(gen: Generator, rng, seconds: float, tally: Tally) -> None:
    """Open loop: Poisson arrivals of single jobs from two tenants.

    The arrival count is fixed first, then placed uniformly over
    ``count / OPEN_RATE`` seconds -- a Poisson process conditioned on its
    count, so every run offers the same load.  Throughput here is that
    offered rate for as long as the server keeps up, so on this workload
    it only checks that it does; the done latencies are what it measures.
    """
    count = round(OPEN_RATE * seconds)
    span = count / OPEN_RATE
    plans: list[list[tuple[float, float]]] = [[] for _ in range(OPEN_TENANTS)]
    for at in sorted(rng.uniform(0.0, span) for _ in range(count)):
        plans[rng.randrange(OPEN_TENANTS)].append((at, rng.choice(WORKS)))
    conns = gen.connect(OPEN_TENANTS)
    t0 = _now() + 0.2
    finished: list[tuple[Conn, str, int]] = []
    last_done = [t0]

    async def tenant(index: int) -> None:
        conn = conns[index % len(conns)]
        token = gen.token(f"tenant{index}")
        outstanding: dict[int, float] = {}
        submitting = True

        async def submit(due: float, work: float) -> None:
            tally.attempted += 1
            try:
                run = await conn.call(tally, token, due, "submit_job", {"work": work})
            except _REQUEST_ERRORS as exc:
                tally.fail(f"submit: {exc}")
                return
            tally.submit_ms.append((_now() - due) * 1000.0)
            outstanding[run["run_id"]] = due

        async def submitter() -> None:
            # One task per arrival: a slow response never delays the next
            # send, so lateness measures the generator alone.
            nonlocal submitting
            sends = []
            for at, work in plans[index]:
                due = t0 + at
                await _sleep_until(due)
                tally.late_ms.append((_now() - due) * 1000.0)
                sends.append(asyncio.create_task(submit(due, work)))
            await asyncio.gather(*sends)
            submitting = False

        async def poller() -> None:
            # Oldest first, stopping at the first run still pending: runs
            # finish in submission order, so this sees each completion at
            # the first tick after it, and the poll rate stays fixed
            # instead of growing with the backlog (which would feed back
            # into the latency it measures).
            tick = t0
            while submitting or outstanding:
                await _sleep_until(tick)
                for run_id, due in list(outstanding.items()):
                    try:
                        status = await conn.call(tally, token, _now(), "run_status", run_id)
                    except _REQUEST_ERRORS as exc:
                        tally.fail(f"poll run {run_id}: {exc}")
                        del outstanding[run_id]
                        continue
                    if status["state"] == "done":
                        tally.done_s.append(_now() - due)
                        last_done[0] = max(last_done[0], _now())
                        finished.append((conn, token, run_id))
                        del outstanding[run_id]
                    elif status["state"] == "failed":
                        tally.fail(f"job run {run_id} failed: {status['detail']}")
                        del outstanding[run_id]
                    elif _now() - due > RUN_TIMEOUT_S:
                        tally.fail(f"job run {run_id} timed out in {status['state']}")
                        del outstanding[run_id]
                    else:
                        break
                # Fixed schedule; ticks missed while polling are skipped.
                tick += POLL_S * max(1, int((_now() - tick) / POLL_S) + 1)

        await asyncio.gather(submitter(), poller())

    await asyncio.gather(*(tenant(i) for i in range(OPEN_TENANTS)))
    tally.completed = len(finished)
    tally.window_s = last_done[0] - t0
    for conn, token, run_id in finished:
        await _check_job_results(conn, token, [run_id], tally)


async def jobs_cluster(gen: Generator, rng, seconds: float, tally: Tally) -> None:
    """Closed loop: job clusters back to back, each drained before the next.

    ``throughput()`` and the done latencies are medians over clusters, so
    a few clusters slowed by a passing load on the host barely move them.
    A cluster is 100 jobs, not 300: at 300 the drain is bistable (a batch
    past about 50 jobs costs superlinearly more, so the next batch is
    larger still), and single clusters ran anywhere from 41 to 108 jobs/s.
    Twenty-odd 100-job clusters per run give a steady median.
    """
    (conn,) = gen.connect(1)
    token = gen.token("cluster")
    measured = 0.0
    while measured < seconds:
        start = _now()
        submitted: list[tuple[int, float]] = []
        for _ in range(CLUSTER_JOBS):
            due = _now()
            tally.attempted += 1
            try:
                run = await conn.call(
                    tally, token, due, "submit_job", {"work": rng.choice(WORKS)}
                )
            except _REQUEST_ERRORS as exc:
                tally.fail(f"submit: {exc}")
                continue
            tally.submit_ms.append((_now() - due) * 1000.0)
            submitted.append((run["run_id"], due))
        while (await conn.call(tally, token, _now(), "queue"))["active"]:
            if _now() - start > RUN_TIMEOUT_S:
                tally.fail("cluster did not drain")
                break
            await _poll_pause(tally)
        end = _now()
        measured += end - start
        tally.cycle_rates.append(len(submitted) / (end - start))
        tally.completed += len(submitted)
        if submitted:
            tally.cycle_done_s.append([end - due for _, due in submitted])
            tally.done_s.extend(tally.cycle_done_s[-1])
        await _check_job_results(conn, token, [run_id for run_id, _ in submitted], tally)
    tally.window_s = measured


async def experiments(gen: Generator, rng, seconds: float, tally: Tally) -> None:
    """Closed loop in rounds: each round, both tenants submit their next experiment.

    The tenants walk the sorted list half a cycle apart and wait for each
    other at the end of every round, so the queue holds two runs and which
    experiment waits behind which is set by the list.  Left to drift, the
    tenants' phases set that pairing instead: a heavy experiment queued
    behind another heavy one is about a tenth of all runs, so a p90 of
    the done latency sat on that step and moved by 28 % between runs of
    equal load.
    """
    from repro.harness.__main__ import EXPERIMENTS

    names = sorted(EXPERIMENTS)
    conns = gen.connect(EXPERIMENT_CLIENTS)
    tokens = [gen.token(f"lab{index}") for index in range(EXPERIMENT_CLIENTS)]
    crngs = [type(rng)(rng.randrange(1 << 30)) for _ in range(EXPERIMENT_CLIENTS)]
    t0 = _now()
    last_done = t0

    async def one(index: int, position: int) -> None:
        nonlocal last_done
        conn, token = conns[index % len(conns)], tokens[index]
        spec = {"experiment": names[position % len(names)],
                "seed": crngs[index].randrange(1 << 16)}
        due = _now()
        tally.attempted += 1
        try:
            run = await conn.call(tally, token, due, "submit_experiment", spec)
            tally.submit_ms.append((_now() - due) * 1000.0)
            status = await _await_run(conn, tally, token, run["run_id"], due)
            if status["state"] != "done":
                tally.fail(f"experiment {spec}: {status['state']} {status['detail']}")
                return
            result = await conn.call(tally, token, _now(), "artifact", run["run_id"], "result")
            trace = await conn.call(tally, token, _now(), "artifact", run["run_id"], "trace")
        except (*_REQUEST_ERRORS, TimeoutError) as exc:
            tally.fail(f"experiment {spec}: {exc}")
            return
        tally.done_s.append(_now() - due)
        last_done = max(last_done, _now())
        tally.completed += 1
        tally.outputs.append({"spec": spec, "result": result, "trace_bytes": len(trace)})

    for round_no in range(math.ceil(EXPERIMENTS_PER_S * seconds / EXPERIMENT_CLIENTS)):
        await asyncio.gather(*(
            one(index, round_no + index * len(names) // EXPERIMENT_CLIENTS)
            for index in range(EXPERIMENT_CLIENTS)
        ))
    tally.window_s = last_done - t0


async def campaigns(gen: Generator, rng, seconds: float, tally: Tally) -> None:
    """Closed loop: whole rotations of {scoped, naive} x max_order {1, 2}.

    Rotation ``r`` runs every campaign at seed ``r``, in an order drawn
    from *rng*: a campaign's cost swings by tens of percent with its seed
    (violations found decide the shrinking work), which would swamp the
    measurement.  For the same reason the rotation count is fixed by
    *seconds*, at least one: when it was as many as fit in the time, a
    fast host ran the cheap third rotation and a slow one did not, and
    throughput moved by 24 % between runs.
    """
    (conn,) = gen.connect(1)
    token = gen.token("auditor")
    t0 = _now()
    for rotation in range(max(1, int(seconds // ROTATION_S))):
        for mode, order in rng.sample(CAMPAIGN_MATRIX, len(CAMPAIGN_MATRIX)):
            spec = {
                "mode": mode, "max_order": order, "seed": rotation,
                "n_jobs": 4, "n_machines": 3,
            }
            due = _now()
            tally.attempted += 1
            try:
                run = await conn.call(tally, token, due, "submit_campaign", spec)
                tally.submit_ms.append((_now() - due) * 1000.0)
                status = await _await_run(conn, tally, token, run["run_id"], due)
                if status["state"] != "done":
                    tally.fail(f"campaign {spec}: {status['state']} {status['detail']}")
                    continue
                report = await conn.call(tally, token, _now(), "artifact", run["run_id"], "report")
            except (*_REQUEST_ERRORS, TimeoutError) as exc:
                tally.fail(f"campaign {spec}: {exc}")
                continue
            tally.done_s.append(_now() - due)
            report = json.loads(report)
            tally.completed += report["totals"]["cells"]
            tally.outputs.append({"spec": spec, "report": report})
    tally.window_s = _now() - t0


WORKLOADS = {
    "jobs_open": jobs_open,
    "jobs_cluster": jobs_cluster,
    "experiments": experiments,
    "campaigns": campaigns,
}
