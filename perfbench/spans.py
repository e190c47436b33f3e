"""Spans around each layer's public entry points, and what they add up to.

The traced server (``launcher.py``) calls :func:`install` before it
starts ``repro.service``; every wrapped call then records one span
``[id, parent, name, lane, start, end, attrs]`` in memory, and the list
is written once, when the server exits.  Nothing under ``src/`` knows
about any of this: the wrappers replace attributes on the repo's own
classes and modules from the outside.

Layers are the first component of a span's name:

========== =====================================================
api        ``ServiceApi.handle`` (auth and spec checks run inside)
store      the public ``RunStore`` methods
executor   the drain cycle: ``collect``, ``execute``, ``record``
condor     ``execute_batch`` (schedd, matchmaker, startd, sim...)
obs        ``execute_experiment``: the ObservationSession export
harness    ``run_experiment_record``, the bare experiment
campaign   ``run_campaign``, ``run_cell_record``, ``minimize_cell``
========== =====================================================

``contextvars`` carries the parent across ``asyncio.to_thread``, so the
``executor.execute`` span running on the drain thread is the child of
the ``executor.cycle`` span opened by the collect that claimed its runs.
The cycle span is *logical*: it links a cycle's work and run ids, but it
spans awaits, so it owns no time of its own.

Work counters (ad builds, ClassAd parses, match cycles, sim events) are
counted only while ``execute_batch`` runs and are stored on its span.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
from time import perf_counter

__all__ = [
    "COUNTER_NAMES", "Recorder", "attribute", "install", "install_counters", "layer_metrics",
    "percentile",
]

#: Work counters kept per ``condor.batch`` span.
COUNTER_NAMES = ("ad_builds", "parses", "match_cycles", "events")

LAYERS = ("api", "store", "executor", "condor", "obs", "harness", "campaign")
LOGICAL = "executor.cycle"

_STORE_METHODS = (
    "submit_run", "record_state", "run_status", "pending_runs",
    "active_count", "queue_stats", "get_artifact",
)


class Recorder:
    """In-memory span sink; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.counters: dict[str, int] | None = None
        self._ids = iter(range(1, 1 << 62))
        self._loop_thread = threading.get_ident()
        self._cycle: tuple | None = None

    def _lane(self) -> str:
        return "loop" if threading.get_ident() == self._loop_thread else "drain"

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        sid = next(self._ids)
        parent = self.current.get()
        token = self.current.set(sid)
        attrs = {} if attrs is None else attrs
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, result)
            return result
        finally:
            t1 = perf_counter()
            self.current.reset(token)
            self.spans.append([sid, parent, name, self._lane(), t0, t1, attrs])

    def wrap(self, owner, attr: str, name: str, on_result=None, attrs_of=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            return self.call(name, fn, args, kwargs, attrs, on_result)

        setattr(owner, attr, wrapper)

    # -- the drain cycle --------------------------------------------------
    def wrap_executor(self, executor_cls) -> None:
        collect, execute, record = (
            executor_cls.collect_items, executor_cls.execute_items, executor_cls.record_results
        )
        rec = self

        def collect_items(self_):
            cycle = next(rec._ids)
            token = rec.current.set(cycle)
            items = rec.call("executor.collect", collect, (self_,), {})
            if not items:
                rec.current.reset(token)
                rec.spans[-1][1] = None  # an empty poll belongs to no cycle
                rec.spans[-1][6]["empty"] = True
                return items
            run_ids = []
            for item in map(json.loads, items):
                run_ids.extend(item.get("run_ids") or [item["run_id"]])
            rec._cycle = (cycle, token, rec.spans[-1][4], run_ids)
            return items

        def execute_items(self_, items):
            return rec.call("executor.execute", execute, (self_, items), {})

        def record_results(self_, items, results):
            try:
                return rec.call("executor.record", record, (self_, items, results), {})
            finally:
                cycle, token, t0, run_ids = rec._cycle
                rec._cycle = None
                rec.current.reset(token)
                rec.spans.append(
                    [cycle, None, LOGICAL, "logical", t0, perf_counter(), {"run_ids": run_ids}]
                )

        executor_cls.collect_items = collect_items
        executor_cls.execute_items = execute_items
        executor_cls.record_results = record_results


def install_counters(rec: Recorder) -> None:
    """Count deterministic work while ``rec.counters`` is a dict."""
    from repro.condor.classads import ad as ad_module
    from repro.condor.daemons.matchmaker import Matchmaker
    from repro.condor.job import Job
    from repro.sim.engine import Simulator

    def counting(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters = rec.counters
            if counters is not None:
                counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    Job.to_classad = counting(Job.to_classad, "ad_builds")
    ad_module.parse = counting(ad_module.parse, "parses")
    Matchmaker.run_cycle = counting(Matchmaker.run_cycle, "match_cycles")
    Simulator.step = counting(Simulator.step, "events")


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (see the module table)."""
    import repro.campaign.engine as campaign_engine
    import repro.campaign.shrink as campaign_shrink
    import repro.harness.__main__ as harness_main
    import repro.service.executor as executor_module
    from repro.service.api import ServiceApi
    from repro.service.store import RunStore

    def submitted_run(attrs, result):
        status, payload, _ = result
        if status == 202:
            attrs["run_id"] = payload["run_id"]

    rec.wrap(ServiceApi, "handle", "api.handle", on_result=submitted_run)
    for method in _STORE_METHODS:
        rec.wrap(RunStore, method, f"store.{method}")
    rec.wrap(
        RunStore, "put_artifact", "store.put_artifact",
        attrs_of=lambda _self, _run_id, _name, content: {"bytes": len(content)},
    )
    rec.wrap_executor(executor_module.ServiceExecutor)

    batch = executor_module.execute_batch

    def execute_batch(spec):
        rec.counters = dict.fromkeys(COUNTER_NAMES, 0)
        attrs = {"jobs": len(spec["jobs"])}
        try:
            return rec.call("condor.batch", batch, (spec,), {}, attrs)
        finally:
            attrs.update(rec.counters)
            rec.counters = None

    executor_module.execute_batch = execute_batch
    install_counters(rec)

    def trace_bytes(attrs, result):
        attrs["trace_bytes"] = len(result["trace"])

    rec.wrap(executor_module, "execute_experiment", "obs.session", on_result=trace_bytes)
    rec.wrap(harness_main, "run_experiment_record", "harness.experiment")
    rec.wrap(executor_module, "run_campaign", "campaign.run")

    def cell_error(attrs, record):
        attrs["error"] = record.get("error") is not None

    rec.wrap(campaign_engine, "run_cell_record", "campaign.cell", on_result=cell_error)
    rec.wrap(campaign_shrink, "minimize_cell", "campaign.shrink")


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def attribute(spans: list[list], wall: float) -> dict:
    """Self time per layer and the unattributed rest of each lane.

    A span's self time is its duration minus the part of it that its
    (non-logical) children cover.  Each lane -- the event-loop thread and
    the drain thread -- lasts the server's whole *wall*; what no
    top-level span covers is unattributed.  With spans that nest
    properly, ``sum(self) + sum(unattributed) == 2 * wall``; the
    returned ``closure_error_share`` is how far from that they are.
    """
    real = [s for s in spans if s[2] != LOGICAL]
    logical_ids = {s[0] for s in spans if s[2] == LOGICAL}
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, _lane, t0, t1, _attrs in real:
        if parent is not None and parent not in logical_ids:
            children.setdefault(parent, []).append((t0, t1))
    self_s = dict.fromkeys(LAYERS, 0.0)
    tops: dict[str, list[tuple[float, float]]] = {"loop": [], "drain": []}
    for sid, parent, name, lane, t0, t1, _attrs in real:
        inside = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ())]
        self_s[name.split(".", 1)[0]] += (t1 - t0) - _covered(inside)
        if parent is None or parent in logical_ids:
            tops[lane].append((t0, t1))
    unattributed = {lane: wall - _covered(iv) for lane, iv in tops.items()}
    accounted = sum(self_s.values()) + sum(unattributed.values())
    return {
        "self_s": self_s,
        "unattributed_s": unattributed,
        "closure_error_share": abs(accounted - 2 * wall) / (2 * wall),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Batch-size buckets the work counters are keyed by.
SIZE_BUCKETS = ((1, 8), (9, 32), (33, 128), (129, None))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values (a layer that never ran)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _bucket_name(lo: int, hi: int | None) -> str:
    return f"size_{lo}-{'up' if hi is None else hi}"


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer number the traced server's spans give."""
    spans = trace["spans"]
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def total(name: str) -> float:
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    handles = by_name.get("api.handle", [])
    handle_ms = [(s[5] - s[4]) * 1000.0 for s in handles]
    collects = by_name.get("executor.collect", [])
    cycles = by_name.get(LOGICAL, [])
    submitted_at = {s[6]["run_id"]: s[5] for s in handles if "run_id" in s[6]}
    waits = [
        cycle[4] - submitted_at[run_id]
        for cycle in cycles
        for run_id in cycle[6]["run_ids"]
        if run_id in submitted_at
    ]
    batches = by_name.get("condor.batch", [])
    jobs = sum(s[6]["jobs"] for s in batches)
    out = {
        "api.requests": len(handles),
        "api.busy_s": sum(handle_ms) / 1000.0,
        "api.handle_p50_ms": percentile(handle_ms, 50),
        "api.handle_p99_ms": percentile(handle_ms, 99),
        "store.calls": sum(len(v) for k, v in by_name.items() if k.startswith("store.")),
        "store.submit_run_s": total("store.submit_run"),
        "store.record_state_s": total("store.record_state"),
        "store.run_status_s": total("store.run_status"),
        "store.put_artifact_s": total("store.put_artifact"),
        "store.get_artifact_s": total("store.get_artifact"),
        "store.bytes_written": sum(s[6]["bytes"] for s in by_name.get("store.put_artifact", ())),
        "store.scan_s": sum(
            total(f"store.{m}") for m in ("pending_runs", "active_count", "queue_stats")
        ),
        "executor.cycles": len(cycles),
        "executor.collect_s": total("executor.collect"),
        "executor.execute_s": total("executor.execute"),
        "executor.record_s": total("executor.record"),
        "executor.empty_poll_share": _per(
            sum(1 for s in collects if s[6].get("empty")), len(collects)
        ),
        "executor.batch_jobs_p50": percentile([s[6]["jobs"] for s in batches], 50),
        "executor.batch_jobs_max": max((s[6]["jobs"] for s in batches), default=0),
        "executor.queue_wait_p50_s": percentile(waits, 50),
        "condor.batches": len(batches),
        "condor.batch_s_per_job": _per(total("condor.batch"), jobs),
        "condor.ad_builds_per_job": _per(sum(s[6]["ad_builds"] for s in batches), jobs),
        "classads.parses_per_job": _per(sum(s[6]["parses"] for s in batches), jobs),
        "matchmaker.cycles": sum(s[6]["match_cycles"] for s in batches),
        "sim.events_per_job": _per(sum(s[6]["events"] for s in batches), jobs),
    }
    for lo, hi in SIZE_BUCKETS:
        chosen = [s for s in batches if lo <= s[6]["jobs"] and (hi is None or s[6]["jobs"] <= hi)]
        n = sum(s[6]["jobs"] for s in chosen)
        prefix = f"condor.{_bucket_name(lo, hi)}"
        out[f"{prefix}.batches"] = len(chosen)
        for key in COUNTER_NAMES:
            out[f"{prefix}.{key}_per_job"] = _per(sum(s[6][key] for s in chosen), n)

    shrink_ids = {s[0] for s in by_name.get("campaign.shrink", ())}
    run_ids = {s[0] for s in by_name.get("campaign.run", ())}
    cells = by_name.get("campaign.cell", [])
    matrix_cells = [s for s in cells if s[1] in run_ids]
    out.update({
        "campaign.cells": len(matrix_cells),
        "campaign.cell_s": sum(s[5] - s[4] for s in matrix_cells),
        "campaign.shrink_s": total("campaign.shrink"),
        "campaign.shrink_runs_per_reproducer": _per(
            sum(1 for s in cells if s[1] in shrink_ids), len(shrink_ids)
        ),
        "campaign.cell_errors": sum(1 for s in cells if s[6].get("error", True)),
    })

    # Shares of the two lanes' combined wall (2 x server wall): the layers
    # and the unattributed rest sum to 1.
    wall = trace["wall_s"]
    attribution = attribute(spans, wall)
    out["server.wall_s"] = wall
    for layer, seconds in attribution["self_s"].items():
        out[f"self.{layer}_share"] = seconds / (2 * wall)
    for lane, seconds in attribution["unattributed_s"].items():
        out[f"unattributed.{lane}_share"] = seconds / (2 * wall)
    out["attr.closure_error_share"] = attribution["closure_error_share"]
    return out
