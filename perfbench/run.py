"""Benchmark of ``repro.service`` over HTTP: four workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --workload jobs_open --seed 1 --seconds 25 --trace 0

``--trace 0`` starts ``python -m repro.service serve`` (fresh file-backed
store, ``--results-db none``) and drives it from this process; it prints
the end-to-end metrics.  ``--trace 1`` runs the workload twice for half
the time each -- once against the plain server, once against
``launcher.py``, which records a span around every layer's entry points
-- and prints the per-layer metrics, the tracing overhead between the
two runs, and the two in-process probes (``probes.py``).

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Correctness checks (job results, experiment and campaign references)
run after the timed region; each mismatch adds to ``failed``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from spans import percentile

#: Extra start/stop cycles before and after the workload, so setup_s is
#: a median of five starts spread over the run.
EXTRA_SETUPS = (2, 2)
#: Open-loop runs whose generator ran this late (p99) are invalid.
LATE_P99_LIMIT_MS = 20.0
#: The end-to-end latencies an invalid (too late) generator distorts.
LATENCY_METRICS = ("done_mean_s", "done_tail_s")

#: What throughput_per_s counts on each workload.
THROUGHPUT_UNIT = {
    "jobs_open": "jobs", "jobs_cluster": "jobs",
    "experiments": "experiments", "campaigns": "campaign cells",
}


def _log(text: str) -> None:
    print(text, flush=True)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


async def _phase(root, scratch, workload, seed, seconds, spans_path=None):
    """One server, one workload run; returns (tally, setup_s, rss_mb, problems)."""
    from loadgen import WORKLOADS, Generator, Tally
    from serverproc import SECRET, Server

    tally = Tally()
    server = Server(root, scratch, spans_path)
    try:
        setup = await server.start()
        gen = Generator(server.host, server.port, SECRET, _nproc())
        try:
            await WORKLOADS[workload](gen, random.Random(seed), seconds, tally)
        finally:
            await gen.close()
        tally.connections = len(gen.conns)
        rss = server.rss_mb()
        problems = await server.stop()
    finally:
        await server.kill()
        server.remove()
    return tally, setup, rss, problems


async def _setup_only(root, scratch) -> tuple[float, list[str]]:
    from serverproc import Server

    server = Server(root, scratch)
    try:
        setup = await server.start()
        return setup, await server.stop()
    finally:
        await server.kill()
        server.remove()


def _check_outputs(workload: str, tally, seed: int) -> list[str]:
    from checks import check_campaigns, check_experiments

    rng = random.Random(seed + 1)
    check = {"experiments": check_experiments, "campaigns": check_campaigns}.get(workload)
    if check is None:
        return []
    try:
        return check(tally.outputs, rng)
    except Exception as exc:  # a fault in the program under test, or garbled output
        return [f"{workload} correctness check raised {exc!r}"]


def _completed(tally) -> bool:
    """Whether the run finished any work, so it has a rate and latencies."""
    return bool(tally.done_s) and tally.window_s > 0


def _e2e(tally, setups: list[float], rss: float) -> dict[str, float]:
    metrics = {"setup_s": statistics.median(setups), "server_rss_mb": rss}
    if _completed(tally):
        metrics.update({
            "throughput_per_s": tally.throughput(),
            # The mean, not the median: on campaigns (8 samples a run) the
            # median is one campaign's latency and moved 20 % between runs.
            "done_mean_s": tally.done_mean(),
            # The tail as a mean, not a p90: on experiments the p90 sat on
            # the step below the heaviest pair and moved 30 % between runs.
            "done_tail_s": tally.done_tail(),
        })
    return metrics


def _report_samples(workload: str, tally) -> None:
    _log(f"{workload}: {tally.attempted} operations, {tally.failed} failed, "
         f"{tally.completed:g} {THROUGHPUT_UNIT[workload]} over {tally.window_s:.2f}s, "
         f"generator connections {tally.connections}")
    for name, values, unit in (
        ("submit", tally.submit_ms, "ms"),
        ("request", tally.request_ms, "ms"),
        ("done", tally.done_s, "s"),
        ("generator lateness", tally.late_ms, "ms"),
    ):
        if values:
            _log(f"  {name:<18} n={len(values):<6} p50={percentile(values, 50):.4g}{unit} "
                 f"p90={percentile(values, 90):.4g}{unit} p99={percentile(values, 99):.4g}{unit} "
                 f"max={max(values):.4g}{unit}")


async def untraced(root: Path, scratch: Path, args) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    before, after = EXTRA_SETUPS
    extra = [await _setup_only(root, scratch) for _ in range(before)]
    tally, setup, rss, stop_problems = await _phase(
        root, scratch, args.workload, args.seed, args.seconds
    )
    extra += [await _setup_only(root, scratch) for _ in range(after)]
    setups = [setup]
    for extra_setup, extra_problems in extra:
        setups.append(extra_setup)
        attempted += 1
        failed += bool(extra_problems)
        problems += extra_problems
    check_problems = _check_outputs(args.workload, tally, args.seed)
    attempted += tally.attempted + 1
    failed += tally.failed + len(check_problems) + bool(stop_problems)
    problems += tally.problems + check_problems + stop_problems
    _report_samples(args.workload, tally)
    samples = root / ".perfbench" / f"{args.workload}-samples.json"
    samples.write_text(json.dumps({
        "submit_ms": tally.submit_ms, "request_ms": tally.request_ms,
        "done_s": tally.done_s, "late_ms": tally.late_ms, "cycle_rates": tally.cycle_rates,
    }))
    metrics = _e2e(tally, setups, rss)
    if not _completed(tally):
        problems.append("nothing completed; throughput and latencies not reported")
        failed += 1
    late_p99 = percentile(tally.late_ms, 99)
    if late_p99 > LATE_P99_LIMIT_MS:
        problems.append(
            f"INVALID: generator lateness p99 {late_p99:.2f}ms > {LATE_P99_LIMIT_MS}ms; "
            "latencies not reported"
        )
        failed += 1
        metrics = {k: v for k, v in metrics.items() if k not in LATENCY_METRICS}
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def _headline(workload: str, tally) -> float:
    """Seconds per unit of work: what tracing overhead is measured on."""
    if workload == "jobs_open":  # throughput is pinned by the offered rate
        return percentile(tally.done_s, 50)
    return 1.0 / tally.throughput()


def _probe(metrics: dict, tally, seed: int) -> tuple[list[dict], dict]:
    """Run both in-process probes, add their numbers to *metrics*."""
    from probes import cost_of_observing, work_counters

    # The first spec served per experiment; a workload that served none
    # probes every experiment at the workload seed.
    specs = {}
    for out in tally.outputs:
        if "result" in out:
            specs.setdefault(out["spec"]["experiment"], out["spec"])
    if not specs:
        from repro.harness.__main__ import EXPERIMENTS

        specs = {name: {"experiment": name, "seed": seed} for name in EXPERIMENTS}
    observed = cost_of_observing([specs[name] for name in sorted(specs)])
    bare_s = sum(row["bare"] for row in observed)
    observe_s = sum(row["observed"] for row in observed)
    for row in observed:
        _log(f"  observe {row['experiment']:<16} seed={row['seed']:<6} bare={row['bare']:.4f}s "
             f"observed={row['observed']:.4f}s (+{row['observed'] / row['bare'] - 1:.1%}) "
             f"trace={row['trace_bytes']}B")
    metrics.update({
        "harness.bare_s": bare_s,
        "obs.observe_s": observe_s,
        "obs.share": observe_s / bare_s - 1.0 if bare_s else 0.0,
        "obs.trace_bytes": sum(row["trace_bytes"] for row in observed),
    })
    counters = work_counters()
    for size, row in counters.items():
        _log(f"  execute_batch {size:>4} jobs: bare {row['bare_s']:.3f}s, "
             + ", ".join(f"{key} {row[key]}" for key in row if key != "bare_s"))
        for key, value in row.items():
            metrics[f"probe.b{size}.{key}"] = value
    return observed, counters


async def traced(root: Path, scratch: Path, args) -> dict:
    from spans import layer_metrics

    half = args.seconds / 2
    base, *_, base_problems = await _phase(root, scratch, args.workload, args.seed, half)
    spans_path = scratch / "spans.json"
    tally, *_, stop_problems = await _phase(
        root, scratch, args.workload, args.seed, half, spans_path=spans_path
    )
    _report_samples(args.workload, tally)
    check_problems = []
    for phase in (base, tally):
        check_problems += _check_outputs(args.workload, phase, args.seed)
    metrics = {}
    if spans_path.is_file():
        metrics = layer_metrics(json.loads(spans_path.read_text()))
    else:
        check_problems.append("traced server wrote no spans; layer metrics not reported")
    try:
        observed, counters = _probe(metrics, tally, args.seed)
    except Exception as exc:  # the probes run the program in this process
        check_problems.append(f"in-process probe raised {exc!r}; probe metrics not reported")
        observed, counters = [], {}

    metrics.update({
        "gen.late_p99_ms": percentile(tally.late_ms, 99),
        "gen.late_max_ms": max(tally.late_ms, default=0.0),
        "gen.connections": tally.connections,
    })
    if _completed(base) and _completed(tally):
        metrics["trace.overhead_share"] = (
            _headline(args.workload, tally) / _headline(args.workload, base) - 1.0
        )
    else:
        check_problems.append("a pass completed nothing; trace.overhead_share not reported")
    problems = base.problems + tally.problems + check_problems + base_problems + stop_problems
    failed = base.failed + tally.failed + len(check_problems)
    failed += bool(base_problems) + bool(stop_problems)
    detail = root / ".perfbench" / f"{args.workload}-layers.json"
    detail.write_text(json.dumps({"metrics": metrics, "observe": observed,
                                  "work_counters": counters}, indent=2, sort_keys=True))
    _log(f"per-layer detail written to {detail.relative_to(root)}")
    return {"attempted": base.attempted + tally.attempted + 2, "failed": failed,
            "problems": problems, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("jobs_open", "jobs_cluster", "experiments", "campaigns"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"perfbench: no repro source under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    # Everything this process (and each server) writes stays in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        mode = traced if args.trace else untraced
        outcome = asyncio.run(mode(root, scratch, args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in outcome["problems"]:
        _log(f"FAILED: {problem}")
    metrics = {}
    for name, unit in declared.items():
        if name in outcome["metrics"]:
            metrics[name] = {"value": outcome["metrics"].pop(name), "unit": unit}
            _log(f"  {name:<40} {metrics[name]['value']:.6g} {unit}")
    if outcome["metrics"]:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(outcome['metrics'])}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
