"""Two in-process probes the traced run adds to its per-layer numbers.

- :func:`work_counters` runs ``execute_batch`` on a seeded fixed batch
  of each size, once bare for its wall time and once with the work
  counters on.  The counts are deterministic, so the schedd's cost per
  job as the queue grows is an exact number (the ROADMAP's table).
- :func:`cost_of_observing` runs each experiment spec both bare
  (``run_experiment_record``) and observed (``execute_experiment``, the
  service's ObservationSession path) and reports the difference.
"""

from __future__ import annotations

from time import perf_counter

from spans import COUNTER_NAMES, Recorder, install_counters

__all__ = ["cost_of_observing", "work_counters"]

#: The ROADMAP table's rows up to 200 jobs; its 400-job row alone takes
#: about 40 s bare, more than the rest of a traced run.
PROBE_SIZES = (50, 100, 200)
PROBE_MACHINES = 8


def probe_batch(size: int) -> dict:
    """The fixed batch: *size* 5-second jobs of one owner on 8 machines, seed 0."""
    from repro.service.specs import build_batch_spec, normalize_job_spec

    spec = normalize_job_spec({"work": 5.0})
    entries = [{"run_id": i + 1, "tenant": "probe", "spec": spec} for i in range(size)]
    return build_batch_spec(entries, n_machines=PROBE_MACHINES, seed=0, max_time=1_000_000.0)


def work_counters() -> dict[int, dict]:
    from repro.service.executor import execute_batch

    batches = {size: probe_batch(size) for size in PROBE_SIZES}
    rows = {}
    for size, batch in batches.items():
        t0 = perf_counter()
        execute_batch(batch)
        rows[size] = {"bare_s": perf_counter() - t0}
    recorder = Recorder()
    install_counters(recorder)
    for size, batch in batches.items():
        recorder.counters = dict.fromkeys(COUNTER_NAMES, 0)
        execute_batch(batch)
        rows[size].update(recorder.counters)
    recorder.counters = None
    return rows


def cost_of_observing(specs: list[dict]) -> list[dict]:
    """Per spec: bare seconds, observed seconds, and trace bytes.

    The order alternates per spec (bare first, then observed first), so
    warm-up after the first run favours neither side.
    """
    from repro.harness.__main__ import run_experiment_record
    from repro.service.executor import execute_experiment

    rows = []
    for index, spec in enumerate(specs):
        times = {}
        order = ("bare", "observed") if index % 2 == 0 else ("observed", "bare")
        for side in order:
            t0 = perf_counter()
            if side == "bare":
                run_experiment_record(spec["experiment"], seed=spec["seed"])
            else:
                trace_bytes = len(execute_experiment(spec)["trace"])
            times[side] = perf_counter() - t0
        rows.append({**spec, **times, "trace_bytes": trace_bytes})
    return rows
