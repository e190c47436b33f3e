"""Correctness of what the server returned, against in-process references.

These run after the timed region, in the benchmark process.  Every
mismatch is one failure in the run's ``failed`` count.
"""

from __future__ import annotations

import json

__all__ = ["check_campaigns", "check_experiments"]

#: Experiment results byte-compared per run; each reference costs about
#: as much as serving the experiment did, so a seeded sample is checked.
EXPERIMENT_SAMPLE = 8
#: Campaign reports whose totals are recomputed per run (seconds each).
CAMPAIGN_SAMPLE = 1


def check_experiments(outputs: list[dict], rng) -> list[str]:
    """Every result names its experiment and seed; a sample byte-matches.

    Traces are not checked for content: some experiments (fig4, for one)
    legitimately run without a simulated pool and export an empty trace.
    """
    from repro.harness.__main__ import run_experiment_record
    from repro.service.executor import canonical_dump_bytes

    problems = []
    for out in outputs:
        spec = out["spec"]
        result = json.loads(out["result"])
        if result.get("seed") != spec["seed"] or set(result["experiments"]) != {
            spec["experiment"]
        }:
            problems.append(f"experiment {spec}: result names the wrong run")
    for out in rng.sample(outputs, min(EXPERIMENT_SAMPLE, len(outputs))):
        spec = out["spec"]
        record = run_experiment_record(spec["experiment"], seed=spec["seed"])
        expected = canonical_dump_bytes(
            {"seed": spec["seed"], "experiments": {spec["experiment"]: record["data"]}}
        )
        if out["result"] != expected:
            problems.append(f"experiment {spec}: result differs from the in-process reference")
    return problems


def check_campaigns(outputs: list[dict], rng) -> list[str]:
    """Every report describes its spec; a sample's totals match a reference."""
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import CampaignConfig

    problems = []
    for out in outputs:
        spec, header = out["spec"], out["report"]["campaign"]
        if any(header[key] != spec[key] for key in spec):
            problems.append(f"campaign {spec}: report header {header} differs")
    for out in rng.sample(outputs, min(CAMPAIGN_SAMPLE, len(outputs))):
        spec = out["spec"]
        reference = run_campaign(CampaignConfig(**spec), jobs=1, shrink=True)
        if out["report"]["totals"] != reference["totals"]:
            problems.append(
                f"campaign {spec}: totals {out['report']['totals']} != "
                f"reference {reference['totals']}"
            )
    return problems
