"""Experiment S1 — the scenario-family sweep.

Reproduction credibility comes from sweeping scenario *families*, not one
canonical run: the registry's workload families
(:mod:`repro.sim.registry`) each stress a different slice of the paper's
analyses, and this module runs the reconstruction across all of them.

Two entry points:

* :func:`get_family_run` — one cached simulate+reconstruct per
  (family, scale, seed), shared with the table/figure benchmarks via the
  common run cache (whose fingerprint includes the family name and the
  registry schema version);
* :func:`run_family_sweep` — per-family merge throughput through the
  streaming merge engine, persisted by the benchmark suite to
  ``BENCH_merge.json``'s ``scenario_sweep`` section so the workload
  surface the merge is validated against is tracked across PRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sim.registry import REGISTRY, SCENARIO_SCHEMA_VERSION, scenario_config
from .common import DEFAULT_SEED, ExperimentRun, get_run
from .perf import MergePerformance, _measure


def get_family_run(
    family: str,
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    **overrides,
) -> ExperimentRun:
    """The cached simulate+reconstruct for one registered family."""
    return get_run(
        f"family:{family}:{scale}",
        lambda: scenario_config(family, scale=scale, seed=seed, **overrides),
        seed=seed,
        family=family,
    )


@dataclass
class FamilySweepPoint:
    """Merge performance on one family's trace, plus scenario vitals."""

    family: str
    scale: str
    merge: MergePerformance
    flows_reconstructed: int
    roam_events: int

    def as_dict(self) -> dict:
        payload = self.merge.as_dict()
        payload.update(
            family=self.family,
            scale=self.scale,
            flows_reconstructed=self.flows_reconstructed,
            roam_events=self.roam_events,
        )
        return payload


def run_family_sweep(
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    families: Optional[Sequence[str]] = None,
) -> List[FamilySweepPoint]:
    """Merge every registered family's trace; report per-family throughput.

    The simulation and reconstruction are cached (shared with the other
    experiments); only the merge under measurement is timed, exactly as
    :func:`repro.experiments.perf.run_merge_performance` does for the
    canonical building run.
    """
    points: List[FamilySweepPoint] = []
    for name in families if families is not None else REGISTRY.names():
        run = get_family_run(name, scale=scale, seed=seed)
        merge = _measure(
            run.artifacts.radio_traces,
            run.duration_us,
            run.artifacts.clock_groups(),
        )
        points.append(
            FamilySweepPoint(
                family=name,
                scale=scale,
                merge=merge,
                flows_reconstructed=len(run.report.flows),
                roam_events=len(run.artifacts.roam_events),
            )
        )
    return points


def sweep_as_section(points: Sequence[FamilySweepPoint]) -> Dict:
    """The ``scenario_sweep`` payload persisted to ``BENCH_merge.json``."""
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "families": {point.family: point.as_dict() for point in points},
    }


def main() -> None:
    print("=== Scenario-family sweep (small scale) ===")
    for point in run_family_sweep():
        merge = point.merge
        print(
            f"  {point.family:16s} {merge.records:>8,} records  "
            f"{merge.records_per_second:>10,.0f} rec/s  "
            f"{merge.realtime_factor:5.2f}x real time  "
            f"flows={point.flows_reconstructed}  roam={point.roam_events}"
        )
    print()
    print("Registered families:")
    for family in REGISTRY:
        print(f"  {family.name:16s} {family.paper_focus}")


if __name__ == "__main__":
    main()
