"""Pure checking and statistics logic, shared by ``run.py`` and the workers.

Nothing here imports the program, so the orchestrating process stays a
plain interpreter that never holds simulation or pipeline state.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple


def fingerprint(crc: int, counts: Dict[str, int]) -> str:
    """One short digest of the jframe CRC plus the per-layer counts."""
    blob = json.dumps({"crc": crc, **counts}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def digest(items: Iterable) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:24]


# --- the percentile rule ----------------------------------------------------

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples (1-based)."""
    return max(1, math.ceil(round(n * p / 100.0, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(p/100 * n))."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(
    samples: Sequence[float], ladder: Sequence[float] = PERCENTILE_LADDER
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(p, value, n)`` — the percentile, its value and the sample
    count — or ``None`` when even the median has fewer than ten samples
    above it.  "Beyond" counts the samples strictly after the
    percentile's rank, so ties at the value do not inflate the tail.
    """
    n = len(samples)
    best = None
    for p in ladder:
        if n - _rank(n, p) >= 10:
            best = (p, percentile(samples, p), n)
    return best


def publish_lags_us(
    entries: Sequence[Tuple[int, Dict[int, int], Set[int]]],
    offsets_us: Dict[int, float],
) -> List[float]:
    """Publish lag per logged publication, in microseconds of trace time.

    The lag is the universal time of the newest record handed to the
    radio furthest behind, minus the window's end.  Local time converts
    to universal as ``local + offsets_us[radio]``; radios without an
    offset (quarantined) are ignored.  Radios that have been handed their
    last record are not behind, so they are left out; once every radio
    is done the newest record of any radio stands in.
    """
    lags: List[float] = []
    for end_us, newest, done in entries:
        live = [
            ts + offsets_us[r]
            for r, ts in newest.items()
            if r in offsets_us and r not in done
        ]
        if live:
            frontier = min(live)
        else:
            frontier = max(
                ts + offsets_us[r] for r, ts in newest.items() if r in offsets_us
            )
        lags.append(frontier - end_us)
    return lags


def check_run(run: Dict[str, Any], workload, reference: Dict[str, Any],
              stored: Optional[Dict[str, Any]], records: int) -> List[str]:
    """Every way one timed run's output can be wrong; empty when right."""
    problems = []
    if run["records"] != records:
        problems.append(f"read {run['records']} records, set-up wrote {records}")
    if run["fingerprint"] != reference["fingerprint"]:
        problems.append(
            f"fingerprint {run['fingerprint']} != reference "
            f"{reference['fingerprint']} ({reference['counts']} vs {run['counts']})"
        )
    if stored is not None:
        if run["fingerprint"] != stored["fingerprint"]:
            problems.append(
                f"fingerprint {run['fingerprint']} != stored {stored['fingerprint']}"
            )
    if workload.mode == "service":
        ref = reference["uninterrupted"]
        if run["window_keys"] != ref["window_keys"]:
            problems.append("published windows differ from an uninterrupted daemon")
        if run["publish_lag_ms"] != ref["publish_lag_ms"]:
            problems.append("publish lags differ from an uninterrupted daemon")
        if run["stats"] != reference["stats"]:
            problems.append("restored daemon's statistics differ from the batch pipeline")
        if (ref["fingerprint"], ref["stats"]) != (
            reference["fingerprint"], reference["stats"]
        ):
            problems.append("uninterrupted daemon differs from the batch pipeline")
    return problems
