"""The benchmark's workloads and their output references.

Inputs are pinned to the shipped physics values; no workload has a random
input.  Varying them is not safe: the reversal scan finds no reversing
amplitude at beta_0 in {1.05, 1.2, 1.4, 2.0}, and collective n=5 at
beta_0 = 2 fails its ratio check.
"""

from __future__ import annotations

import gzip
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

# None means the acceptance suite, run_all(); otherwise a CLI scenario config.
WORKLOADS = {
    # The 14-criterion suite users run to trust the package; ~93% of its time
    # is conservation_report on matrices of size <= 6 (criteria 9, 10, 14),
    # so batched seed scans show here, and it bypasses generator changes.
    "verify": None,
    # d = 32, a 1024x1024 superoperator: the dense generator path (eig, inv,
    # two finite-difference expm) dominates run_s and peak_rss_mb.
    "collective-d32": {"scenario": "collective-spins", "n": 5},
    # d = 4 over 3000 time points: per-snapshot functionals on one level
    # structure at one beta, where per-structure caching pays off.
    "reversal-3k": {"scenario": "heat-flow-reversal", "beta_0": 1.1, "beta_B": 1.0,
                    "time_grid": {"points": 3000}},
}

# Collective spins at n = 2..5 (d = 4..32): the d-scaling of the lindblad and
# linalg layers, recorded by the traced run only.  No reference: their
# outputs are checked by the program's invariants and the trace counts.
LADDER = {f"ladder-n{n}": {"scenario": "collective-spins", "n": n} for n in (2, 3, 4, 5)}


def reference_paths(workload: str) -> dict[str, Path]:
    if WORKLOADS[workload] is None:
        return {"verify": REFERENCE / f"{workload}.txt"}
    return {"csv": REFERENCE / f"{workload}.csv.gz", "summary": REFERENCE / f"{workload}.summary.txt"}


def read_reference(workload: str) -> dict[str, str]:
    out = {}
    for key, path in reference_paths(workload).items():
        out[key] = gzip.decompress(path.read_bytes()).decode() if path.suffix == ".gz" else path.read_text()
    return out


def write_reference(workload: str, texts: dict[str, str]) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for key, path in reference_paths(workload).items():
        data = texts[key].encode()
        # mtime=0 keeps the compressed bytes reproducible
        path.write_bytes(gzip.compress(data, 9, mtime=0) if path.suffix == ".gz" else data)


def program_checks(summary: str) -> int:
    """The invariant checks a scenario run counts: one per snapshot plus each
    pass/FAIL (or yes/no) verdict line of its summary."""
    snapshots = sum(int(m) for m in re.findall(r"^snapshots: (\d+)$", summary, re.M))
    verdicts = len(re.findall(r"^\w+: (?:pass|FAIL|yes|no)$", summary, re.M))
    return snapshots + verdicts


def expected_operations(workload: str) -> int:
    """Operations of one run of ``workload``, taken from its reference; a run
    that raises fails all of them."""
    if workload in LADDER:
        return 1
    ref = read_reference(workload)
    if "verify" in ref:
        return len(ref["verify"].splitlines()) + 1
    return program_checks(ref["summary"]) + 1
