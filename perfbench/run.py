"""cohentropy benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload {verify,collective-d32,reversal-3k,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Every measured run is a fresh child process (child.py), started one at a time
from this parent, with the BLAS pinned to one thread.

--trace 0: children of the workload run back to back until --seconds is
    used (at least three).  Each gives setup_s, run_s and peak_rss_mb; the
    medians are reported.  Every child's outputs are checked against the
    reference in reference/; the operations are the program's own invariant
    checks plus that output check, and fail_ratio = failed / attempted.
--trace 1: one untraced and one traced child of the workload, then traced
    children of collective-spins at n = 2..5 (the d-ladder).  Reports the
    per-layer metrics; spans go to perfbench/out/.

--seed is recorded but changes no input: the inputs are pinned (see
workloads.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import CRITERIA, KERNELS, LAYERS
from workloads import HERE, LADDER, ROOT, WORKLOADS, expected_operations

MIN_CHILDREN = 3
DEADLINE_S = 170.0  # a run, children included, ends well within 180 s
OUT = HERE / "out"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS thread gave the tightest spread; never more than nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("COHENTROPY_THREADS", None)
    return env


def run_child(workload: str, deadline: float, trace: bool = False, spans: str | None = None) -> dict:
    """One child process; on a crash or timeout, every operation of the run fails."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    start = monotonic()
    cmd += ["--spawned", repr(start)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        error = "timed out"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
            result["wall_s"] = monotonic() - start
            return result
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    ops = expected_operations(workload)
    return {"attempted": ops, "failed": ops, "problems": [error], "wall_s": monotonic() - start}


def run_untraced(workload: str, seconds: float, start: float) -> list[dict]:
    children: list[dict] = []
    while True:
        children.append(run_child(workload, start + DEADLINE_S))
        elapsed = monotonic() - start
        per_child = statistics.mean(c["wall_s"] for c in children)
        if len(children) >= MIN_CHILDREN and elapsed + per_child > seconds:
            return children
        if elapsed + per_child > DEADLINE_S - 10:
            return children


def end_to_end(children: list[dict]) -> dict[str, tuple[float, str]]:
    ok = [c for c in children if "run_s" in c]
    if not ok:
        return {}
    return {
        name: (statistics.median(c[name] for c in ok), unit)
        for name, unit in (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"))
    }


def per_layer(untraced: dict, traced: dict, ladder: dict[str, dict]) -> dict[str, tuple[float, str]]:
    t = traced["trace"]
    names = t["names"]

    def get(name: str) -> dict:
        return names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for module, funcs in LAYERS.items():
        for func in funcs:
            v = get(f"{module}.{func}")
            m[f"{module}.{func}.calls"] = (v["calls"], "count")
            m[f"{module}.{func}.self_s"] = (v["self_s"], "s")
    rates = get("thermo.instantaneous_rates")
    reports = get("thermalops.conservation_report")
    inc = t["inclusive"]
    m["thermo.instantaneous_rates.p50_us"] = (rates["p50_us"], "us")
    m["thermo.instantaneous_rates.p99_us"] = (rates["p99_us"], "us")
    m["thermo.eigs_per_snapshot"] = (ratio(inc["eigs_under_instantaneous_rates"], rates["calls"]), "ratio")
    m["thermalops.conservation_report.p50_us"] = (reports["p50_us"], "us")
    m["thermalops.conservation_report.p99_us"] = (reports["p99_us"], "us")
    m["thermalops.eigs_per_report"] = (ratio(inc["eigs_under_conservation_report"], reports["calls"]), "ratio")
    m["thermalops.divergence_witness.seeds_tried"] = (
        ratio(get("thermalops.divergence_witness")["calls"], t["witness_seeds_tried"]), "ratio")
    m["lindblad.superop_bytes"] = (t["superop_bytes"], "B")
    m["lindblad.evolve.expm_fallbacks"] = (inc["expm_under_evolve"], "count")
    m["scenarios.reversal_scan.tries"] = (t["reversal_scan_tries"], "count")
    for k in CRITERIA:
        m[f"acceptance.criterion_{k}.s"] = (get(f"acceptance.criterion_{k}")["s"], "s")
    for kernel in KERNELS:
        m[f"linalg.{kernel}.calls"] = (t["kernels"][kernel]["calls"], "count")
        m[f"linalg.{kernel}.s"] = (t["kernels"][kernel]["s"], "s")
    m["trace.overhead_s"] = (traced["run_s"] - untraced["run_s"], "s")
    for rung, child in ladder.items():
        lind = sum(v["self_s"] for name, v in child["trace"]["names"].items() if name.startswith("lindblad."))
        m[f"ladder.{rung.split('-')[1]}.lindblad.self_s"] = (lind, "s")
    return m


def ladder_record(ladder: dict[str, dict]) -> dict:
    """The lindblad and linalg layers of each d-ladder child, for the trace file."""
    out = {}
    for rung, child in ladder.items():
        names = child["trace"]["names"]
        out[rung] = {
            "d": 2 ** LADDER[rung]["n"],
            "run_s": child["run_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "superop_bytes": child["trace"]["superop_bytes"],
            "lindblad": {k: v for k, v in names.items() if k.startswith("lindblad.")},
            "linalg": child["trace"]["kernels"],
        }
    return out


def run_traced(workload: str, start: float) -> tuple[list[dict], dict]:
    OUT.mkdir(exist_ok=True)
    deadline = start + DEADLINE_S
    untraced = run_child(workload, deadline)
    traced = run_child(workload, deadline, trace=True, spans=str(OUT / f"spans-{workload}.npz"))
    ladder = {rung: run_child(rung, deadline, trace=True, spans=str(OUT / f"spans-{rung}.npz"))
              for rung in LADDER}
    children = [untraced, traced, *ladder.values()]
    if not all("run_s" in c for c in children):
        return children, {}
    metrics = per_layer(untraced, traced, ladder)
    record = {
        "workload": workload,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": traced["trace"]["spans"],
        "kernels_by_span": traced["trace"]["kernels_by_span"],
        "names": traced["trace"]["names"],
        "missing": traced["trace"]["missing"],
        "ladder": ladder_record(ladder),
        "env": traced["env"],
    }
    (OUT / f"trace-{workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    return children, metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = monotonic()
    if trace:
        children, metrics = run_traced(workload, start)
    else:
        children = run_untraced(workload, seconds, start)
        metrics = end_to_end(children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = next((c["env"] for c in children if "env" in c), {})
    print(f"== {workload}  seed={seed}  trace={int(trace)}  children={len(children)}  "
          f"wall={monotonic() - start:.1f}s")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for c in children:
        for problem in c.get("problems", []):
            print(f"   problem: {problem}")
    if not trace:
        ok = [c for c in children if "run_s" in c]
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            if name in metrics:
                value, unit = metrics[name]
                samples = " ".join(f"{c[name]:.4g}" for c in ok)
                print(f"   {name:<12} {value:10.4f} {unit:<5} median of {len(ok)}: {samples}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"   {name:<52} {value:14.6g} {unit}")
    print(f"   {'fail_ratio':<12} {failed / attempted if attempted else 0.0:10.4f}       "
          f"{failed} failed of {attempted} operations")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    if not (ROOT / "src" / "cohentropy" / "__init__.py").is_file():
        print(f"no cohentropy sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)  # bytecode as an installed package has it
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if not all(r["metrics"] for r in results.values()):
        print("no workload run completed; no metrics to report", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
