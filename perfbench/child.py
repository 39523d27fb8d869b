"""One measured run of one workload in a fresh process (started by run.py).

    python3 perfbench/child.py --workload NAME --spawned T [--trace] [--spans FILE]

``--spawned`` is the CLOCK_MONOTONIC time at which the parent started this
process, so setup_s covers interpreter start, importing cohentropy, numpy and
scipy, and parsing the config.  run_s is the wall time of the workload call
alone; its outputs end in memory.  The result is one JSON line on stdout.
"""

import argparse
import json
import os
import platform
import sys
import time

from workloads import LADDER, ROOT, WORKLOADS, program_checks, read_reference, write_reference

sys.path.insert(0, str(ROOT / "src"))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def trace_checks(rec, summary: dict, workload: str, outputs: dict[str, str]) -> list[str]:
    """Counts in the trace that the outputs fix exactly."""
    def calls(name: str) -> int:
        return summary["names"][name]["calls"] if name in summary["names"] else 0

    problems = []

    def expect(what: str, got: int, want: int) -> None:
        if got != want:
            problems.append(f"trace: {what} = {got}, outputs imply {want}")

    if workload == "verify":
        for k in range(1, 15):
            expect(f"acceptance.criterion_{k}.calls", calls(f"acceptance.criterion_{k}"), 1)
        line9 = next((x for x in outputs["verify"].splitlines() if "criterion  9" in x), "")
        total9 = int(line9.split("/")[1].split()[0]) if "/" in line9 else -1
        under9 = rec.ancestors_named("thermalops.conservation_report", "acceptance.criterion_")
        expect("conservation_report calls under criterion 9",
               under9.count("acceptance.criterion_9"), total9)
    else:
        rows = len(outputs["csv"].splitlines()) - 1
        expect("instantaneous_rates.calls - reversal_scan.tries",
               calls("thermo.instantaneous_rates") - summary["reversal_scan_tries"], rows)
        if "Pi_th,Pi_col,ratio" in outputs["summary"]:
            table = outputs["summary"].split("Pi_th,Pi_col,ratio\n", 1)[1].split("\nratio_at_top", 1)[0]
            expect("entropy_production_ratio.calls",
                   calls("collective.entropy_production_ratio"), len(table.splitlines()))
    return problems


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, *LADDER])
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans to this .npz")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the workload's reference")
    args = p.parse_args()

    import cohentropy.acceptance
    import cohentropy.scenarios

    config = {**WORKLOADS, **LADDER}[args.workload]
    if config is None:
        call = cohentropy.acceptance.run_all
    else:
        cfg = cohentropy.scenarios.config_from_json(json.dumps(config))
        def call():
            return cohentropy.scenarios.run_scenario_config(cfg)
    setup_s = monotonic() - args.spawned

    rec = None
    if args.trace:
        from tracer import Recorder, instrument
        rec = Recorder()
        instrument(rec)
    t0 = time.perf_counter()
    out = call()
    run_s = time.perf_counter() - t0
    rss = peak_rss_mb()

    if config is None:
        outputs = {"verify": "\n".join(r.line() for r in out) + "\n"}
        attempted, failed = len(out), sum(not r.passed for r in out)
    else:
        outputs = {"csv": out.csv_text, "summary": out.summary_text}
        attempted, failed = program_checks(out.summary_text), out.invariant_failures
    if args.write_reference:
        write_reference(args.workload, outputs)
    problems = []
    if args.workload in WORKLOADS:
        from check import check_outputs
        problems = check_outputs(outputs, read_reference(args.workload))
        attempted, failed = attempted + 1, failed + bool(problems)
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss, "env": environment()}
    if rec is not None:
        result["trace"] = summarize(rec)
        trace_problems = trace_checks(rec, result["trace"], args.workload, outputs)
        attempted, failed = attempted + 1, failed + bool(trace_problems)
        problems += trace_problems
        if args.spans:
            import numpy as np
            np.savez_compressed(args.spans, **rec.arrays())
    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result))
    return 0


def summarize(rec) -> dict:
    """Everything the parent needs from a traced run, as plain JSON."""
    import numpy as np

    per = rec.per_name()
    names = {}
    for name, v in per.items():
        d = v["durations"]
        names[name] = {
            "calls": v["calls"], "s": v["s"], "self_s": v["self_s"],
            "p50_us": float(np.percentile(d, 50) * 1e6) if len(d) else 0.0,
            "p99_us": float(np.percentile(d, 99) * 1e6) if len(d) else 0.0,
        }
    return {
        "spans": len(rec.span_name),
        "names": names,
        "kernels": {k: {"calls": c, "s": s} for k, c, s in zip(rec.kernels, rec.kernel_calls, rec.kernel_s)},
        "kernels_by_span": rec.kernels_by_span(),
        "inclusive": {
            "eigs_under_instantaneous_rates": rec.inclusive_calls("thermo.instantaneous_rates", ("eigh", "eigvalsh")),
            "eigs_under_conservation_report": rec.inclusive_calls("thermalops.conservation_report", ("eigh", "eigvalsh")),
            "expm_under_evolve": rec.inclusive_calls("lindblad.evolve", ("expm",)),
        },
        "reversal_scan_tries": rec.ancestors_named("thermo.instantaneous_rates").count("scenarios.build_reversal_scenario"),
        "witness_seeds_tried": rec.ancestors_named("thermalops.conservation_report").count("thermalops.divergence_witness"),
        "superop_bytes": rec.superop_bytes,
        "missing": rec.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
