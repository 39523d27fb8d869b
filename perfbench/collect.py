"""Repeat the benchmark and record medians, quartiles and spreads.

    python3 perfbench/collect.py [--runs 10] [--traced 2] [--workloads W ...]
                                 [--label TEXT] [--out perfbench/results/NAME.json]

Runs BENCHMARK.json's command once per seed (1..runs) for each workload,
interleaving workloads so that drift in machine load hits them alike, then
``--traced`` traced runs per workload.  For each end-to-end metric it reports
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound.  The traced runs must repeat
every ``.calls`` count exactly.  Use it on the parent and on a change with
the same settings to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import ROOT


def run(cmd: list[str]) -> tuple[dict, dict]:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    env = {}
    for line in lines:
        if line.strip().startswith("env:"):
            env = dict(item.strip().split("=", 1) for item in line.split("env:", 1)[1].split("  ") if "=" in item)
    return json.loads(lines[-1]), env


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=2)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--label", default="")
    p.add_argument("--out", default=None)
    args = p.parse_args()

    base = bench["command"] + ["--seconds", str(bench["run_seconds"])]
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    env = {}
    for seed in range(1, args.runs + 1):
        for w in args.workloads:
            result, env = run(base + ["--workload", w, "--seed", str(seed), "--trace", "0"])
            runs[w].append(result)
            values = "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{w:<15} seed {seed:2d}  correct={result['correct']}  {values}", flush=True)

    report = {"label": args.label, "run_seconds": bench["run_seconds"], "env": env, "workloads": {}}
    steady = True
    for w in args.workloads:
        entry = {
            "runs": len(runs[w]),
            "correct": all(r["correct"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            within = spread <= metric["bound"] / 3 or name == "setup_s"
            steady &= within
            print(f"{w:<15} {name:<12} median {med:10.4f} {metric['unit']:<3} spread {spread:.4f} "
                  f"(bound {metric['bound']}, target < {metric['bound'] / 3:.4f}) "
                  f"{'ok' if within else 'TOO WIDE'}")
        traced = [run(bench["command"] + ["--workload", w, "--seed", str(k + 1), "--seconds",
                                          str(bench["run_seconds"]), "--trace", "1"])[0]
                  for k in range(args.traced)]
        if traced:
            counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                      for t in traced]
            repeat = all(c == counts[0] for c in counts)
            entry["traced"] = {
                "runs": len(traced),
                "correct": all(t["correct"] for t in traced),
                "counts_repeat_exactly": repeat,
                "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            }
            steady &= repeat
            print(f"{w:<15} traced runs {len(traced)}: counts repeat exactly: {repeat}")
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
