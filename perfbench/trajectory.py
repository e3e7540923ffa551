"""Record one trajectory point: every workload on several seeds, then a
traced run per workload, summarized into one JSON file.

    python3 perfbench/trajectory.py --out perfbench/trajectory/<commit>.json

For each end-to-end metric it stores the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. The traced run adds the full per-layer
table, the self-time table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=str(ROOT), capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(report.read_text(encoding="utf-8"))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"seeds": SEEDS, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, correct, quality = {}, True, {}
        for seed in SEEDS:
            line, report = bench(workload, seed, spec["run_seconds"], 0)
            correct &= line["correct"]
            quality[seed] = report["quality"]
            point["environment"] = {k: v for k, v in report["environment"].items()
                                    if k != "workload_seed"}
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        e2e = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            e2e[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "bound": bounds.get(name)}
            print(f"  {name}: median {med:.6g} spread {(q3 - q1) / med:.4f} "
                  f"bound {bounds.get(name)}", flush=True)
        line, report = bench(workload, TRACE_SEED, spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "correct": correct and line["correct"],
            "end_to_end": e2e,
            "quality_by_seed": quality,
            "traced": {k: report[k] for k in ("seed", "checks", "layers", "self_time",
                                              "trace_overhead_s", "trace_overhead_pct",
                                              "missing_spans", "unexpected_spans")},
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
