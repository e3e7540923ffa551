"""crispdec benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload train-a6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload eval-a6 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

Run it from the root of a crispdec checkout: it benchmarks the code under
``src/`` next to this directory. The workload runs in its own process
with the BLAS thread variables pinned before numpy loads. The report is
printed line by line; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1          # pinned; 1 thread ran the A6 step at least as fast as 2
CHILD_TIMEOUT_S = 170     # the whole call must end within 180 s
TAIL_BEYOND = 10          # the tail percentile has this many intervals beyond it



def load_spec():
    """Workload names, and end-to-end and per-layer metric names with their
    units, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([w["name"] for w in spec["workloads"]],
            ({m["name"]: m["unit"] for m in spec["end_to_end"]},
             {m["name"]: m["unit"] for m in spec["per_layer"]}))


def source_identity():
    """The git commit when there is one, and a hash of the program source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tail(intervals, m):
    """The highest step-interval percentile with TAIL_BEYOND intervals
    beyond it among ``m`` intervals (the fewest a run collects), applied to
    all intervals of the run, so the level does not depend on how many
    units fit in the run."""
    if m <= TAIL_BEYOND + 1 or len(intervals) < 2:
        return None, None
    level = (m - 1 - TAIL_BEYOND) / (m - 1)
    xs = sorted(intervals)
    pos = level * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 100.0 * level


def run_workload(workload, seed, seconds, trace, scale="full", inject=None):
    """Run one workload in a child process and summarize its events."""
    state = ROOT / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    events_path = workdir / "events.jsonl"
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--events", str(events_path), "--workdir", str(workdir), "--scale", scale]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    events = []
    if events_path.exists():
        for line in events_path.read_text(encoding="utf-8").splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break  # a line cut short by the child's death
    shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, trace, code, events)


def summarize(workload, seed, trace, code, events):
    attempted = failed = 0
    errors = []
    open_unit, done = None, 0
    for ev in events:
        if ev["event"] == "begin":
            open_unit, done = ev["planned"], 0
            attempted += ev["planned"]
        elif ev["event"] == "step":
            done += 1
        elif ev["event"] == "end":
            failed += ev["failed"]
            open_unit = None
            if "error" in ev:
                errors.append(ev["error"])
    if open_unit is not None:       # the process ended inside a unit
        failed += open_unit - done
    result = next((ev for ev in events if ev["event"] == "result"), None)
    if code != 0:
        errors.append(f"workload process exited with code {code}")
    if result is None:
        errors.append("workload process wrote no result")
        result = {"units": [], "setup_s": [], "tail_intervals": 0}
    if attempted == 0:              # the process failed before its first unit
        attempted = failed = 1

    units = result["units"]
    checks = {}
    for u in units:
        for name, ok in u["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    qualities = [u["quality"] for u in units]
    if len(qualities) >= 2:
        key = "trace parity (traced equals untraced)" if trace else \
            "same-seed units agree exactly"
        # units past the scored ones carry final_loss only
        checks[key] = all(q == {k: qualities[0][k] for k in q} for q in qualities)
    else:
        checks["at least two complete units"] = False

    report = {"workload": workload, "seed": seed, "trace": trace,
              "environment": {**result.get("environment", {}), **source_identity(),
                              "workload_seed": seed},
              "attempted": attempted, "failed": failed,
              "ops_failed_frac": failed / attempted, "errors": errors,
              "quality": qualities[0] if qualities else {}}
    metrics = {}
    if units:
        intervals = [x for u in units for x in u["intervals"]]
        tail_s, level = tail(intervals, result["tail_intervals"])
        report["step_tail_level"] = level
        report["step_tail_beyond"] = sum(1 for x in intervals if tail_s is not None
                                         and x > tail_s)
        report["step_intervals"] = len(intervals)
        report["units_run"] = len(units)
        report["unit_img_per_s"] = [u["images"] / u["cpu_s"] for u in units]
        report["wall_img_per_s"] = statistics.median(u["images"] / u["wall_s"] for u in units)
        if not trace:
            metrics = {
                "setup_s": statistics.median(result["setup_s"]),
                "img_per_s": statistics.median(u["images"] / u["cpu_s"] for u in units),
                "step_p50_ms": 1000.0 * statistics.median(intervals),
                "step_tail_ms": None if tail_s is None else 1000.0 * tail_s,
                "peak_rss_mb": result["peak_rss_mb"],
            }
    if trace and "layers" in result:
        report["layers"] = result["layers"]
        report["self_time"] = result["self_time"]
        report["trace_overhead_s"] = result["trace_overhead_s"]
        report["trace_overhead_pct"] = (100.0 * result["trace_overhead_s"]
                                        / result["untraced_cpu_s"])
        import tracer as tr

        missing, unexpected = tr.coverage(workload, result["layers"])
        checks["every expected span fired"] = not missing
        report["missing_spans"] = missing
        report["unexpected_spans"] = unexpected
        report["spans"] = result["spans"]
        metrics = dict(result["layers"])
    elif trace:
        checks["traced unit completed"] = False
    report["checks"] = checks
    report["correct"] = bool(not errors and failed == 0 and checks
                             and all(checks.values()))
    report["metrics"] = metrics
    return report


ALIASES = {  # the end-to-end names of the workload that the JSON names stand for
    "train": {"img_per_s": "train_img_per_s", "step_p50_ms": "train_step_p50_ms",
              "step_tail_ms": "train_step_tail_ms"},
    "eval": {"img_per_s": "eval_img_per_s", "step_p50_ms": "eval_image_p50_ms",
             "step_tail_ms": "eval_image_tail_ms"},
}


def print_report(rep, spec):
    p = print
    env = rep["environment"]
    p(f"# crispdec benchmark: workload {rep['workload']} seed {rep['seed']} "
      f"trace {rep['trace']}")
    p("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for err in rep["errors"]:
        p(f"! error: {err}")
    for name, ok in rep["checks"].items():
        p(f"check {'PASS' if ok else 'FAIL'}: {name}")
    kind = "eval" if rep["workload"].startswith("eval") else "train"
    if not rep["trace"]:
        for name, unit in spec[0].items():
            alias = ALIASES[kind].get(name, name)
            val = rep["metrics"].get(name)
            p(f"{alias:<22} {'n/a' if val is None else f'{val:.6g}':>12} {unit}")
    if rep.get("step_tail_level") is not None and not rep["trace"]:
        p(f"{'(tail percentile)':<22} {rep['step_tail_level']:>12.1f} p, "
          f"{rep['step_tail_beyond']} of {rep['step_intervals']} intervals beyond, "
          f"{rep['units_run']} units")
        p(f"{'(img/s by wall time)':<22} {rep['wall_img_per_s']:>12.6g} img/s, host steal "
          f"included; the metrics above are CPU time of the workload process")
    for name, val in rep["quality"].items():
        if name != "csv_sha256":
            p(f"{name:<22} {val:>12.6f} ratio" if name != "final_loss"
              else f"{name:<22} {val:>12.6f} loss")
    p(f"{'ops_failed_frac':<22} {rep['ops_failed_frac']:>12.6g} ratio "
      f"({rep['failed']} of {rep['attempted']} units)")
    if "layers" in rep:
        import tracer as tr

        p(f"{'trace_overhead_s':<22} {rep['trace_overhead_s']:>12.4f} s "
          f"({rep['trace_overhead_pct']:.1f}% of the median untraced unit)")
        p("# per-layer metrics (traced unit; per step on train, per image on eval)")
        absent = tr.EXPECTED_ABSENT[rep["workload"]]
        for name, unit in tr.LAYER_METRICS:
            note = " (expected absent)" if name in absent else ""
            p(f"{name:<36} {rep['layers'][name]:>12.6g} {unit}{note}")
        p("# self time by span, largest first (ms per unit, share of the traced unit)")
        for name, ms, share in rep["self_time"][:15]:
            p(f"{name:<36} {ms:>12.4f} ms {100 * share:6.2f}%")
        if rep["missing_spans"]:
            p("! spans that should have fired but did not: " + ", ".join(rep["missing_spans"]))
        if rep["unexpected_spans"]:
            p("! spans expected absent that fired: " + ", ".join(rep["unexpected_spans"]))


def save_report(rep):
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{rep['workload']}-seed{rep['seed']}-trace{rep['trace']}.json"
    path.write_text(json.dumps(rep, indent=1), encoding="utf-8")
    return path


def final_line(rep, spec):
    """The JSON line: the end-to-end metrics, or in a traced run the
    per-layer metrics that BENCHMARK.json lists."""
    metrics = {}
    for name, unit in spec[rep["trace"]].items():
        val = rep["metrics"].get(name)
        if val is not None:
            metrics[name] = {"value": val, "unit": unit}
    return json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                       "failed": rep["failed"], "metrics": metrics})


def self_test(spec):
    """Fault injection into the harness's own stamp wrapper: the failure
    must be counted in ops_failed_frac and the harness must still report."""
    cases = [
        # (workload, fault at call n, expected failed units: the n - 1
        # stamped calls before the fault finished)
        ("train-a6", "raise@3", lambda planned: planned - 2),
        ("train-u0-sdf64", "exit@2", lambda planned: planned - 1),
        ("eval-a6", "raise@5", lambda planned: planned - 4),
    ]
    ok_all = True
    for workload, fault, expect in cases:
        rep = run_workload(workload, 0, 1, 0, scale="small", inject=fault)
        planned = rep["attempted"]
        line = final_line(rep, spec)
        ok = (rep["failed"] == expect(planned) and rep["failed"] > 0
              and not rep["correct"] and json.loads(line)["failed"] == rep["failed"])
        ok_all &= ok
        print(f"self-test {'PASS' if ok else 'FAIL'}: {workload} fault {fault}: "
              f"ops_failed_frac={rep['ops_failed_frac']:.4f} "
              f"({rep['failed']} of {planned}), errors={rep['errors']}")
    return 0 if ok_all else 1


def main(argv=None):
    workloads, spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check failure accounting by injecting faults into the harness")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crispdec" / "__init__.py").is_file():
        print(f"error: no crispdec source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(spec)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    start = time.monotonic()
    rep = run_workload(args.workload, args.seed, args.seconds, args.trace)
    rep["harness_wall_s"] = time.monotonic() - start
    print_report(rep, spec)
    path = save_report(rep)
    print(f"# full report: {path.relative_to(ROOT)}")
    print(final_line(rep, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
