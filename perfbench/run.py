"""Experiment-throughput benchmark for the `arrr` CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each pass executes the workload's CLI
invocations, every invocation in its own freshly started worker process with
one BLAS thread, one worker at a time. Passes repeat until --seconds is used
up (at least one, two in a traced run). Call and start-up times are scaled
to reference seconds by the kernel of calibrate.py, timed in every worker.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. The full record (environment, every pass, every problem found) goes
to .perfbench_runs/<workload>-s<seed>-t<trace>/result.json. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
REFERENCE = os.path.join(HERE, "reference")

MAX_PASSES = 200
SETUP_PROBES = 3          # import-only workers that sample setup_s
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = "1"

END_TO_END_UNITS = {"cells_per_s": "cells/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    names = list(spans.pass_metrics([])[0]) + ["trace.overhead_ratio"]
    unit = {}
    for n in names:
        if n.endswith("_s"):
            unit[n] = "s"
        elif n.endswith(".bytes"):
            unit[n] = "bytes"
        elif n == "spectral.svd_flops":
            unit[n] = "flop-computed"
        elif n.endswith(("_ratio", "_share", "_per_selection")):
            unit[n] = "ratio"
        else:
            unit[n] = "count"
    return unit


# ------------------------------------------------------------ environment


def environment(seed: int) -> Dict[str, object]:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "arrr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ------------------------------------------------------------ workers


def ref_setup_s(res: Dict[str, object]) -> float:
    """A worker's start-up time in reference seconds (see calibrate.py)."""
    return res["setup_s"] * calibrate.REFERENCE_S / res["calib_before_s"]


def ref_wall_s(res: Dict[str, object]) -> float:
    """A call's wall time in reference seconds: scaled by the kernel times
    measured just before and just after it; 0 for a call that did not run."""
    if "wall_s" not in res:
        return 0.0
    calib = (res["calib_before_s"] + res["calib_after_s"]) / 2
    return res["wall_s"] * calibrate.REFERENCE_S / calib


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("ARRR_SEED", None)  # it would override the generated seeds
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def run_worker(argv: Optional[List[str]], trace: bool, cwd: str, job_dir: str,
               env: Dict[str, str]) -> Dict[str, object]:
    """Start one worker, wait for it, and return its result record."""
    os.makedirs(job_dir, exist_ok=True)
    job = os.path.join(job_dir, "job.json")
    result_path = os.path.join(job_dir, "result.json")
    with open(job, "w") as f:
        json.dump({"argv": argv, "trace": trace, "result": result_path}, f)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), job]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(spawn)], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return {"ok": False, "problem": "worker timed out after %.0f s" % WORKER_TIMEOUT_S}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"ok": False, "problem": "worker exited %d: %s" % (proc.returncode, err[-2000:])}
    with open(result_path) as f:
        res = json.load(f)
    res["ok"] = True
    if not res["arrr_file"].startswith(os.path.join(SRC, "arrr") + os.sep):
        res.update(ok=False, problem="imported arrr from %s, not %s" % (res["arrr_file"], SRC))
    elif argv is not None:
        if res["rc"] != 0:
            res.update(ok=False, problem="exit code %s: %s" % (res["rc"], res["stderr"][-2000:]))
        elif res["traceback"] or "Traceback" in res["stderr"]:
            res.update(ok=False, problem="traceback: %s"
                       % (res["traceback"] or res["stderr"])[-2000:])
    return res


def _digests(out_dir: str, inv: workloads.Invocation) -> Dict[str, str]:
    """SHA-256 of every file an invocation wrote, by path under the pass dir."""
    out = {}
    for rel in inv.outputs:
        base = os.path.join(out_dir, rel)
        paths = [base] if os.path.isfile(base) else [
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs]
        for p in sorted(paths):
            with open(p, "rb") as f:
                out[os.path.relpath(p, out_dir)] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_pass(wl: workloads.Workload, index: int, traced: bool, run_dir: str,
             env: Dict[str, str]) -> Dict[str, object]:
    out_dir = os.path.join(run_dir, "pass%03d" % index)
    os.makedirs(out_dir)
    inputs = os.path.join(run_dir, "inputs")
    record = {"index": index, "traced": traced, "invocations": []}
    started = time.monotonic()
    for inv in wl.invocations:
        argv = [a.replace("{out}", out_dir) for a in inv.argv]
        res = run_worker(argv, traced, inputs,
                         os.path.join(run_dir, "jobs", "p%03d-%s" % (index, inv.name)), env)
        res["name"] = inv.name
        if res["ok"]:
            res["digests"] = _digests(out_dir, inv)
        record["invocations"].append(res)
    record["elapsed_s"] = time.monotonic() - started
    record["out_dir"] = out_dir
    return record


# ------------------------------------------------------------ one run


def _owner(wl: workloads.Workload, problem: str) -> List[str]:
    """Invocations a check problem belongs to: by its "<name>:" prefix, else all."""
    names = [inv.name for inv in wl.invocations]
    head = problem.split(":", 1)[0]
    return [head] if head in names else names


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 write_reference: bool = False, perturb=None) -> Dict[str, object]:
    """Run one workload for `seconds` and return the full result record.

    `perturb(pass_dir)`, when given, edits the first pass's outputs before
    the checks run; the smoke test uses it to show the checks catch a change.
    """
    wl = workloads.build(name, seed, tiny)
    run_dir = os.path.join(RUNS, "%s-s%d-t%d%s" % (name, seed, int(trace), "-tiny" if tiny else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs)
    for fname, text in wl.files.items():
        with open(os.path.join(inputs, fname), "w") as f:
            f.write(text)
    env = _worker_env()
    problems: List[str] = []

    setup = []
    for i in range(SETUP_PROBES):
        res = run_worker(None, False, inputs, os.path.join(run_dir, "jobs", "probe%d" % i), env)
        if not res["ok"]:
            raise RuntimeError("setup probe failed: %s" % res["problem"])
        setup.append(ref_setup_s(res))

    # Determinism is checked between the passes of a run. A traced run always
    # has an untraced and a traced pass; an untraced run has a second pass when
    # the time allows it.
    passes: List[Dict[str, object]] = []
    deadline = time.monotonic() + seconds
    while len(passes) < MAX_PASSES:
        # untraced and traced passes alternate in a traced run
        traced = trace and len(passes) % 2 == 1
        rec = run_pass(wl, len(passes), traced, run_dir, env)
        passes.append(rec)
        if not all(r["ok"] for r in rec["invocations"]):
            break
        if len(passes) >= 1 + trace and time.monotonic() + rec["elapsed_s"] > deadline:
            break

    first = passes[0]
    if perturb is not None:
        perturb(first["out_dir"])
        for r, inv in zip(first["invocations"], wl.invocations):
            if r["ok"]:
                r["digests"] = _digests(first["out_dir"], inv)

    # exit codes, tracebacks, and byte identity with the first pass
    failed = set()
    for p in passes:
        for r, r0 in zip(p["invocations"], first["invocations"]):
            if not r["ok"]:
                failed.add((p["index"], r["name"]))
                problems.append("pass %d %s: %s" % (p["index"], r["name"], r["problem"]))
            elif r0["ok"] and r["digests"] != r0["digests"]:
                failed.add((p["index"], r["name"]))
                problems.append("pass %d %s: outputs differ from pass 0" % (p["index"], r["name"]))
            else:
                setup.append(ref_setup_s(r))

    # schema at every seed, committed reference values at the default seed;
    # passes are byte-identical, so a problem here fails that call in every pass
    if all(r["ok"] for r in first["invocations"]):
        found = list(wl.schema(first["out_dir"]))
        ref_path = os.path.join(REFERENCE, name + ".json")
        if not found and not tiny and seed == workloads.DEFAULT_SEED:
            try:
                record = wl.summarize(first["out_dir"])
            except (OSError, KeyError, ValueError) as exc:
                found.append("cannot read outputs: %r" % exc)
            else:
                if write_reference:
                    with open(ref_path, "w") as f:
                        json.dump(record, f, indent=0, sort_keys=True)
                        f.write("\n")
                else:
                    with open(ref_path) as f:
                        found += workloads.compare_records(json.load(f), record, wl.tolerance)
        for prob in found:
            problems.append("check: " + prob)
            failed.update((p["index"], owner) for p in passes for owner in _owner(wl, prob))
    attempted = sum(len(p["invocations"]) for p in passes)

    plain = [p for p in passes if not p["traced"]]
    raw_walls = [sum(r.get("wall_s", 0.0) for r in p["invocations"]) for p in plain]
    walls = [sum(ref_wall_s(r) for r in p["invocations"]) for p in plain]
    rates = [wl.cells / w for w in walls if w > 0]
    rss = [max(r.get("peak_rss_mb", 0.0) for r in p["invocations"]) for p in plain]
    metrics: Dict[str, float] = {}
    if trace:
        traced_passes = [p for p in passes if p["traced"]
                         and all(r["ok"] for r in p["invocations"])]
        layer_runs = []
        for p in traced_passes:
            m, bad = spans.pass_metrics([r["spans"] for r in p["invocations"]])
            layer_runs.append(m)
            problems += ["trace pass %d: %s" % (p["index"], b) for b in bad]
        if layer_runs and rates:
            metrics, bad = spans.combine(layer_runs)
            problems += bad
            twalls = [sum(ref_wall_s(r) for r in p["invocations"]) for p in traced_passes]
            metrics["trace.overhead_ratio"] = (statistics.median(twalls) / statistics.median(walls))
        else:
            problems.append("no complete traced and untraced pass")
    elif rates:
        metrics = {
            "cells_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "tiny": tiny,
        "environment": environment(seed),
        "cells_per_pass": wl.cells,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "pass_wall_s": raw_walls,
        "pass_ref_s": walls,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": len(failed),
        "problems": problems,
        "correct": not problems and not failed and bool(metrics),
        "metrics": metrics,
    }


# ------------------------------------------------------------ reporting


def _result_line(res: Dict[str, object], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    })


def report(res: Dict[str, object], units: Dict[str, str]) -> None:
    env = res["environment"]
    print("== %s  seed %d  trace %d  (%s, nproc %s, %s %s, BLAS threads %s, numpy %s, "
          "python %s, commit %s, src %s)" % (
              res["workload"], res["seed"], res["trace"], env["cpu_model"], env["nproc"],
              env["blas"].get("name"), env["blas"].get("version"), env["blas_threads"],
              env["numpy"], env["python"], env["git_commit"], env["src_sha256"]))
    print("   %d passes (%d traced) of %d cells; untraced pass wall %s s, in reference s %s"
          % (res["passes"], res["traced_passes"], res["cells_per_pass"],
             ", ".join("%.3f" % w for w in res["pass_wall_s"]),
             ", ".join("%.3f" % w for w in res["pass_ref_s"])))
    for k, v in res["metrics"].items():
        print("   %-40s %16.6g %s" % (k, v, units[k]))
    print("   %-40s %16.6g failed/attempted (base %d invocations)" % (
        "failed_ratio", res["failed"] / max(res["attempted"], 1), res["attempted"]))
    for prob in res["problems"][:20]:
        print("   PROBLEM " + prob)
    print("   correct: %s" % res["correct"])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed outputs as the new reference")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arrr", "cli.py")):
        print("error: %s/arrr not found; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        print("error: references are stored for --seed %d only" % workloads.DEFAULT_SEED,
              file=sys.stderr)
        return 2

    units = dict(END_TO_END_UNITS, **per_layer_units())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           write_reference=args.write_reference)
        with open(os.path.join(RUNS, "%s-s%d-t%d" % (name, args.seed, args.trace),
                               "result.json"), "w") as f:
            json.dump(res, f, indent=1)
        report(res, units)
        results.append(res)
    if len(results) == 1:
        print(_result_line(results[0], units))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
