"""Peak memory of each CLI call of a perfbench workload.

Each call of the workload, as perfbench/workloads.py defines it at full size,
runs in a fresh interpreter the way perfbench/worker.py runs it: `import
arrr.cli`, the calibration kernel of perfbench/calibrate.py, then
`arrr.cli.main`, in the environment perfbench gives its workers (one BLAS
thread). Every call runs twice:
- untraced, for its ru_maxrss, the figure whose largest value over a pass
  perfbench reports as peak_rss_mb;
- under tracemalloc, for the peak of the memory Python allocated during
  `main`. tracemalloc's own records would inflate ru_maxrss, hence the
  second run.
The script prints both per call and names the call with the largest
ru_maxrss, the one that sets the workload's peak_rss_mb.

Run from the repository root:

    python tools/peak_memory.py WORKLOAD [--seed N]
"""

from __future__ import annotations

# the replaying child imports what perfbench/worker.py imports before its
# call, and tracemalloc only when it traces
import contextlib
import io
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def replay(job_path: str) -> int:
    """Run the job's one CLI call in this interpreter and write its memory
    figures to the job's result path. Imports follow perfbench/worker.py's
    order, so the process holds what a worker holds."""
    import arrr.cli

    sys.path.insert(0, PERFBENCH)
    from calibrate import calibrate

    with open(job_path) as f:
        job = json.load(f)
    calibrate()
    if job["traced"]:
        import tracemalloc

        tracemalloc.start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = arrr.cli.main(job["argv"])
    result = {"rc": rc, "output": out.getvalue()[-2000:],
              "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if job["traced"]:
        result["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


def run_call(argv, traced: bool, inputs: str, scratch: str, env) -> dict:
    import subprocess

    job, result = os.path.join(scratch, "job.json"), os.path.join(scratch, "result.json")
    with open(job, "w") as f:
        json.dump({"argv": argv, "traced": traced, "result": result}, f)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--replay", job],
                   cwd=inputs, env=env, check=True)
    with open(result) as f:
        return json.load(f)


def main(argv) -> int:
    import argparse
    import tempfile

    sys.path.insert(0, PERFBENCH)
    import run
    import workloads

    ap = argparse.ArgumentParser(description="Peak memory of each CLI call of a workload.")
    ap.add_argument("workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    env = run._worker_env()
    failed, rows = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = os.path.join(tmp, "inputs"), os.path.join(tmp, "out")
        os.makedirs(inputs)
        os.makedirs(out)
        for name, text in wl.files.items():
            with open(os.path.join(inputs, name), "w") as f:
                f.write(text)
        print("%s, seed %d: %d calls, each in a fresh interpreter"
              % (args.workload, args.seed, len(wl.invocations)))
        print("%-12s %14s %22s" % ("call", "ru_maxrss MB", "tracemalloc peak MB"))
        for inv in wl.invocations:
            call = [a.replace("{out}", out) for a in inv.argv]
            plain = run_call(call, False, inputs, tmp, env)
            traced = run_call(call, True, inputs, tmp, env)
            for res in (plain, traced):
                if res["rc"] != 0:
                    failed += 1
                    print("%s exited %s: %s" % (inv.name, res["rc"], res["output"]),
                          file=sys.stderr)
            rows.append((plain["ru_maxrss_mb"], inv.name))
            print("%-12s %14.2f %22.3f" % (inv.name, plain["ru_maxrss_mb"],
                                           traced["traced_peak_mb"]))
    top, name = max(rows)
    print("largest ru_maxrss: %s, %.2f MB" % (name, top))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--replay":
        sys.exit(replay(sys.argv[2]))
    sys.exit(main(sys.argv[1:]))
