"""Run one `arrr` CLI invocation in a fresh interpreter and report on it.

    python3 worker.py <job.json> <spawn_time>

<spawn_time> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so the worker can
measure its own start-up. The job names the argv (null for a start-up probe
that only imports), whether to trace, and where to write the result JSON.
The worker times the kernel of calibrate.py after start-up and again after
the call, so run.py can express both in reference seconds.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    job_path, spawn_t = sys.argv[1], float(sys.argv[2])
    import arrr.cli

    ready = time.monotonic()
    from calibrate import calibrate

    with open(job_path) as f:
        job = json.load(f)
    result = {"setup_s": ready - spawn_t, "calib_before_s": calibrate(),
              "arrr_file": os.path.abspath(arrr.cli.__file__)}
    if job["argv"] is not None:
        recorder = None
        if job["trace"]:
            import spans

            recorder = spans.install()
        out, err = io.StringIO(), io.StringIO()
        tb = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = arrr.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, tb = 1, traceback.format_exc()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=cpu,
            calib_after_s=calibrate(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            stdout=out.getvalue(),
            stderr=err.getvalue(),
            traceback=tb,
            spans=recorder.spans if recorder else None,
        )
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
