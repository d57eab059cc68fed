"""perfbench's tracer still covers the package.

`perfbench/spans.py` wraps the functions it lists at every binding in `arrr`
and raises CoverageError when one is missing or escapes wrapping. This runs
a tiny sweep under it in a fresh interpreter, so a change that renames,
aliases or stops calling a traced function fails here, in tier-1.
"""

import json
import os
import subprocess
import sys

import arrr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(arrr.__file__)))

K1, K2 = [4], [1, 2]

SCRIPT = """
import json, os, sys, tempfile
sys.path[:0] = [%(perfbench)r, %(src)r]
import spans
rec = spans.install()
import arrr.cli
with tempfile.TemporaryDirectory() as d:
    cfg = os.path.join(d, "sweep.json")
    with open(cfg, "w") as f:
        json.dump({"synth": {"d1": 12, "d2": 6, "n": 10, "rank_m": 2, "eta": 0.5, "seed": 0},
                   "grids": {"k1": %(k1)r, "k2": %(k2)r, "seeds": [0]},
                   "fit": {"sigma_eps": "oracle"}}, f)
    rc = arrr.cli.main(["sweep", "--config", cfg, "--out", os.path.join(d, "out")])
metrics, problems = spans.pass_metrics([rec.spans])
print(json.dumps({"rc": rc, "problems": problems,
                  "stage1": metrics["estimator.stage1.calls"],
                  "stage2": metrics["estimator.stage2.calls"]}))
"""


def test_a_traced_sweep_is_fully_covered():
    code = SCRIPT % {"perfbench": PERFBENCH, "src": SRC, "k1": K1, "k2": K2}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert "CoverageError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    configs = len(K1) * len(K2)
    assert got == {"rc": 0, "problems": [], "stage1": configs, "stage2": configs}
