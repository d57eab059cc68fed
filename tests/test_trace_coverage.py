"""perfbench's tracer still covers the package.

`perfbench/spans.py` wraps the functions it lists at every binding in `arrr`
and raises CoverageError when one is missing or escapes wrapping. This runs
a tiny sweep and a tiny rolling run under it in a fresh interpreter, so a
change that renames, aliases or stops calling a traced function fails here,
in tier-1. Both paths call the traced stages from one driver,
`estimator._stages`, through their module bindings. The sweep scores through
`estimator.rank_path_scores`, which runs stage 1 once per k1 (its configs
share one delta) and never stage 2; the rolling run fits its one fold through
`fit_path`, which runs stage 1 once per delta and stage 2 once per candidate.
"""

import json
import os
import subprocess
import sys

import numpy as np

import arrr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(arrr.__file__)))

K1, K2 = [4], [1, 2]
# every delta finds a gap on the one fold; each delta is paired with each
# theta, so two candidates share a (delta, k1 override)
DELTAS, THETAS = [1e-3, 1e-2], [1.5, 2.5]

SCRIPT = """
import json, os, sys, tempfile
sys.path[:0] = [%(perfbench)r, %(src)r]
import spans
rec = spans.install()
import arrr.cli
got = {}
with tempfile.TemporaryDirectory() as d:
    runs = {"sweep": {"synth": {"d1": 12, "d2": 6, "n": 10, "rank_m": 2, "eta": 0.5,
                                "seed": 0},
                      "grids": {"k1": %(k1)r, "k2": %(k2)r, "seeds": [0]},
                      "fit": {"sigma_eps": "oracle"}},
            "rolling": {"panel": %(panel)r, "features": {"lookbacks": [1, 2], "horizon": 1},
                        "splits": {"train_len": 10, "valid_len": 4, "test_len": 4},
                        "fit": {"delta": %(deltas)r, "theta": %(thetas)r}}}
    for kind, cfg in runs.items():
        path = os.path.join(d, kind + ".json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        rc = arrr.cli.main([kind, "--config", path, "--out", os.path.join(d, kind)])
        metrics, problems = spans.pass_metrics([rec.spans])
        got[kind] = {"rc": rc, "problems": problems,
                     "stage1": metrics["estimator.stage1.calls"],
                     "stage2": metrics["estimator.stage2.calls"]}
        rec.spans.clear()
print(json.dumps(got))
"""


def test_a_traced_sweep_is_fully_covered(tmp_path):
    panel = tmp_path / "panel.csv"  # 20 dates of 3 assets make one fold
    rets = np.random.default_rng(0).normal(size=(20, 3))
    panel.write_text("date,A0,A1,A2\n" + "".join(
        "2020-01-%02d,%s\n" % (i + 1, ",".join("%.6f" % v for v in r))
        for i, r in enumerate(rets)))
    code = SCRIPT % {"perfbench": PERFBENCH, "src": SRC, "k1": K1, "k2": K2,
                     "deltas": DELTAS, "thetas": THETAS, "panel": str(panel)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert "CoverageError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    candidates = len(DELTAS) * len(THETAS)
    assert got == {
        "sweep": {"rc": 0, "problems": [], "stage1": len(K1), "stage2": 0},
        "rolling": {"rc": 0, "problems": [], "stage1": len(DELTAS), "stage2": candidates},
    }
