"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs traced and untraced and must emit exactly the metrics that
BENCHMARK.json names; the output check must catch a perturbed output; the
tracing coverage guard must refuse a missing or unwrapped function.
"""

import copy
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(name, trace):
    res = run.run_workload(name, seed=3, seconds=10.0, trace=trace, tiny=True)
    assert res["correct"], res["problems"]
    assert res["failed"] == 0 and res["passes"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in wanted)
    units = dict(run.END_TO_END_UNITS, **run.per_layer_units())
    assert all(units[m["name"]] == m["unit"] for m in wanted)
    line = json.loads(run._result_line(res, units))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        assert a.files == b.files and a.cells == b.cells
        assert a.files != workloads.build(name, 6).files


def test_perturbed_output_fails_the_check():
    def flip(pass_dir):
        path = glob.glob(os.path.join(pass_dir, "sweep", "*", "results.csv"))[0]
        with open(path) as f:
            lines = f.read().split("\n")
        lines[1] = lines[1][:-1] + ("1" if lines[1][-1] == "0" else "0")
        with open(path, "w") as f:
            f.write("\n".join(lines))

    res = run.run_workload("sweep-rankpath", seed=3, seconds=3.0, trace=False,
                           tiny=True, perturb=flip)
    assert not res["correct"]
    assert res["failed"] >= 1


def test_reference_tolerances():
    wl = workloads.build("compare-solvers", workloads.DEFAULT_SEED)
    with open(os.path.join(run.REFERENCE, "compare-solvers.json")) as f:
        ref = json.load(f)
    assert workloads.compare_records(ref, ref, wl.tolerance) == []

    def changed(key, factor):
        got = copy.deepcopy(ref)
        got[key] = got[key] * factor
        return workloads.compare_records(ref, got, wl.tolerance)

    direct = next(k for k in ref if k.startswith("ridge|") and k.endswith(":mse_out"))
    iterative = next(k for k in ref if k.startswith("nuclear|") and k.endswith(":mse_out"))
    selection = next(k for k in ref if k.startswith("lasso|") and k.endswith(":mu"))
    assert changed(direct, 1 + 1e-6)
    assert not changed(iterative, 1 + 1e-4)
    assert changed(iterative, 1 + 1e-1)
    assert changed(selection, 10.0)
    got = dict(ref)
    del got[direct]
    assert workloads.compare_records(ref, got, wl.tolerance)


def test_calibration_scales_wall_time_and_skips_arrr():
    code = "import sys, calibrate; calibrate.calibrate(); print('arrr' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
    ref = run.calibrate.REFERENCE_S
    slow = {"wall_s": 3.0, "calib_before_s": 2 * ref, "calib_after_s": 4 * ref, "setup_s": 0.4}
    assert run.ref_wall_s(slow) == pytest.approx(1.0)
    assert run.ref_setup_s(slow) == pytest.approx(0.2)
    assert run.ref_wall_s({"ok": False}) == 0.0


@pytest.mark.parametrize("sabotage", [
    "del arrr.spectral.truncate_rank",
    "arrr.cli.STAGES = (arrr.estimator.step1_pca_x,)",
])
def test_coverage_guard_refuses_gaps(sabotage):
    code = ("import sys; sys.path[:0] = [%r, %r]; import arrr.cli, arrr.estimator, "
            "arrr.spectral; %s; import spans; spans.install()"
            % (HERE, run.SRC, sabotage))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "CoverageError" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "oneshot-io", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
