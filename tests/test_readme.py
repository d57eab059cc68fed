"""The representative experiment configs in the README run as written."""

import datetime
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arrr
from arrr.cli import EXPERIMENTS, main

README = Path(__file__).resolve().parent.parent / "README.md"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _readme_configs():
    """{kind: config} from each `// <kind>: ...` block of the README's jsonc
    fence, the block's other comment lines dropped."""
    fence = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S).group(1)
    blocks = re.split(r"^// (\w+):.*\n", fence, flags=re.M)[1:]
    return {kind: json.loads(re.sub(r"^//.*\n", "", block, flags=re.M))
            for kind, block in zip(blocks[::2], blocks[1::2])}


CONFIGS = _readme_configs()


def _write_returns(path, t=160, assets=4):
    """A daily panel of returns that follow their own previous day a little."""
    rng = np.random.default_rng(0)
    r = rng.standard_normal((t, assets))
    for i in range(1, t):
        r[i] += 0.3 * r[i - 1]
    day = datetime.date(2020, 1, 1)
    lines = ["date," + ",".join("A%d" % j for j in range(assets))]
    lines += ["%s,%s" % (day + datetime.timedelta(days=i), ",".join("%.6f" % v for v in row))
              for i, row in enumerate(r)]
    path.write_text("\n".join(lines) + "\n")


def test_every_experiment_has_a_config():
    assert sorted(CONFIGS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_config_runs(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARRR_SEED", raising=False)
    cfg = CONFIGS[kind]
    if kind == "rolling":
        _write_returns(tmp_path / cfg["panel"])
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([kind, "--config", "cfg.json", "--out", "out"]) == 0
    assert (tmp_path / "out" / ("report.json" if kind == "packing" else "results.csv")).is_file()


def _child_env(**blas):
    """This process's environment without ARRR_SEED or the BLAS thread
    variables, which importing arrr.cli set here, plus `blas`."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS + ("ARRR_SEED",)}
    env.update(blas, PYTHONPATH=os.path.dirname(os.path.dirname(arrr.__file__)))
    return env


@pytest.mark.parametrize("kind", ["sweep", "compare"])
def test_blas_runs_on_one_thread_unless_set(kind, tmp_path):
    """With the thread variables unset, the CLI writes the bytes of a run
    pinned to one BLAS thread, whatever the core count."""
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIGS[kind]))
    outputs = []
    for name, env in (("unset", _child_env()),
                      ("one", _child_env(**dict.fromkeys(BLAS_THREAD_VARS, "1")))):
        run = subprocess.run([sys.executable, "-m", "arrr.cli", kind, "--config", "cfg.json",
                              "--out", name], cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_thread_count_the_user_sets_is_kept():
    code = "import json, os, arrr.cli; print(json.dumps([os.environ[v] for v in %r]))" % (
        BLAS_THREAD_VARS,)
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(OPENBLAS_NUM_THREADS="2"),
                         capture_output=True, text=True, timeout=120)
    assert json.loads(run.stdout) == ["2", "1", "1"]
