"""The representative experiment configs in the README run as written."""

import datetime
import json
import re
from pathlib import Path

import numpy as np
import pytest

from arrr.cli import EXPERIMENTS, main

README = Path(__file__).resolve().parent.parent / "README.md"


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
