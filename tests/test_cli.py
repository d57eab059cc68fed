import concurrent.futures
import contextlib
import csv
import filecmp
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import arrr
import arrr.cli as cli
from arrr import baselines, dataio, estimator, metrics, packing, synth
from arrr.baselines import BaselineSpec, validate_hyperparams, validation_window
from arrr._serde import fmt_float, read_matrix_csv, write_json, write_matrix_csv
from arrr.cli import (
    EXPERIMENTS,
    TEST_STREAM,
    VALID_STREAM,
    config_hash,
    derived_seed,
    main,
    write_results,
)
from arrr.estimator import (
    FitConfig,
    FittedModel,
    NoGapError,
    fit_adaptive_rrr,
    fit_path,
    load_model,
    predict,
    save_model,
)
from arrr.spectral import NumericalFailure, decompose
from arrr.synth import SynthConfig, gen_dataset, make_instance

SWEEP_HEADER, COMPARE_HEADER, ROLLING_HEADER = (
    EXPERIMENTS[kind].header for kind in ("sweep", "compare", "rolling"))


def _write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _write_panel(tmp_path):
    """A 20-date, 3-asset panel of standard normal returns."""
    rng = np.random.default_rng(0)
    t, assets = 20, 3
    lines = ["date," + ",".join("A%d" % j for j in range(assets))]
    vals = rng.normal(size=(t, assets))
    for i in range(t):
        lines.append("2020-01-%02d," % (i + 1)
                     + ",".join("%.6f" % v for v in vals[i]))
    p = tmp_path / "panel.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


# every baseline method, each with a grid; valid for the compare cell of
# TestCompare and the rolling folds of TestRolling
_ALL_BASELINES = [{"method": "ridge", "mu": [0.1, 1.0]},
                  {"method": "rrr", "rank": [1, 2]},
                  {"method": "pcr", "rank": [2]},
                  {"method": "reduced_rank_ridge", "mu": 1.0, "rank": 2},
                  {"method": "lasso", "mu": [0.3, 1.0]},
                  {"method": "nuclear", "mu": [0.3, 1.0]}]


def _sweep_cfg(**over):
    cfg = {
        "kind": "sweep",
        "synth": {"d1": 20, "d2": 8, "n": 25, "rank_m": 3, "eta": 0.5, "seed": 0},
        "grids": {"k1": [5], "k2": [2], "seeds": [0]},
    }
    cfg.update(over)
    return cfg


class TestFitPredictSynth:
    def test_full_round_trip(self, tmp_path):
        synth_dir = str(tmp_path / "data")
        assert main(["synth", "--d1", "12", "--d2", "6", "--n", "40",
                     "--rank", "2", "--eta", "0", "--seed", "3",
                     "--out", synth_dir]) == 0
        model_dir = str(tmp_path / "model")
        assert main(["fit", "--x", os.path.join(synth_dir, "x.csv"),
                     "--y", os.path.join(synth_dir, "y.csv"),
                     "--sigma", "1.0", "--k1", "12", "--k2", "2",
                     "--out", model_dir]) == 0
        pred_path = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model_dir,
                     "--x", os.path.join(synth_dir, "x.csv"),
                     "--out", pred_path]) == 0
        y_hat = read_matrix_csv(pred_path)
        y = read_matrix_csv(os.path.join(synth_dir, "y.csv"))
        # noiseless instance: the two-stage fit reproduces the responses
        np.testing.assert_allclose(y_hat, y, atol=1e-6)
        model = load_model(model_dir)
        np.testing.assert_allclose(
            y_hat, predict(model, read_matrix_csv(os.path.join(synth_dir, "x.csv"))))

    def test_synth_env_seed_override(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a")
        monkeypatch.setenv("ARRR_SEED", "7")
        assert main(["synth", "--d1", "8", "--d2", "4", "--n", "10",
                     "--rank", "2", "--seed", "0", "--out", a]) == 0
        monkeypatch.delenv("ARRR_SEED")
        b = str(tmp_path / "b")
        assert main(["synth", "--d1", "8", "--d2", "4", "--n", "10",
                     "--rank", "2", "--seed", "7", "--out", b]) == 0
        np.testing.assert_array_equal(
            read_matrix_csv(os.path.join(a, "x.csv")),
            read_matrix_csv(os.path.join(b, "x.csv")))
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        assert meta["seed"] == 7

    def test_env_seed_leading_zeros_do_not_count(self, monkeypatch):
        # int() alone refuses a string of more than 4300 digits
        monkeypatch.setenv("ARRR_SEED", "0" * 5000 + "7")
        assert cli._env_seed() == 7

    @pytest.mark.parametrize("scale", [1.0, 1e12, 1e14, 1e16])
    def test_fit_picks_k1_within_the_numerical_rank_at_any_scale(self, tmp_path, scale):
        # the fourth column is twice the first; at 1e16 its round-off
        # eigenvalue has a gap above the default delta
        a = np.random.default_rng(5).normal(size=(30, 3))
        paths = {"x": np.hstack([a, 2 * a[:, :1]]) * scale,
                 "y": np.random.default_rng(6).normal(size=(30, 2))}
        for name, m in paths.items():
            paths[name] = str(tmp_path / (name + ".csv"))
            write_matrix_csv(paths[name], m)
        out = tmp_path / "model"
        assert main(["fit", "--x", paths["x"], "--y", paths["y"], "--out", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["k1"] == 3

    def test_fit_rejects_bad_sigma(self, tmp_path):
        x = tmp_path / "x.csv"
        write_matrix_csv(str(x), np.eye(3))
        assert main(["fit", "--x", str(x), "--y", str(x),
                     "--sigma", "huge", "--out", str(tmp_path / "m")]) == 2

    def test_fit_has_no_seed_flag(self, tmp_path):
        paths = _matrix_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--x", paths["x"], "--y", paths["y"], "--seed", "1",
                  "--out", str(tmp_path / "m")])
        assert exc.value.code == 2

    def test_predict_missing_model_is_config_error(self, tmp_path):
        x = tmp_path / "x.csv"
        write_matrix_csv(str(x), np.eye(3))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(tmp_path / "nope"),
                     "--x", str(x), "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "error.json").exists()

    def test_predict_out_of_range_model_meta_is_config_error(self, tmp_path, capsys):
        paths = _matrix_files(tmp_path)
        meta_path = os.path.join(paths["model"], "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        # the model of _matrix_files has d2 4
        for change in ({"theta": -1.0}, {"k2": -1}, {"k2": 9999}, {"k2": 5}, {"n": -5},
                       {"n": 1}):
            with open(meta_path, "w") as f:
                json.dump(dict(meta, **change), f)
            out = tmp_path / "pred.csv"
            capsys.readouterr()
            assert main(["predict", "--model", paths["model"], "--x", paths["x"],
                         "--out", str(out)]) == 2, change
            assert not out.exists()
            assert not (tmp_path / "error.json").exists()
            err = capsys.readouterr().err
            if "theta" not in change:
                key = next(iter(change))
                assert err.startswith("error: %s: %s must be " % (meta_path, key)), err

    def test_predict_incomplete_model_is_config_error(self, tmp_path):
        x = tmp_path / "x.csv"
        write_matrix_csv(str(x), np.eye(3))
        (tmp_path / "model").mkdir()
        (tmp_path / "model" / "meta.json").write_text('{"k1": 1}')
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(tmp_path / "model"),
                     "--x", str(x), "--out", str(out)]) == 2
        assert not out.exists()


class TestSweep:
    def test_single_cell_single_row(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg())
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = _read_rows(os.path.join(out, "results.csv"))
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "adaptive_rrr"
        assert row["k1"] == "5" and row["k2"] == "2" and row["seed"] == "0"
        meta = json.loads(open(os.path.join(out, "meta.json")).read())
        assert row["config_hash"] == meta["config_hash"]
        assert len(row["config_hash"]) == 12

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
            grids={"k1": [3, 5], "k2": [1, 2], "seeds": [0, 1]}))
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["sweep", "--config", cfg, "--out", out1]) == 0
        assert main(["sweep", "--config", cfg, "--out", out2]) == 0
        assert filecmp.cmp(os.path.join(out1, "results.csv"),
                           os.path.join(out2, "results.csv"), shallow=False)

    def test_parallel_jobs_identical_output(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
            grids={"k1": [3, 5], "k2": [1, 2], "seeds": [0, 1]}))
        seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
        assert main(["sweep", "--config", cfg, "--out", seq]) == 0
        assert main(["sweep", "--config", cfg, "--out", par, "--jobs", "3"]) == 0
        assert filecmp.cmp(os.path.join(seq, "results.csv"),
                           os.path.join(par, "results.csv"), shallow=False)

    def test_row_order_lexicographic(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
            grids={"k1": [5, 3], "k2": [2, 1], "seeds": [1, 0]}))
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = _read_rows(os.path.join(out, "results.csv"))
        keys = [(r["method"], float(r["eta"]), int(r["k1"]), int(r["k2"]),
                 int(r["seed"])) for r in rows]
        assert keys == sorted(keys)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg())
        out = str(tmp_path / "out")
        monkeypatch.setenv("ARRR_SEED", "9")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = _read_rows(os.path.join(out, "results.csv"))
        assert [r["seed"] for r in rows] == ["9"]

    def test_grid_seeds_override_synth_seed(self, tmp_path):
        # grids.seeds gives every cell's seed; synth.seed is only range-checked,
        # so the rows match a config without it in every cell but config_hash,
        # which hashes the config as written
        lines = []
        for synth in (dict(_sweep_cfg()["synth"], seed=5),
                      {k: v for k, v in _sweep_cfg()["synth"].items() if k != "seed"}):
            cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
                synth=synth, grids={"k1": [5], "k2": [1, 2], "seeds": [0]}))
            out = str(tmp_path / ("out%d" % len(lines)))
            assert main(["sweep", "--config", cfg, "--out", out]) == 0
            with open(os.path.join(out, "results.csv"), "rb") as f:
                lines.append([line.split(b",", 1)[1] for line in f.read().splitlines()])
        assert lines[0] == lines[1]

    def test_out_of_range_grid_rejected(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
            grids={"k1": [21], "k2": [2], "seeds": [0]}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def _reference_csv(cfg, path):
        """results.csv from one independent fit and evaluate per cell."""
        rows = []
        for seed in cfg["grids"]["seeds"]:
            syn = SynthConfig(**dict(cfg["synth"], seed=seed))
            inst = make_instance(syn)
            x_te, y_te, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star, syn.n,
                                        syn.eta, derived_seed(seed, TEST_STREAM))
            for k1 in cfg["grids"]["k1"]:
                for k2 in cfg["grids"]["k2"]:
                    model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(
                        sigma_eps=max(inst.sigma_noise, np.finfo(float).tiny),
                        k1_override=k1, k2_override=k2))
                    rep = metrics.evaluate(model, x_te, y_te, m_true=inst.m)
                    rows.append({"config_hash": config_hash(cfg), "method": "adaptive_rrr",
                                 "eta": syn.eta, "k1": k1, "k2": k2, "seed": seed,
                                 "recon_error": rep.recon_error, "mse_out": rep.mse_out,
                                 "corr_out": rep.corr_out})
        os.makedirs(path)
        return write_results(path, SWEEP_HEADER, rows, ("method", "eta", "k1", "k2", "seed"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_seed_path_matches_per_cell_reference(self, tmp_path, jobs):
        # the rank path sums the same rank-one terms in another order, so the
        # scores agree with separate fits up to rounding; the keys exactly
        payload = _sweep_cfg(grids={"k1": [4, 7], "k2": [0, 2, 3], "seeds": [0, 1, 5]})
        cfg = _write_json(tmp_path, "cfg.json", payload)
        out, other = str(tmp_path / "out"), str(tmp_path / "other")
        assert main(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
        got = _read_rows(os.path.join(out, "results.csv"))
        want = _read_rows(self._reference_csv(payload, str(tmp_path / "ref")))
        scores = ("recon_error", "mse_out", "corr_out")
        assert [{k: r[k] for k in SWEEP_HEADER if k not in scores} for r in got] == [
            {k: r[k] for k in SWEEP_HEADER if k not in scores} for r in want]
        np.testing.assert_allclose([[float(r[k]) for k in scores] for r in got],
                                   [[float(r[k]) for k in scores] for r in want],
                                   rtol=1e-12, atol=0, equal_nan=True)
        assert main(["sweep", "--config", cfg, "--out", other,
                     "--jobs", {"1": "2", "2": "1"}[jobs]]) == 0
        assert filecmp.cmp(os.path.join(out, "results.csv"),
                           os.path.join(other, "results.csv"), shallow=False)

    def test_a_cells_bytes_do_not_depend_on_the_other_k2(self, tmp_path):
        # each k1's scores are prefix sums over all of its directions, so a
        # k2 = 3 row reads the same alone as among k2 = 0 and 5
        lines = {}
        for k2s in ([3], [0, 3, 5]):
            cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
                grids={"k1": [5, 7], "k2": k2s, "seeds": [0, 2]}))
            out = str(tmp_path / str(len(k2s)))
            assert main(["sweep", "--config", cfg, "--out", out]) == 0
            with open(os.path.join(out, "results.csv")) as f:
                # all but the config hash, which differs with the grid
                lines[len(k2s)] = [line.split(",", 1)[1] for line in f.read().splitlines()]
        assert len(lines[1]) == 5 and lines[1][0].startswith("method,")
        assert lines[1] == [line for line in lines[3] if line.split(",")[3] in ("k2", "3")]

    def test_a_sweep_cell_stays_within_its_memory_budget(self):
        # one cell of sweep-rankpath (d1 200, d2 100, n 150, rank 50; k1 100
        # and 150, k2 30 to 70). tracemalloc's peak of a warm call was
        # 3,893,046 bytes while the rank path kept every k1's factors and the
        # cell its instance, and 2,545,142 bytes once each array is released
        # after its last read (numpy 2.4.6)
        syn = SynthConfig(d1=200, d2=100, n=150, rank_m=50, eta=0.25, seed=0)
        fit = cli._fit_section({"fit": {"theta": 2.0, "sigma_eps": "oracle"}},
                               default_sigma="oracle")
        args = (fit, [100, 150], list(range(30, 71, 5)), syn)
        cli._sweep_cell(args)  # the first call's one-time allocations
        tracemalloc.start()
        try:
            cli._sweep_cell(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_200_000

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_k2_in_multi_seed_sweep_writes_nothing(self, tmp_path, jobs, capsys):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(
            grids={"k1": [3, 5], "k2": [1, 4], "seeds": [0, 1, 2]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "k2 override 4" in err and "Traceback" not in err


class TestConfigErrors:
    def test_malformed_json_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "sweep", }', "Expecting property name"),
        ("[1]", "the root must be a JSON object")], ids=["unparseable", "list_root"])
    @pytest.mark.parametrize("command", ["sweep", "predict"])
    def test_malformed_json_names_the_file(self, command, text, message, tmp_path, capsys):
        paths = _matrix_files(tmp_path)
        if command == "sweep":
            bad = tmp_path / "bad.json"
            argv = ["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]
        else:  # the model's meta.json
            bad = pathlib.Path(paths["model"]) / "meta.json"
            argv = ["predict", "--model", paths["model"], "--x", paths["x"],
                    "--out", str(tmp_path / "out")]
        bad.write_text(text)
        capsys.readouterr()
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.startswith("error: %s: %s" % (bad, message))

    def test_kind_mismatch(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg())
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_section(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "sweep"})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestNumericalFailure:
    def test_no_gap_writes_error_json(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "compare",
            "synth": {"d1": 20, "d2": 8, "n": 25, "rank_m": 3, "eta": 0.5,
                      "seed": 0},
            "grids": {"eta": [0.5], "seeds": [0]},
            "fit": {"delta": 100.0},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "NoGapError"
        assert "message" in err

    def test_packing_infeasible_reports_cost(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "packing",
            "packing": {"d": 64, "rho": 0.0158, "sigma_eps": 1.0,
                        "n_samples": 100, "k_patterns": 1, "s_size": 2,
                        "seed": 0},
        })
        out = tmp_path / "out"
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "PackingInfeasibleError"
        assert "achieved_cost" in err

    def test_fill_infeasible_reports_tail_mass(self, tmp_path, monkeypatch):
        calibrated = packing.calibrate_fill_constants
        # no draw has a negative tail mass, so the first fill column exhausts
        # its retry budget
        monkeypatch.setattr(packing, "calibrate_fill_constants",
                            lambda subset_size: (calibrated(subset_size)[0], -1.0))
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "packing", "packing": _SMALL_PACKING})
        out = tmp_path / "out"
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 3
        assert sorted(os.listdir(out)) == ["error.json"]
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "FillInfeasibleError"
        assert 0 <= err["tail_mass"] <= 1

    def test_error_json_holds_the_exceptions_numeric_fields(self, tmp_path, monkeypatch):
        class Stalled(NumericalFailure, RuntimeError):
            def __init__(self, message):
                super().__init__(message)
                self.iterations, self.gap = 7, np.float64(0.5)
                self.label, self.converged = "prox", False

        def stall(params):
            raise Stalled("stalled")

        monkeypatch.setattr(packing, "build_family", stall)
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "packing", "packing": _SMALL_PACKING})
        out = tmp_path / "out"
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 3
        # numbers only: neither the string nor the bool is written
        assert json.loads((out / "error.json").read_text()) == {
            "error": "Stalled", "message": "stalled", "iterations": 7.0, "gap": 0.5}

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["fit", "predict", "compare"])
    def test_an_out_that_cannot_hold_error_json_exits_two(self, command, below, tmp_path,
                                                          capsys):
        # error.json's directory is an existing file, or a path below one
        paths = _matrix_files(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        err_dir = blocker / "sub" if below else blocker
        if command == "fit":
            argv = ["fit", "--x", paths["x"], "--y", paths["y"], "--delta", "100",
                    "--out", str(err_dir)]
        elif command == "predict":
            factor = pathlib.Path(paths["model"]) / "pi_hat.csv"
            text = factor.read_text()
            factor.write_text("nan" + text[text.index(","):])  # the first cell
            argv = ["predict", "--model", paths["model"], "--x", paths["x"],
                    "--out", str(err_dir / "pred.csv")]
        else:
            cfg = _write_json(tmp_path, "cfg.json", {
                "kind": "compare",
                "synth": {"d1": 20, "d2": 8, "n": 25, "rank_m": 3, "eta": 0.5, "seed": 0},
                "grids": {"eta": [0.5], "seeds": [0]},
                "fit": {"delta": 100.0},
            })
            argv = ["compare", "--config", cfg, "--out", str(err_dir)]
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "cannot write error.json" in err and str(blocker) in err
        assert "Traceback" not in err
        assert _tree(tmp_path) == before


class TestCompare:
    def test_adaptive_plus_baseline_rows(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "compare",
            "synth": {"d1": 30, "d2": 10, "n": 25, "rank_m": 3, "eta": 0.5,
                      "seed": 0},
            "grids": {"eta": [0.5], "seeds": [0]},
            "fit": {"delta": 1e-6},
            "baselines": [{"method": "ridge", "mu": [0.1, 1.0]}],
        })
        out = str(tmp_path / "out")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        rows = _read_rows(os.path.join(out, "results.csv"))
        methods = [r["method"] for r in rows]
        assert methods == ["adaptive_rrr", "ridge"]
        adaptive, ridge = rows
        # provenance sentinels: -1 marks a field the method does not use
        assert adaptive["mu"] == "-1" and adaptive["rank"] == "-1"
        assert ridge["k1"] == "-1" and ridge["k2"] == "-1"
        assert float(ridge["mu"]) in (0.1, 1.0)
        for row in rows:
            assert float(row["mse_out"]) >= 0.0
            assert -1.0 <= float(row["corr_out"]) <= 1.0


    @pytest.mark.parametrize("kind", ["compare", "rolling"])
    def test_cell_factors_its_training_design_once(self, tmp_path, monkeypatch, kind):
        # the estimator, all six baseline grids and the lasso and nuclear step
        # sizes share one SVD of the training design of a compare cell or of
        # each rolling fold; np.linalg.norm(x, 2) would be an SVD too, made
        # inside numpy's own module
        if kind == "compare":
            synth_sec = {"d1": 12, "d2": 6, "n": 20, "rank_m": 2, "eta": 0.5, "seed": 0}
            designs = [make_instance(SynthConfig(**synth_sec)).x]
            payload = {"kind": "compare", "synth": synth_sec,
                       "grids": {"eta": [0.5], "seeds": [0]}, "fit": {"delta": 1e-6}}
        else:
            panel = _write_panel(tmp_path)
            x, _, dates = dataio.make_features(dataio.load_panel_csv(panel), [1, 2], 1)
            designs = [x[f.train.start:f.train.stop]
                       for f in dataio.rolling_splits(dates, 8, 3, 3, 0)]
            payload = {"kind": "rolling", "panel": panel,
                       "features": {"lookbacks": [1, 2], "horizon": 1},
                       "splits": {"train_len": 8, "valid_len": 3, "test_len": 3},
                       "fit": {"delta": [1e-8, 0.3], "theta": [0.5, 2.0]}}
        linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        real_svd, factored = np.linalg.svd, [0] * len(designs)

        def counting_svd(a, *args, **kwargs):
            for i, d in enumerate(designs):
                if np.shape(a) == d.shape and np.array_equal(a, d):
                    factored[i] += 1
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg, "svd", counting_svd)
        cfg = _write_json(tmp_path, "cfg.json", dict(payload, baselines=_ALL_BASELINES))
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert factored == [1] * len(designs)

    def test_cell_path_matches_per_method_reference(self, tmp_path):
        # the twin of the rolling candidate-path test: every row from separate
        # public fits, validations and evaluations, without a shared SVD
        payload = {
            "kind": "compare",
            "synth": {"d1": 14, "d2": 6, "n": 20, "rank_m": 2, "omega": 2.0},
            "grids": {"eta": [0.5, 1.0], "seeds": [0, 3]},
            "fit": {"delta": 1e-6, "theta": 1.5, "sigma_eps": "oracle"},
            "baselines": _ALL_BASELINES,
        }
        cfg = _write_json(tmp_path, "cfg.json", payload)
        out = str(tmp_path / "out")
        assert main(["compare", "--config", cfg, "--out", out]) == 0

        grids = {e["method"]: [BaselineSpec(e["method"], mu=float(mu), rank=r)
                               for mu in cli._listed(e.get("mu", 0.0))
                               for r in cli._listed(e.get("rank"))]
                 for e in payload["baselines"]}
        rows = []
        for eta in payload["grids"]["eta"]:
            for seed in payload["grids"]["seeds"]:
                syn = SynthConfig(**dict(payload["synth"], eta=eta, seed=seed))
                inst = make_instance(syn)
                draw = lambda tag: gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                                               syn.n, eta, derived_seed(seed, tag))
                x_va, y_va, _ = draw(VALID_STREAM)
                x_te, y_te, _ = draw(TEST_STREAM)
                model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(
                    delta=1e-6, theta=1.5, sigma_eps=max(inst.sigma_noise, np.finfo(float).tiny)))
                fitted = [("adaptive_rrr", model, {"k1": model.k1, "k2": model.k2})]
                for method, grid in grids.items():
                    bm = validate_hyperparams(
                        grid, validation_window((inst.x, inst.y), (x_va, y_va)))
                    rank = -1 if bm.method.rank is None else bm.method.rank
                    fitted.append((method, bm, {"mu": bm.method.mu, "rank": rank}))
                for method, m, tags in fitted:
                    rep = metrics.merge_splits(
                        metrics.evaluate(m, inst.x, inst.y, split_label="in"),
                        metrics.evaluate(m, x_te, y_te, m_true=inst.m))
                    rows.append(dict({"k1": -1, "k2": -1, "mu": -1.0, "rank": -1}, **tags,
                                     config_hash=config_hash(payload), method=method,
                                     eta=eta, seed=seed, mse_in=rep.mse_in,
                                     mse_out=rep.mse_out, r2_in=rep.r2_in, r2_out=rep.r2_out,
                                     corr_out=rep.corr_out, recon_error=rep.recon_error,
                                     recovered_rank=int(rep.recovered_rank),
                                     gap_out_in=rep.gap_out_in))
        assert len(rows) == 4 * 7
        os.makedirs(tmp_path / "ref")
        want = write_results(str(tmp_path / "ref"), COMPARE_HEADER, rows,
                             ("method", "eta", "k1", "k2", "seed"))
        assert filecmp.cmp(os.path.join(out, "results.csv"), want, shallow=False)


def test_repeated_models_are_scored_once(monkeypatch):
    # a (delta, theta) grid under sigma auto, as a rolling fold has: many
    # candidates select the same (k1, k2), and a few have no admissible gap
    syn = SynthConfig(d1=30, d2=12, n=60, rank_m=4, eta=0.5, seed=3)
    inst = make_instance(syn)
    valid, test = (gen_dataset(inst.m, inst.v_star, inst.lambda_star, syn.n, syn.eta,
                               derived_seed(syn.seed, tag))[:2]
                   for tag in (VALID_STREAM, TEST_STREAM))
    train = (inst.x, inst.y)
    candidates = [FitConfig(delta=d, theta=t) for d in (1e-4, 1e-3, 1e-2, 0.5)
                  for t in (0.5, 1.0, 2.0, 3.0)]

    # the reference scores every candidate
    models = [m for m in fit_path(*train, candidates) if not isinstance(m, NoGapError)]
    ranks = [(m.k1, m.k2) for m in models]
    best = metrics.lowest((metrics.pooled_scores(valid[1], valid[0] @ m.m_hat.T)[0], m)
                          for m in models)
    assert len(models) < len(candidates) and len(set(ranks)) < len(models)
    assert ranks.count((best.k1, best.k2)) > 1  # the winner has repeats
    y_hat = test[0] @ best.m_hat.T
    want = ("adaptive_rrr", {"k1": best.k1, "k2": best.k2, "mu": -1.0, "rank": -1},
            metrics.pooled_scores(train[1], train[0] @ best.m_hat.T),
            metrics.pooled_scores(test[1], y_hat))

    scored = []  # whether each validation score is of the validation window
    real_scorer = metrics.validation_mse

    def counted(y):
        score = real_scorer(y)
        return lambda y_hat: scored.append(y is valid[1]) or score(y_hat)

    monkeypatch.setattr(baselines, "validation_mse", counted)
    ((method, model, tags, train_scores, test_scores, got_hat),) = cli._fit_select_score(
        train, valid, test, candidates, {}, "test")
    assert (method, tags, train_scores, test_scores) == want
    assert model.config == best.config and model.m_hat.tobytes() == best.m_hat.tobytes()
    assert got_hat.tobytes() == y_hat.tobytes()
    assert scored.count(True) == len(set(ranks))  # one validation score per model


def test_validation_response_of_other_width_is_refused():
    # a y_va of 8 x 1 against a y_tr of 20 x 3 would be scored broadcast to 8 x 3
    rng = np.random.default_rng(5)
    train = (rng.normal(size=(20, 4)), rng.normal(size=(20, 3)))
    valid = (rng.normal(size=(8, 4)), rng.normal(size=(8, 1)))
    with pytest.raises(ValueError, match="^validation y must have 3 columns$"):
        cli._fit_select_score(train, valid, train, [FitConfig()], {}, "test")


@pytest.mark.parametrize("shape", ["compare", "rolling"])
def test_projected_estimator_scores_equal_formed_predictions(shape, monkeypatch):
    # compare-solvers' and rolling-panel's shapes, with rolling's (delta,
    # theta) grid: each candidate is scored as (x_va V)[:, :k1] @ g, g =
    # n_hat_trunc.T / sqrt(lambdas[:k1]) its coefficients in the training
    # design's right singular basis, within 1e-12 of scoring x_va @ m_hat.T,
    # and the pick is the one those scores make
    if shape == "compare":
        syn = SynthConfig(d1=60, d2=30, n=80, rank_m=5, eta=1.0, seed=0)
        n_va = syn.n
    else:
        syn = SynthConfig(d1=150, d2=50, n=200, rank_m=5, eta=1.0, seed=0)
        n_va = 40
    inst = make_instance(syn)
    x_va, y_va, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star, n_va, syn.eta,
                                derived_seed(syn.seed, VALID_STREAM))
    candidates = [FitConfig(delta=d, theta=t) for d in (1e-8, 1e-6, 1e-4, 1e-2, 1.0)
                  for t in (1.5, 2.0, 3.0)]
    models, seen = [], set()
    for m in fit_path(inst.x, inst.y, candidates):
        if not isinstance(m, NoGapError) and (m.k1, m.k2) not in seen:
            seen.add((m.k1, m.k2))
            models.append(m)
    formed = [metrics.validation_mse(y_va)(x_va @ m.m_hat.T) for m in models]
    want = metrics.lowest(zip(formed, models))
    assert len(models) > 1

    projected = []
    real_scorer = metrics.validation_mse

    def recorded(y):
        score = real_scorer(y)
        return lambda y_hat: projected.append(score(y_hat)) or projected[-1]

    monkeypatch.setattr(baselines, "validation_mse", recorded)
    best = cli._validated_estimator(validation_window((inst.x, inst.y), (x_va, y_va)),
                                    candidates, "test")
    np.testing.assert_allclose(projected, formed, rtol=1e-12, atol=0.0)
    assert (best.k1, best.k2) == (want.k1, want.k2)


def test_one_rolling_fold_forms_only_what_validation_reads(tmp_path, monkeypatch):
    # per fold: one validation scorer and one SVD of the training design,
    # which the estimator and every grid share, one baselines filter (U^T y
    # formed once) whose fitted-values Gram is factored once per mu across
    # the grids, one filter g per direct spec, one V g per direct grid (its
    # winner's, through fit_baseline), and the m_hat of the estimator's
    # winner alone
    panel = _write_panel(tmp_path)
    x, y, dates = dataio.make_features(dataio.load_panel_csv(panel), [1, 2], 1)
    (fold,) = dataio.rolling_splits(dates, 10, 4, 4, 0)
    grid = [{"method": "ridge", "mu": [0.1, 1.0]}, {"method": "rrr", "rank": [1, 2]},
            {"method": "pcr", "rank": [2, 4]},
            {"method": "reduced_rank_ridge", "mu": 1.0, "rank": 2},
            {"method": "lasso", "mu": [0.0]}]
    candidates = [FitConfig(delta=d, theta=t) for d in (1e-8, 0.3) for t in (0.5, 2.0)]
    train = (x[fold.train.start:fold.train.stop], y[fold.train.start:fold.train.stop])
    assert len({(m.k1, m.k2) for m in fit_path(*train, candidates)
                if not isinstance(m, NoGapError)}) > 1

    counts = {"scorers": 0, "filters": 0, "g": 0, "eigh": 0, "m_hat": 0}
    fits, factored = [], []
    real_filter, real_fit, real_eigh = baselines._svd_filter, baselines.fit_baseline, np.linalg.eigh
    real_scorer = metrics.validation_mse

    def counted_scorer(y):
        counts["scorers"] += 1
        return real_scorer(y)

    def recorded_decompose(a):
        factored.append(np.shape(a))
        return decompose(a)

    def counted_filter(dec, y):
        counts["filters"] += 1
        filt = real_filter(dec, y)

        def counted(spec):
            counts["g"] += 1
            return filt(spec)

        return counted

    def counted_fit(spec, *args):
        fits.append((spec.method, len(args) == 4))  # 4 arguments: a filter was passed
        return real_fit(spec, *args)

    def counted_eigh(a):
        counts["eigh"] += 1
        return real_eigh(a)

    m_hat = FittedModel.__dict__["m_hat"]

    def counted_m_hat(self):
        counts["m_hat"] += 1
        return m_hat.func(self)

    prop = functools.cached_property(counted_m_hat)
    prop.__set_name__(FittedModel, "m_hat")
    monkeypatch.setattr(FittedModel, "m_hat", prop)
    monkeypatch.setattr(baselines, "_svd_filter", counted_filter)
    monkeypatch.setattr(baselines, "fit_baseline", counted_fit)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for module in (metrics, baselines):
        monkeypatch.setattr(module, "validation_mse", counted_scorer)
    for module in (cli, baselines, estimator):
        monkeypatch.setattr(module, "decompose", recorded_decompose)
    cfg = _write_json(tmp_path, "cfg.json", {
        "kind": "rolling", "panel": panel, "features": {"lookbacks": [1, 2], "horizon": 1},
        "splits": {"train_len": 10, "valid_len": 4, "test_len": 4},
        "fit": {"delta": [1e-8, 0.3], "theta": [0.5, 2.0]}, "baselines": grid})
    assert main(["rolling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # ridge 2, rrr 2, pcr 2, reduced-rank ridge 1 and lasso at mu 0
    assert counts == {"scorers": 1, "filters": 1, "g": 8, "eigh": 2, "m_hat": 1}
    assert factored.count(train[0].shape) == 1
    assert sorted(fits) == [(method, True) for method in sorted(m["method"] for m in grid)]


class TestRolling:
    def _panel(self, tmp_path):
        return _write_panel(tmp_path)

    def test_per_fold_and_glued_rows(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "rolling",
            "panel": self._panel(tmp_path),
            "features": {"lookbacks": [1], "horizon": 1},
            "splits": {"train_len": 8, "valid_len": 3, "test_len": 3,
                       "gap_len": 0},
            "fit": {"delta": [1e-8], "sigma_eps": "auto"},
            "baselines": [{"method": "ridge", "mu": [0.5]}],
        })
        out = str(tmp_path / "out")
        assert main(["rolling", "--config", cfg, "--out", out]) == 0
        rows = _read_rows(os.path.join(out, "results.csv"))
        by_method = {}
        for r in rows:
            by_method.setdefault(r["method"], []).append(r)
        assert set(by_method) == {"adaptive_rrr", "ridge"}
        n_folds = (19 - 14) // 3 + 1  # usable dates 19, span 14, advance 3
        for method, mrows in by_method.items():
            splits = [(int(r["fold"]), r["split"]) for r in mrows]
            assert splits.count((-1, "glued")) == 1
            assert len([s for s in splits if s[1] == "train"]) == n_folds
            assert len([s for s in splits if s[1] == "test"]) == n_folds
        glued = [r for r in rows if r["split"] == "glued"]
        for r in glued:
            assert int(r["n_obs"]) == 3 * n_folds

    def test_candidate_path_matches_per_candidate_reference(self, tmp_path):
        # delta 1e3 has no admissible gap on any fold and 0.3 on some, so the
        # run must skip those candidates exactly as separate fits would
        payload = {
            "kind": "rolling",
            "panel": self._panel(tmp_path),
            "features": {"lookbacks": [1, 2], "horizon": 1},
            "splits": {"train_len": 8, "valid_len": 3, "test_len": 3, "gap_len": 0},
            "fit": {"delta": [1e-8, 1e3, 0.3], "theta": [0.5, 2.0], "sigma_eps": "auto"},
        }
        cfg = _write_json(tmp_path, "cfg.json", payload)
        out = str(tmp_path / "out")
        assert main(["rolling", "--config", cfg, "--out", out]) == 0

        x, y, dates = dataio.make_features(dataio.load_panel_csv(payload["panel"]), [1, 2], 1)
        rows, glued, outcomes = [], [], []
        for fi, fold in enumerate(dataio.rolling_splits(dates, 8, 3, 3, 0)):
            part = lambda a, r: a[r.start:r.stop]
            x_tr, y_tr = part(x, fold.train), part(y, fold.train)
            best = None
            for d in payload["fit"]["delta"]:
                for t in payload["fit"]["theta"]:
                    try:
                        model = fit_adaptive_rrr(x_tr, y_tr, FitConfig(delta=d, theta=t))
                    except NoGapError:
                        outcomes.append("nogap")
                        continue
                    outcomes.append("fit")
                    score = metrics.evaluate(model, part(x, fold.valid),
                                             part(y, fold.valid)).mse_out
                    if not np.isnan(score) and (best is None or score < best[0]):
                        best = (score, model)
            model = best[1]
            x_te, y_te = part(x, fold.test), part(y, fold.test)
            rep_in = metrics.evaluate(model, x_tr, y_tr, split_label="in")
            rep_te = metrics.evaluate(model, x_te, y_te)
            common = {"config_hash": config_hash(payload), "method": "adaptive_rrr",
                      "fold": fi, "seed": 0, "k1": model.k1, "k2": model.k2,
                      "mu": -1.0, "rank": -1}
            rows.append(dict(common, split="train", n_obs=len(fold.train), mse=rep_in.mse_in,
                             r2=rep_in.r2_in, corr=float("nan")))
            rows.append(dict(common, split="test", n_obs=len(fold.test), mse=rep_te.mse_out,
                             r2=rep_te.r2_out, corr=rep_te.corr_out))
            glued.append((y_te, predict(model, x_te)))
        assert {"nogap", "fit"} <= set(outcomes)
        yt, yh = np.vstack([g[0] for g in glued]), np.vstack([g[1] for g in glued])
        mse, r2, corr = metrics.pooled_scores(yt, yh)
        rows.append(dict(common, fold=-1, split="glued", n_obs=yt.shape[0], mse=mse, r2=r2,
                         corr=corr, k1=-1, k2=-1))
        os.makedirs(tmp_path / "ref")
        want = write_results(str(tmp_path / "ref"), ROLLING_HEADER, rows,
                             ("method", "fold", "split"))
        assert filecmp.cmp(os.path.join(out, "results.csv"), want, shallow=False)

    # Panel line i is date i - 1: feature row i - 1 and response row i - 2.
    # The first fold's rows are train 0-7, valid 8-10 and test 11-13.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("line, named", [
        (None, None), (3, "x and y"), (10, "validation x and y"), (13, "test x and y"),
    ], ids=["clean", "train", "valid", "test"])
    def test_infinite_training_value_is_reported_before_the_svd(self, tmp_path, monkeypatch,
                                                               line, named):
        # an inf return reaches one window of the first fold; the run must name
        # it before factoring the training design, whose SVD would quietly be
        # NaN, and not report a validation window it cannot score as a
        # missing gap. On the clean panel the patched function is shown to be
        # the one that factors each fold's training design.
        factored = []

        def finite_only(a):
            assert np.isfinite(a).all(), "a non-finite design was factored"
            factored.append(a)
            return decompose(a)

        monkeypatch.setattr(baselines, "decompose", finite_only)
        panel = tmp_path / "panel.csv"
        with open(self._panel(tmp_path)) as f:
            lines = f.read().splitlines()
        if line is not None:
            lines[line] = lines[line].rsplit(",", 1)[0] + ",inf"
        panel.write_text("\n".join(lines) + "\n")
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "rolling",
            "panel": str(panel),
            "features": {"lookbacks": [1], "horizon": 1},
            "splits": {"train_len": 8, "valid_len": 3, "test_len": 3, "gap_len": 0},
            "fit": {"delta": [1e-8], "sigma_eps": "auto"},
            "baselines": [{"method": "ridge", "mu": [0.5]}],
        })
        out = tmp_path / "out"
        code = main(["rolling", "--config", cfg, "--out", str(out)])
        if line is None:
            assert code == 0 and len(factored) >= 1
            return
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "NonFiniteError"
        assert err["message"] == named + " must hold only finite values"

    def test_no_window_names_the_rows_dropped_for_a_missing_value(self, tmp_path, capsys):
        # every cell written as a numpy repr, which float() cannot parse, so
        # every cell is missing and every anchor row is dropped
        with open(self._panel(tmp_path)) as f:
            lines = f.read().splitlines()
        panel = tmp_path / "reprs.csv"
        panel.write_text("\n".join([lines[0]] + [
            ",".join([cells[0]] + ["np.float64(%s)" % c for c in cells[1:]])
            for cells in (line.split(",") for line in lines[1:])]) + "\n")
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "rolling", "panel": str(panel),
            "features": {"lookbacks": [1, 2], "horizon": 1},
            "splits": {"train_len": 8, "valid_len": 3, "test_len": 3}})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rolling", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        # 20 dates: anchors 2020-01-02 to 2020-01-19
        assert capsys.readouterr().err == (
            "error: no full window fits: need 14 periods, have 0; "
            "18 of 18 anchor rows were dropped for a missing value\n")

    @pytest.mark.parametrize("case, message", [
        ("empty_panel", "error: {panel}: empty file\n"),
        ("ragged_panel", "error: {panel}: line 3: expected 4 cells, got 3\n"),
        # a bad length is not reported as rows dropped for a missing value
        ("negative_gap_len", "error: gap_len must be >= 0\n"),
        ("zero_train_len", "error: train_len must be >= 1\n")])
    def test_bad_panel_or_splits_exits_two(self, case, message, tmp_path, capsys):
        panel = _write_panel(tmp_path)
        if case == "empty_panel":
            pathlib.Path(panel).write_text("")
        if case == "ragged_panel":
            lines = pathlib.Path(panel).read_text().splitlines(True)
            lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
            pathlib.Path(panel).write_text("".join(lines))
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "rolling", "panel": panel, "features": {"lookbacks": [1]},
            "splits": {"train_len": 0 if case == "zero_train_len" else 4, "valid_len": 2,
                       "test_len": 2, "gap_len": -1 if case == "negative_gap_len" else 0}})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rolling", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == message.format(panel=panel)

    def test_missing_panel_is_config_error(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "rolling",
            "panel": str(tmp_path / "missing.csv"),
            "features": {"lookbacks": [1], "horizon": 1},
            "splits": {"train_len": 4, "valid_len": 2, "test_len": 2},
        })
        assert main(["rolling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestPacking:
    def test_report_schema_and_pass(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "packing",
            "packing": {"d": 64, "rho": 0.0158, "sigma_eps": 1.0,
                        "n_samples": 100, "k_patterns": 16, "s_size": 8,
                        "seed": 1},
        })
        out = tmp_path / "out"
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("params", "measured_constants", "min_pairwise_distance",
                    "max_overlap", "unitarity_residual", "pass"):
            assert key in report
        assert report["pass"] is True
        assert (report["params"]["t_lo"], report["params"]["t_hi"]) == (1, 4)
        assert report["unitarity_residual"] <= 1e-10
        assert set(report["measured_constants"]) == {"c8", "c9"}

    # _SMALL_PACKING has d 32, and every entry but the NaN stands above its
    # noise floor, so only the spectrum check can name what is wrong
    @pytest.mark.parametrize("spectrum, message", [
        ([1.0] * 31, "spectrum must have length d"),
        ([float("nan")] + [1.0] * 31,
         "spectrum must be non-increasing, positive and finite"),
    ], ids=["wrong_length", "nan"])
    def test_bad_spectrum_is_named(self, spectrum, message, tmp_path, capsys):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "packing", "packing": dict(_SMALL_PACKING, spectrum=spectrum)})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_env_seed_is_planted_into_packing_seed(self, tmp_path, monkeypatch):
        planted, given = tmp_path / "planted", tmp_path / "given"
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "packing", "packing": _SMALL_PACKING})
        monkeypatch.setenv("ARRR_SEED", "3")
        assert main(["packing", "--config", cfg, "--out", str(planted)]) == 0
        monkeypatch.delenv("ARRR_SEED")
        # the config ARRR_SEED resolves to: the seed at the top and in the section
        cfg = _write_json(tmp_path, "cfg3.json", {
            "kind": "packing", "seed": 3, "packing": dict(_SMALL_PACKING, seed=3)})
        assert main(["packing", "--config", cfg, "--out", str(given)]) == 0
        assert json.loads((planted / "report.json").read_text())["params"]["seed"] == 3
        for name in ("meta.json", "report.json"):
            assert (planted / name).read_bytes() == (given / name).read_bytes()

    def test_report_lists_the_fixed_exponents(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "packing", "packing": _SMALL_PACKING})
        assert main(["packing", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        params = json.loads((tmp_path / "out" / "report.json").read_text())["params"]
        assert sorted(params) == sorted(list(_SMALL_PACKING) + [
            "spectrum", "lambda_exp", "zeta", "eta_exp", "t_lo", "t_hi"])
        assert (params["lambda_exp"], params["zeta"], params["eta_exp"]) == (0.501, 0.5, 0.001)

    # the exponents and pass thresholds are constants, so a config naming one
    # names an unknown field
    @pytest.mark.parametrize("key, value", [
        ("lambda_exp", 0.501), ("zeta", 0.5), ("eta_exp", 0.001),
        ("distance_floor", 1.5), ("overlap_max", 4)])
    def test_fixed_constants_are_unknown_fields(self, key, value, tmp_path, capsys):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "packing", "packing": dict(_SMALL_PACKING, **{key: value})})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["packing", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "error.json").exists()
        assert capsys.readouterr().err == "error: packing: unknown fields ['%s']\n" % key


class TestAngles:
    def test_angle_grid_shape_and_determinism(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "angles",
            "synth": {"d1": 30, "omega": 2.0, "seed": 4},
            "n": 20,
            "top_k": 5,
        })
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["angles", "--config", cfg, "--out", out1]) == 0
        assert main(["angles", "--config", cfg, "--out", out2]) == 0
        assert filecmp.cmp(os.path.join(out1, "results.csv"),
                           os.path.join(out2, "results.csv"), shallow=False)
        rows = _read_rows(os.path.join(out1, "results.csv"))
        assert len(rows) == 25
        for r in rows:
            assert 0.0 <= float(r["angle"]) <= np.pi / 2 + 1e-12


def _matrix_files(tmp_path):
    """x (30x10), y (30x4), y with one row short, x with one column short,
    x with a NaN, x of numerical rank 3 in 4 columns, and a model fitted on
    x/y."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(30, 10)), rng.normal(size=(30, 4))
    files = {"x": x, "y": y, "y29": y[:29], "x9": x[:, :9], "xnan": x.copy(),
             "xrank3": np.hstack([x[:, :3], 2 * x[:, :1]])}
    files["xnan"][3, 2] = np.nan
    paths = {}
    for name, a in files.items():
        paths[name] = str(tmp_path / (name + ".csv"))
        write_matrix_csv(paths[name], a)
    paths["model"] = str(tmp_path / "model")
    assert main(["fit", "--x", paths["x"], "--y", paths["y"], "--sigma", "1",
                 "--out", paths["model"]]) == 0
    return paths


def _write_per_float(path, a):
    """The matrix CSV writer as it was: one fmt_float call per entry."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w") as f:
        for row in a:
            f.write(",".join(fmt_float(v) for v in row))
            f.write("\n")


class TestMatrixCsv:
    SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1 / 3, -1e300,
               np.inf, -np.inf, np.nan]
    # 10**k from 1e-300 to 1e299, each beside the float below it
    POWERS = np.array([float("1e%d" % k) for k in range(-300, 300)])
    _rng = np.random.default_rng(1)

    @pytest.mark.parametrize("a", [
        np.array([SPECIAL]),
        np.array(SPECIAL).reshape(-1, 1),
        np.array(SPECIAL[:8]).reshape(2, 4),
        np.random.default_rng(0).normal(size=(7, 5)),
        np.array(SPECIAL),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        # m/4 for odd m in [4e15, 9e15): 16 integer digits and .25 or .75, so
        # rounding to 17 digits is an exact tie, which %.17g breaks to even
        (_rng.integers(2 * 10**15, 9 * 10**15 // 2, size=(40, 50)) * 2 + 1) / 4,
        np.stack([POWERS, np.nextafter(POWERS, 0)], axis=1).reshape(-1, 40),
        np.concatenate([np.linspace(0.9e-5, 1.1e-4, 246), np.linspace(0.9e16, 1.1e17, 250),
                        np.nextafter(1e-4, [0, 1]), np.nextafter(1e17, [0, np.inf]),
                        [1e-5, 1e-4, 1e16, 1e17]]).reshape(-1, 6) * [1, -1, 1, -1, 1, -1],
        np.array([[1e308, -1e308, 1e-308, -1e-308, 5e-324, 2.2250738585072009e-308,
                   1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf)]]),
        np.random.default_rng(2).normal(size=(7, 1000)),
        np.random.default_rng(3).normal(size=(1, 5000)),
    ], ids=["row", "column", "special", "normal", "vector", "no_rows", "no_columns",
            "ties", "powers_of_ten", "notation_switches", "extremes", "several_blocks",
            "long_row"])
    def test_bytes_equal_the_per_float_writer(self, tmp_path, a):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_matrix_csv(str(got), a)
        _write_per_float(str(want), a)
        assert got.read_bytes() == want.read_bytes()

    @seed(1)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 50), st.randoms(use_true_random=False))
    def test_random_bit_patterns(self, rows, cols, rnd):
        # any sign, exponent and mantissa: NaN, infinity and subnormals too
        a = np.array([rnd.getrandbits(64) for _ in range(rows * cols)],
                     dtype=np.uint64).view(np.float64).reshape(rows, cols)
        with tempfile.TemporaryDirectory() as d, np.errstate(over="raise"):
            got, want = pathlib.Path(d, "got.csv"), pathlib.Path(d, "want.csv")
            write_matrix_csv(str(got), a)
            _write_per_float(str(want), a)
            assert got.read_bytes() == want.read_bytes()


def test_write_json_is_strict(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": np.float64(np.inf), "a": [np.int64(3), np.nan, -np.inf],
                           "m": np.array([[1.5, np.nan]]),
                           "t": (np.bool_(True), np.float32(0.5))})

    def refuse(token):
        raise ValueError("not strict JSON: %s" % token)

    got = json.loads(path.read_text(), parse_constant=refuse)
    assert got == {"a": [3, "nan", "-inf"], "b": "inf", "m": [[1.5, "nan"]], "t": [True, 0.5]}


_SMALL_SYNTH = {"d1": 20, "d2": 8, "n": 25, "rank_m": 3, "eta": 0.5, "seed": 0}
_SMALL_PACKING = {"d": 32, "rho": 0.06, "sigma_eps": 1.0, "n_samples": 100,
                  "k_patterns": 8, "s_size": 4, "seed": 0}

# Bad input that only the library's own range checks or the CLI's key checks
# catch: (argv with {name} placeholders, config written to cfg.json or None).
PROBES = {
    "fit_k1_above_d1": (["fit", "--x", "{x}", "--y", "{y}", "--k1", "50"], None),
    "fit_k1_above_numerical_rank": (["fit", "--x", "{xrank3}", "--y", "{y}", "--k1", "4"],
                                    None),
    "fit_row_mismatch": (["fit", "--x", "{x}", "--y", "{y29}"], None),
    "fit_k2_above_k1": (["fit", "--x", "{x}", "--y", "{y}", "--k2", "99"], None),
    "predict_wrong_columns": (["predict", "--model", "{model}", "--x", "{x9}"], None),
    "sweep_rank_zero": (["sweep"], {"synth": dict(_SMALL_SYNTH, rank_m=0),
                                    "grids": {"k1": [5], "k2": [2], "seeds": [0]}}),
    "synth_rank_zero": (["synth", "--d1", "5", "--d2", "3", "--n", "10",
                         "--rank", "0"], None),
    "sweep_k2_above_k1": (["sweep"], {"synth": _SMALL_SYNTH,
                                      "grids": {"k1": [3], "k2": [5], "seeds": [0]}}),
    # a non-finite config value is bad input, never an Infinity in meta.json
    "fit_sigma_inf": (["fit", "--x", "{x}", "--y", "{y}", "--sigma", "inf"], None),
    "fit_delta_inf": (["fit", "--x", "{x}", "--y", "{y}", "--delta", "inf"], None),
    "synth_omega_inf": (["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1",
                         "--omega", "inf"], None),
    # 1e999 is how JSON spells an infinite value; json.load reads it as inf
    "compare_mu_inf": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "ridge", "mu": [1e999]}]}),
    "angles_omega_inf": (["angles"], {
        "synth": {"d1": 8, "omega": 1e999, "seed": 1}, "n": 10, "top_k": 3}),
    "packing_sigma_eps_inf": (["packing"], {"packing": dict(_SMALL_PACKING, sigma_eps=1e999)}),
    "packing_sigma_eps_inf_given_spectrum": (["packing"], {"packing": dict(
        _SMALL_PACKING, sigma_eps=1e999, spectrum=[1.0] * _SMALL_PACKING["d"])}),
    "packing_spectrum_inf": (["packing"], {"packing": dict(
        _SMALL_PACKING, spectrum=[1e999] + [1e-3] * (_SMALL_PACKING["d"] - 1))}),
    # an integer beyond the float range, which json.load reads as a Python int
    "sweep_omega_huge_int": (["sweep"], {"synth": dict(_SMALL_SYNTH, omega=10**400),
                                         "grids": {"k1": [5], "k2": [2], "seeds": [0]}}),
    "sweep_eta_huge_int": (["sweep"], {"synth": dict(_SMALL_SYNTH, eta=10**400),
                                       "grids": {"k1": [5], "k2": [2], "seeds": [0]}}),
    "compare_mu_huge_int": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "ridge", "mu": 10**400}]}),
    "packing_sigma_eps_huge_int": (["packing"], {"packing": dict(_SMALL_PACKING,
                                                                 sigma_eps=10**400)}),
    "packing_d_huge_int": (["packing"], {"packing": dict(_SMALL_PACKING, d=10**400)}),
    "sweep_seeds_huge_int": (["sweep"], {"synth": _SMALL_SYNTH,
                                         "grids": {"k1": [5], "k2": [2], "seeds": [0, 10**400]}}),
    "angles_omega_huge_int": (["angles"], {
        "synth": {"d1": 8, "omega": 10**400, "seed": 1}, "n": 10, "top_k": 3}),
    # every list a reader takes must be non-empty; omit baselines for none
    "compare_baselines_empty": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": []}),
    # a hyperparameter the method does not read would only fit one model twice
    "compare_rrr_takes_no_mu": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "rrr", "mu": [5.0, 0.1], "rank": [2]}]}),
    "compare_ridge_takes_no_rank": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "ridge", "mu": [1.0], "rank": [2]}]}),
    "compare_rrr_rank_too_big": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "rrr", "rank": [30]}]}),
    # each config below is valid without its misspelled or extra key
    "compare_unknown_fit_key": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6, "thetaa": 2.0}}),
    "compare_unknown_baseline_key": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}, "baselines": [{"method": "rrr", "rank": [2], "rnak": [3]}]}),
    "packing_unknown_key": (["packing"], {"packing": dict(_SMALL_PACKING, distance_flor=1.5)}),
    "packing_unknown_top_key": (["packing"], {"packing": _SMALL_PACKING, "note": "x"}),
    "packing_unknown_xi_small": (["packing"], {"packing": dict(_SMALL_PACKING, xi_small=0.001)}),
    "sweep_unknown_grid_key": (["sweep"], {
        "synth": _SMALL_SYNTH, "grids": {"k1": [5], "k2": [2], "seeds": [0], "eta": [0.5]}}),
    "sweep_unknown_top_key": (["sweep"], {
        "synth": _SMALL_SYNTH, "grids": {"k1": [5], "k2": [2], "seeds": [0]},
        "fitt": {"theta": 2.0}}),
    "rolling_unknown_splits_key": (["rolling"], {
        "panel": "{panel}", "features": {"lookbacks": [1, 2]},
        "splits": {"train_len": 8, "valid_len": 3, "test_len": 3, "gap": 1}}),
    "angles_unknown_synth_key": (["angles"], {
        "synth": {"d1": 8, "omega": 2.0, "seed": 1, "rank_m": 2}, "n": 10, "top_k": 3}),
    # a negative seed, which a SeedSequence refuses without naming it
    "synth_negative_seed": (["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1",
                             "--seed", "-1"], None),
    "sweep_negative_grid_seed": (["sweep"], {"synth": _SMALL_SYNTH,
                                             "grids": {"k1": [5], "k2": [2], "seeds": [0, -1]}}),
    "sweep_negative_synth_seed": (["sweep"], {"synth": dict(_SMALL_SYNTH, seed=-1),
                                              "grids": {"k1": [5], "k2": [2], "seeds": [0]}}),
    "compare_negative_grid_seed": (["compare"], {
        "synth": _SMALL_SYNTH, "grids": {"eta": [0.5], "seeds": [-2]}, "fit": {"delta": 1e-6}}),
    "compare_negative_synth_seed": (["compare"], {
        "synth": dict(_SMALL_SYNTH, seed=-1), "grids": {"eta": [0.5], "seeds": [0]},
        "fit": {"delta": 1e-6}}),
    "packing_negative_seed": (["packing"], {"packing": dict(_SMALL_PACKING, seed=-1)}),
    "angles_negative_seed": (["angles"], {
        "synth": {"d1": 8, "omega": 2.0, "seed": -1}, "n": 10, "top_k": 3}),
    # a size the generator refuses, reported as such, not as a bad top_k
    "angles_n_zero": (["angles"], {"synth": {"d1": 10, "seed": 0}, "n": 0}),
    "angles_n_negative": (["angles"], {"synth": {"d1": 10, "seed": 0}, "n": -5, "top_k": 2}),
    "angles_d1_one": (["angles"], {"synth": {"d1": 1, "seed": 0}, "n": 10}),
    "angles_d1_zero_n_zero": (["angles"], {"synth": {"d1": 0, "seed": 0}, "n": 0, "top_k": 1}),
    "sweep_negative_env_seed": (["sweep"], {"synth": _SMALL_SYNTH,
                                            "grids": {"k1": [5], "k2": [2], "seeds": [0]}}),
    "synth_negative_env_seed": (["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1"],
                                None),
}
# what the message of each negative-seed probe names; the env probes run with
# ARRR_SEED=-3
NEGATIVE_SEEDS = {"synth_negative_seed": "--seed", "sweep_negative_grid_seed": "grids.seeds",
                  "sweep_negative_synth_seed": "synth.seed",
                  "compare_negative_grid_seed": "grids.seeds",
                  "compare_negative_synth_seed": "synth.seed",
                  "packing_negative_seed": "packing.seed", "angles_negative_seed": "synth.seed",
                  "sweep_negative_env_seed": "ARRR_SEED", "synth_negative_env_seed": "ARRR_SEED"}
# the generator's own message for each size probe
SIZE_MESSAGES = {"angles_n_zero": "n must be >= 2", "angles_n_negative": "n must be >= 2",
                 "angles_d1_one": "d1 must be >= 2", "angles_d1_zero_n_zero": "d1 must be >= 2"}


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe(self, probe, tmp_path, capsys, monkeypatch):
        argv, cfg = PROBES[probe]
        if probe.endswith("_env_seed"):
            monkeypatch.setenv("ARRR_SEED", "-3")
        paths = _matrix_files(tmp_path)
        argv = [a.format(**paths) for a in argv]
        if cfg is not None and cfg.get("panel") == "{panel}":
            cfg = dict(cfg, panel=_write_panel(tmp_path))
        if cfg is not None:
            argv += ["--config", _write_json(tmp_path, "cfg.json", cfg)]
        out = tmp_path / ("out.csv" if argv[0] == "predict" else "out")
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "error.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if "unknown" in probe:
            assert "unknown fields" in err
        if "_takes_no_" in probe:
            method, key = probe[len("compare_"):].split("_takes_no_")
            assert err == "error: %s takes no %s\n" % (method, key)
        if probe in NEGATIVE_SEEDS:
            assert err.startswith("error: %s must be a non-negative integer, got -"
                                  % NEGATIVE_SEEDS[probe])
        if probe in SIZE_MESSAGES:
            assert err == "error: %s\n" % SIZE_MESSAGES[probe]
        if probe.endswith("_huge_int"):
            # the message names the key, not the integer's 401 digits
            key = probe.split("_", 1)[1][:-len("_huge_int")]
            assert re.fullmatch(r"error: \S*\.%s (is|holds) an integer beyond the float range\n"
                                % key, err)

    # each file of a saved model, changed so that it disagrees with the others;
    # the model of _matrix_files has d1 10 and d2 4
    @pytest.mark.parametrize("name, change", [
        ("meta.json", lambda path: _write_json(path.parent, path.name, dict(
            json.loads(path.read_text()), d1=9))),
        ("pi_hat.csv", lambda path: write_matrix_csv(str(path), np.ones((10, 2)))),
        ("n_hat.csv", lambda path: write_matrix_csv(str(path), np.ones((1, 2)))),
    ])
    def test_predict_model_file_disagreeing_with_meta(self, name, change, tmp_path, capsys):
        paths = _matrix_files(tmp_path)
        change(pathlib.Path(paths["model"]) / name)
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main(["predict", "--model", paths["model"], "--x", paths["x"],
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "error.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["pi_hat.csv", "n_hat.csv"])
    @pytest.mark.parametrize("cell", ["nan", "1e309", "-inf"])
    def test_predict_model_factor_not_finite(self, name, cell, tmp_path, capsys):
        paths = _matrix_files(tmp_path)
        path = pathlib.Path(paths["model"]) / name
        lines = path.read_text().splitlines()
        lines[-1] = ",".join([cell] + lines[-1].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main(["predict", "--model", paths["model"], "--x", paths["x"],
                     "--out", str(out)]) == 3
        assert not out.exists()
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "NonFiniteError"
        assert err["message"] == "%s must hold only finite values" % path
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["plus", "minus"])
    def test_predict_model_meta_huge_integer(self, value, tmp_path, capsys):
        paths = _matrix_files(tmp_path)
        meta = pathlib.Path(paths["model"]) / "meta.json"
        _write_json(meta.parent, meta.name, dict(json.loads(meta.read_text()), sigma_eps=value))
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main(["predict", "--model", paths["model"], "--x", paths["x"],
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "error.json").exists()
        err = capsys.readouterr().err
        assert err == "error: %s: sigma_eps is an integer beyond the float range\n" % meta

    @pytest.mark.parametrize("command, seed, message", [
        pytest.param(command, seed, message, id=command + suffix)
        for command in ("synth", "packing")
        for seed, message, suffix in (
            ("1.5", "ARRR_SEED must be an integer, got '1.5'", ""),
            # the integer rule of a config's seeds: one that converts to a float
            (str(10**400), "ARRR_SEED is an integer beyond the float range", "-huge"),
            # more digits than int() converts, named without them
            ("9" * 5000, "ARRR_SEED is an integer beyond the float range", "-digits"),
            (" -" + "9" * 5000, "ARRR_SEED is an integer beyond the float range",
             "-minus-digits"),
            # a long value that is no integer is quoted by a prefix and its length
            ("x" * 5000, "ARRR_SEED must be an integer, got %r... (5000 characters)"
             % ("x" * 20), "-long"))])
    def test_non_integer_env_seed(self, command, seed, message, tmp_path, monkeypatch, capsys):
        if command == "synth":
            argv = ["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1"]
        else:
            argv = ["packing", "--config", _write_json(tmp_path, "cfg.json", {
                "kind": "packing", "packing": _SMALL_PACKING})]
        monkeypatch.setenv("ARRR_SEED", seed)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, jobs, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg())
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()


class TestMemoryErrorExitsTwo:
    """A request numpy cannot allocate is bad input. The allocation failure is
    simulated; a test never attempts a real large allocation."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_exits_two_and_writes_nothing(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(synth, "make_instance", self._refuse)
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1"]
        else:
            argv = ["sweep", "--config", _write_json(tmp_path, "cfg.json", _sweep_cfg())]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: %s " % command) and "74.5 GiB" in err
        assert "Traceback" not in err


def _run_cli(argv):
    """The CLI in a separate process, so that stderr holds every warning it
    prints, a worker process's too. Returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arrr.__file__)))
    return subprocess.run([sys.executable, "-m", "arrr.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)


class TestMalformedFileExitsTwo:
    """A model meta.json value of the wrong JSON type and an empty matrix CSV
    are bad input, reported by file name in one line on stderr."""

    @pytest.mark.parametrize("key, value", [
        ("k2", [1]), ("n", True), ("d1", 10.0), ("delta", "0.001"), ("sigma_eps", True)])
    def test_mistyped_model_meta(self, key, value, tmp_path):
        paths = _matrix_files(tmp_path)
        meta = pathlib.Path(paths["model"]) / "meta.json"
        _write_json(meta.parent, meta.name, dict(json.loads(meta.read_text()), **{key: value}))
        out = tmp_path / "pred.csv"
        run = _run_cli(["predict", "--model", paths["model"], "--x", paths["x"],
                        "--out", str(out)])
        assert run.returncode == 2
        assert run.stderr.startswith("error: %s: %s must be " % (meta, key))
        assert run.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_empty_csv(self, command, tmp_path):
        paths = _matrix_files(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        if command == "fit":
            argv = ["fit", "--x", str(empty), "--y", paths["y"], "--out", str(out)]
        else:
            argv = ["predict", "--model", paths["model"], "--x", str(empty), "--out", str(out)]
        run = _run_cli(argv)
        assert run.returncode == 2
        assert run.stderr == "error: %s holds no data\n" % empty
        assert not out.exists()

    # numpy's own reason follows the file name; its wording varies by version
    @pytest.mark.parametrize("text", ["1,2\n3\n", "1,a\n"], ids=["ragged", "cell"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_unparseable_csv(self, command, text, tmp_path):
        paths = _matrix_files(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "out"
        if command == "fit":
            argv = ["fit", "--x", paths["x"], "--y", str(bad), "--out", str(out)]
        else:
            argv = ["predict", "--model", paths["model"], "--x", str(bad), "--out", str(out)]
        run = _run_cli(argv)
        assert run.returncode == 2
        assert run.stderr.startswith("error: %s: " % bad)
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
        assert not out.exists()


# Degenerate rolling panels under sigma auto: (returns, exit code, what the
# one line on stderr says). The noise pilot reports the constant response and
# the zero residual of the tiny returns; the all-zero panel is reported by the
# check on x that precedes the pilot.
_DEGENERATE_PANELS = {
    "constant": (np.full((200, 6), 0.01), 2, "error: the response y is constant"),
    "all_zero": (np.zeros((200, 6)), 2, "error: x is identically zero"),
    "tiny": (1e-300 * np.random.default_rng(0).normal(size=(200, 6)), 3,
             "numerical failure: the noise pilot's residual is exactly zero"),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_PANELS))
def test_degenerate_panel_under_sigma_auto_exits_cleanly(name, tmp_path):
    returns, code, message = _DEGENERATE_PANELS[name]
    panel = tmp_path / "panel.csv"
    panel.write_text("date," + ",".join("A%d" % j for j in range(returns.shape[1])) + "\n"
                     + "".join("d%03d,%s\n" % (i, ",".join(map(repr, row.tolist())))
                               for i, row in enumerate(returns)))
    cfg = _write_json(tmp_path, "cfg.json", {
        "kind": "rolling", "panel": str(panel), "features": {"lookbacks": [1, 5]},
        "splits": {"train_len": 40, "valid_len": 10, "test_len": 10, "gap_len": 2},
        "fit": {"sigma_eps": "auto"}})
    out = tmp_path / "out"
    run = _run_cli(["rolling", "--config", cfg, "--out", str(out)])
    assert run.returncode == code
    assert run.stderr.startswith(message) and run.stderr.count("\n") == 1
    if code == 2:
        assert not out.exists()
    else:
        assert json.loads((out / "error.json").read_text())["error"] == "ZeroResidualError"


class TestNonFiniteInput:
    def test_fit_nan_exits_three(self, tmp_path):
        paths = _matrix_files(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--x", paths["xnan"], "--y", paths["y"],
                     "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "NonFiniteError"
        assert not (out / "meta.json").exists()

    def test_predict_nan_exits_three(self, tmp_path):
        paths = _matrix_files(tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", paths["model"], "--x", paths["xnan"],
                     "--out", str(out)]) == 3
        assert not out.exists()
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "NonFiniteError"


# Tiny valid configs for the fuzzed-config property: each runs in well under
# a second, and the baselines are the direct solvers only.
_FUZZ_BASES = {
    "sweep": {"synth": {"d1": 6, "d2": 4, "n": 8, "rank_m": 2, "eta": 0.5, "seed": 0},
              "grids": {"k1": [3], "k2": [1], "seeds": [0]},
              "fit": {"delta": 1e-3, "theta": 2.0, "sigma_eps": "oracle"}},
    "compare": {"synth": {"d1": 6, "d2": 4, "n": 8, "rank_m": 2, "omega": 2.0},
                "grids": {"eta": [0.5], "seeds": [0]},
                "fit": {"delta": 1e-6, "sigma_eps": "auto"},
                "baselines": [{"method": "ridge", "mu": [0.1, 1.0]},
                              {"method": "pcr", "rank": [2]}]},
    "packing": {"packing": {"d": 32, "rho": 0.06, "sigma_eps": 1.0, "n_samples": 100,
                            "k_patterns": 8, "s_size": 4, "seed": 0}},
    "angles": {"synth": {"d1": 8, "omega": 2.0, "seed": 1}, "n": 10, "top_k": 3},
    "rolling": {"panel": "{panel}", "features": {"lookbacks": [1, 2], "horizon": 1},
                "splits": {"train_len": 8, "valid_len": 3, "test_len": 3, "gap_len": 0},
                "fit": {"delta": [1e-8, 0.3], "theta": [2.0], "sigma_eps": "auto"},
                "baselines": [{"method": "ridge", "mu": [0.5]},
                              {"method": "rrr", "rank": [1]}]},
}
_DELETE = object()
_FUZZ_VALUES = [_DELETE, None, True, "x", [], {}, [1], ["a"], -1, 0, 1, 2, 7,
                0.5, -0.5, 0.0, float("nan"), float("inf"), float("-inf"),
                1e308, -1e308, 1e-308, 10**400, -10**400]


def _changed(kind, path, value):
    """A copy of the fuzz base `kind` with the value at key `path` replaced."""
    cfg = json.loads(json.dumps(_FUZZ_BASES[kind]))
    node = cfg
    for k in path[:-1]:
        node = node[k]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


# Values that overflow a float in numpy, found by running every base, path
# and value of the fuzzed-config property. Each exited 0 with an infinity in
# its output or exited 3 with overflow warnings on stderr.
OVERFLOW_PROBES = {
    "sweep_eta_1e308": ("sweep", ("synth", "eta"), 1e308),
    "packing_sigma_eps_1e308": ("packing", ("packing", "sigma_eps"), 1e308),
    "compare_eta_1e308": ("compare", ("grids", "eta"), [1e308]),
}


def _square(v):
    return np.array([v]) * v


def test_worker_cells_raise_on_overflow():
    # called outside main, so that a worker process holds numpy's default
    # error state unless _run_cells sets its own
    assert cli._run_cells(_square, [2.0, 3.0], 2)[1].tolist() == [9.0]
    with pytest.raises(FloatingPointError):
        cli._run_cells(_square, [2.0, 1e200], 2)


def _die(args):  # module-level, so that the pool can pickle it
    os._exit(1)


def test_a_worker_that_dies_exits_two_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_sweep_cell", _die)
    cfg = _write_json(tmp_path, "cfg.json", _sweep_cfg(grids={"k1": [5], "k2": [2],
                                                              "seeds": [0, 1]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a --jobs worker process ended abruptly")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool started, in order. The pool is
    a fake that runs its cells in this process, so no worker is forked."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("jobs, cells, sizes", [
    (1, 3, []), (2, 3, [2]), (8, 3, [3]), (8, 1, []), (8, 0, [])])
def test_workers_never_outnumber_cells(jobs, cells, sizes, pool_sizes):
    values = [float(c) for c in range(cells)]
    assert [r.tolist() for r in cli._run_cells(_square, values, jobs)] == [
        [v * v] for v in values]
    assert pool_sizes == sizes


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("probe", sorted(OVERFLOW_PROBES))
def test_overflow_is_a_numerical_failure(probe, jobs, tmp_path):
    kind = OVERFLOW_PROBES[probe][0]
    cfg = _changed(*OVERFLOW_PROBES[probe])
    if jobs == "2" and "grids" in cfg:
        cfg["grids"]["seeds"] = [0, 1]  # two cells, so two workers start
    cfg = _write_json(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    run = _run_cli([kind, "--config", cfg, "--out", str(out), "--jobs", jobs])
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: overflow encountered")
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr
    assert sorted(os.listdir(out)) == ["error.json"]
    assert json.loads((out / "error.json").read_text())["error"] == "FloatingPointError"


# Runs main(argv) in a fresh interpreter and prints its exit code, whether
# arrr.packing was loaded before main ran, and which of the modules that only
# some subcommands need, or none, were loaded after it.
_FOOTPRINT = """
import json, sys
import arrr.cli
at_start = "arrr.packing" in sys.modules
rc = arrr.cli.main(sys.argv[1:])
loaded = [m for m in ("arrr.packing", "concurrent.futures.process", "numpy.ma")
          if m in sys.modules]
print(json.dumps({"rc": rc, "packing_at_start": at_start, "loaded": loaded}))
"""


def _footprint(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arrr.__file__)))
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT] + argv,
                         capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestImportFootprint:
    """`import arrr` loads nothing, a subcommand loads the process pool and
    the packing verifier only when it runs them, and none loads numpy.ma."""

    def test_import_arrr_loads_neither_numpy_nor_a_submodule(self):
        code = ("import json, sys, arrr; print(json.dumps(sorted(m for m in sys.modules"
                " if m in ('numpy', 'arrr') or m.startswith('arrr.'))))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arrr.__file__)))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert json.loads(run.stdout) == ["arrr", "arrr._version"]

    @pytest.mark.parametrize("command", ["fit", "predict", "synth", "sweep"])
    def test_loads_neither_pool_nor_packing(self, command, tmp_path):
        paths = _matrix_files(tmp_path)
        out = str(tmp_path / "out")
        argv = {
            "fit": ["fit", "--x", paths["x"], "--y", paths["y"], "--out", out],
            "predict": ["predict", "--model", paths["model"], "--x", paths["x"],
                        "--out", out + ".csv"],
            "synth": ["synth", "--d1", "5", "--d2", "3", "--n", "10", "--rank", "1",
                      "--out", out],
            # one seed is one cell, which runs in this process at any --jobs
            "sweep": ["sweep", "--config", _write_json(tmp_path, "cfg.json", _sweep_cfg()),
                      "--out", out, "--jobs", "4"],
        }[command]
        assert _footprint(argv) == {"rc": 0, "packing_at_start": False, "loaded": []}

    def test_packing_loads_packing(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {"kind": "packing", "packing": _SMALL_PACKING})
        assert _footprint(["packing", "--config", cfg, "--out", str(tmp_path / "out")]) == {
            "rc": 0, "packing_at_start": False, "loaded": ["arrr.packing"]}

    def test_infeasible_packing_exits_three(self, tmp_path):
        cfg = _write_json(tmp_path, "cfg.json", {
            "kind": "packing",
            "packing": {"d": 64, "rho": 0.0158, "sigma_eps": 1.0,
                        "n_samples": 100, "k_patterns": 1, "s_size": 2,
                        "seed": 0},
        })
        out = tmp_path / "out"
        assert _footprint(["packing", "--config", cfg, "--out", str(out)]) == {
            "rc": 3, "packing_at_start": False, "loaded": ["arrr.packing"]}
        assert sorted(os.listdir(out)) == ["error.json"]
        assert json.loads((out / "error.json").read_text())["error"] == "PackingInfeasibleError"


# For each argv, main's output (stdout, stderr, exit code) and that of the
# full parser, both in one fresh interpreter; main builds a one-subcommand
# parser whenever argv[0] names a subcommand.
_PARSE = """
import contextlib, io, json, sys
import arrr.cli

def run(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ["returned", str(parse(argv))]
        except SystemExit as e:
            code = e.code
    return [out.getvalue(), err.getvalue(), code]

print(json.dumps([[run(arrr.cli.main, argv), run(arrr.cli.build_parser().parse_args, argv)]
                  for argv in json.loads(sys.argv[1])]))
"""

_VALID_ARGV = {
    "fit": ["--x", "x.csv", "--y", "y.csv", "--out", "model"],
    "predict": ["--model", "model", "--x", "x.csv", "--out", "y.csv"],
    "synth": ["--d1", "5", "--d2", "3", "--n", "10", "--rank", "1", "--out", "inst"],
    **dict.fromkeys(cli.EXPERIMENTS, ["--config", "cfg.json", "--out", "out"]),
}
_PARSE_CASES = {"top-help": ["--help"], "no-command": [], "unknown-command": ["fitt"]}
for _name, _valid in _VALID_ARGV.items():
    _PARSE_CASES.update({_name + "-help": [_name, "--help"],
                         _name + "-missing-option": [_name] + _valid[2:],
                         _name + "-unknown-option": [_name] + _valid + ["--bogus"]})


@pytest.fixture(scope="module")
def parse_outputs():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arrr.__file__)))
    run = subprocess.run([sys.executable, "-c", _PARSE, json.dumps(list(_PARSE_CASES.values()))],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return dict(zip(_PARSE_CASES, json.loads(run.stdout)))


def test_every_subcommand_is_covered():
    assert set(_VALID_ARGV) == set(cli.SUBPARSERS)


@pytest.mark.parametrize("case", list(_PARSE_CASES))
def test_main_parses_as_the_full_parser(case, parse_outputs):
    via_main, via_full = parse_outputs[case]
    assert via_main == via_full
    assert via_main[2] == (0 if case.endswith("help") else 2)


def _paths(node, prefix=()):
    """Every key path into a config: dict keys and list positions."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (k,))


_FUZZ_PATHS = [(kind, p) for kind in sorted(_FUZZ_BASES) for p in _paths(_FUZZ_BASES[kind])]


def _assert_config_exits_cleanly(target, value):
    """Run the fuzz base target[0] with the value at key path target[1]
    replaced: exit 0, 2 or 3, no traceback or warning, nothing written on
    exit 2 and error.json on exit 3. Returns what the run wrote to stderr."""
    cfg = _changed(*target, value)
    with tempfile.TemporaryDirectory() as tmp:
        if cfg.get("panel") == "{panel}":
            cfg["panel"] = _write_panel(pathlib.Path(tmp))
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        # record every warning, which would otherwise reach stderr
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([target[0], "--config", cfg_path, "--out", out])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if rc == 2:
            assert not os.path.exists(out)
        if rc == 3:
            assert os.path.exists(os.path.join(out, "error.json"))
    return err.getvalue()


@seed(1)
@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(_FUZZ_PATHS), value=st.sampled_from(_FUZZ_VALUES))
def test_fuzzed_config_exits_cleanly(target, value):
    _assert_config_exits_cleanly(target, value)


# an integer beyond the float range at every key path, which 150 sampled
# examples would not all reach
@pytest.mark.parametrize("target", _FUZZ_PATHS, ids=lambda t: "-".join(map(str, (t[0],) + t[1])))
def test_huge_integer_at_every_config_path(target):
    for value in (10**400, -10**400):
        # a message may name the key, never all the integer's digits
        assert "0" * 20 not in _assert_config_exits_cleanly(target, value)


# Small valid argvs for the fuzzed-argv property, with paths relative to the
# directory it runs in: in/ holds x (12x6), y (12x3) and a model fitted on them.
_ARGV_BASES = {
    "fit": ["fit", "--x", "in/x.csv", "--y", "in/y.csv", "--delta", "0.001", "--theta", "2",
            "--sigma", "1", "--k1", "3", "--k2", "1", "--out", "model"],
    "predict": ["predict", "--model", "in/model", "--x", "in/x.csv", "--out", "pred.csv"],
    "synth": ["synth", "--d1", "6", "--d2", "4", "--n", "8", "--rank", "2", "--omega", "2",
              "--eta", "0.5", "--upsilon", "5", "--seed", "0", "--out", "data"],
}
# the position of each flag's value
_ARGV_TARGETS = [(cmd, i) for cmd in sorted(_ARGV_BASES)
                 for i in range(2, len(_ARGV_BASES[cmd]), 2)]
# 10**400 is refused by numpy at once as a dimension, so nothing is allocated
_ARGV_VALUES = ["nan", "inf", "-inf", "1e308", "1e-308", "-1", "0", str(10**400), "x"]


def _tree(root):
    return sorted((d, sorted(fs)) for d, _, fs in os.walk(root))


# 200 examples exhaust the 180 (target, value) pairs, so each one runs
@seed(1)
@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(_ARGV_TARGETS), value=st.sampled_from(_ARGV_VALUES))
def test_fuzzed_argv_exits_cleanly(target, value):
    cmd, i = target
    argv = list(_ARGV_BASES[cmd])
    argv[i] = value
    out = argv[argv.index("--out") + 1]
    err_dir = (os.path.dirname(out) or ".") if cmd == "predict" else out
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(12, 6)), rng.normal(size=(12, 3))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # every relative path, a fuzzed one too, lands in tmp
        try:
            os.mkdir("in")
            write_matrix_csv("in/x.csv", x)
            write_matrix_csv("in/y.csv", y)
            save_model(fit_adaptive_rrr(x, y, FitConfig(sigma_eps=1.0)), "in/model")
            before = _tree(".")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = main(argv)
                except SystemExit as e:  # argparse rejects the value
                    rc = e.code
            assert rc in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert [str(w.message) for w in caught] == []
            if rc == 2:
                assert _tree(".") == before
            if rc == 3:
                assert os.path.exists(os.path.join(err_dir, "error.json"))
        finally:
            os.chdir(cwd)
