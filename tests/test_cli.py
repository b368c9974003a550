import ast
import dataclasses
import json
import os

import numpy as np
import pytest

from genident import cli, pipeline
from genident.cli import main
from genident.errors import ChainDivergenceError, SolverError
from genident.pipeline import Config, load_config, read_csv


@pytest.fixture()
def tiny_cfg(tmp_path):
    """Config file that keeps CLI runs quick."""
    p = tmp_path / "tiny.cfg"
    p.write_text(
        "n_samples = 64\n"
        "dmaps_k = 12\n"
        "residual_max_k = 11\n"
        "gh_retain = 40\n"
        "# comment line\n"
        "target_dim = 6\n"
    )
    return str(p)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.n_samples == 2000
        assert cfg.dt == 0.02

    def test_file_and_overrides(self, tiny_cfg):
        cfg = load_config(tiny_cfg, seed=9)
        assert cfg.n_samples == 64
        assert cfg.seed == 9
        assert cfg.target_dim == 6

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("not_a_key = 3\n")
        from genident.errors import DomainError
        with pytest.raises(DomainError):
            load_config(str(p))

    def test_every_key_is_read(self):
        read = set()
        for module in (pipeline, cli):
            with open(module.__file__, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "cfg"}
        unread = {f.name for f in dataclasses.fields(Config)} - read
        assert not unread, f"config keys nothing reads as cfg.<key>: {sorted(unread)}"


class TestCliStages:
    def test_simulate_writes_trajectory(self, tmp_path, tiny_cfg):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", tiny_cfg, "--out", out]) == 0
        header, data = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["t", "delta", "omega", "eq1", "ed1", "eq2", "ed2"]
        assert data.shape[1] == 7
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["stages"][0]["stage"] == "simulate"
        assert all("sha256" in f for f in manifest["stages"][0]["files"])

    def test_sample_then_ensemble_then_fim(self, tmp_path, tiny_cfg):
        out = str(tmp_path / "run")
        assert main(["sample", "--config", tiny_cfg, "--out", out]) == 0
        header, params = read_csv(os.path.join(out, "ensemble_params.csv"))
        assert params.shape == (64, 11)
        assert main(["ensemble", "--config", tiny_cfg, "--out", out]) == 0
        _, outputs = read_csv(os.path.join(out, "ensemble_outputs.csv"))
        assert outputs.shape == (64, 606)
        assert main(["fim", "--config", tiny_cfg, "--out", out, "--svg"]) == 0
        spec = json.load(open(os.path.join(out, "spectrum.json")))
        assert len(spec["eigenvalues"]) == 11
        assert os.path.exists(os.path.join(out, "spectrum.svg"))

    def test_rerun_is_byte_identical(self, tmp_path, tiny_cfg):
        out = str(tmp_path / "run")
        main(["sample", "--config", tiny_cfg, "--out", out])
        first = open(os.path.join(out, "ensemble_params.csv"), "rb").read()
        main(["sample", "--config", tiny_cfg, "--out", out])
        second = open(os.path.join(out, "ensemble_params.csv"), "rb").read()
        assert first == second

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_gh_eval_roundtrip(self, tmp_path):
        # minimal hand-built model file exercises the stored-model interface
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (80, 2))
        y = X[:, 0] + 0.5 * X[:, 1]
        from genident.harmonics import gh_fit, gh_predict
        from genident.pipeline import _gh_model_json, write_json, write_csv
        m = gh_fit(X, y, retain=40, target_names=("f",))
        out = str(tmp_path / "run")
        os.makedirs(out)
        model_path = os.path.join(out, "model.json")
        write_json(model_path, _gh_model_json(m, [1, 2], np.arange(60), np.arange(60, 80)))
        inputs_path = os.path.join(out, "inputs.csv")
        write_csv(inputs_path, ["x1", "x2"], X[:5])
        code = main(["gh-eval", "--model", model_path, "--inputs", inputs_path,
                     "--out", out])
        assert code == 0
        _, pred = read_csv(os.path.join(out, "gh_eval.csv"))
        np.testing.assert_allclose(pred[:, 0], gh_predict(m, X[:5]), rtol=1e-12)

    def test_mbam_forwards_the_geodesic_keys(self, tmp_path, monkeypatch):
        from genident import geodesics
        calls = []

        def step(flags, grid, **options):
            calls.append(options)
            raise SolverError("recorded")

        monkeypatch.setattr(geodesics, "mbam_step", step)
        cfg = Config(geo_vel_ratio=500.0, geo_log_bound=12.0, geo_rtol=1e-3)
        with pytest.raises(ChainDivergenceError):
            pipeline.stage_mbam(cfg, str(tmp_path))
        assert calls == [{"iq_form": cfg.iq_form, "vel_ratio": 500.0,
                          "log_bound": 12.0, "rtol": 1e-3}]
