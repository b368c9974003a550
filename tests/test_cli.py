import argparse
import ast
import dataclasses
import glob
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from genident import cli, ensemble, generator, pipeline
from genident.cli import main
from genident.errors import ChainDivergenceError, DomainError, SolverError
from genident.pipeline import Config, load_config, read_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parsed(*patterns):
    """(path, syntax tree) of every file under the repository root matching a pattern."""
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            with open(path, encoding="utf-8") as fh:
                yield path, ast.parse(fh.read())


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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """(config path, run directory) of a small ensemble taken through the
    residuals stage; the residual-gap rule picks the coordinates."""
    root = tmp_path_factory.mktemp("small")
    cfg_path = root / "small.cfg"
    cfg_path.write_text("n_samples = 64\ndmaps_k = 12\nresidual_max_k = 8\n")
    out = str(root / "run")
    for stage in ("sample", "ensemble", "dmaps", "residuals"):
        assert main([stage, "--config", str(cfg_path), "--out", out]) == 0
    return str(cfg_path), out


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
        # all but the first were keys once; an old config file must fail loudly
        for line in ("not_a_key = 3", 'iq_form = "standard"', "sens_step = 1e-4",
                     "sens_rtol = 1e-9", "geo_vel_ratio = 1000.0", "geo_log_bound = 25.0",
                     "paper_scale_samples = 10000", "perturbation = 0.1", "rtol = 1e-7",
                     "projection_threshold = 0.8", "dmaps_epsilon_mult = 3.0",
                     "gh_epsilon_mult = 0.5", "train_frac = 0.8", "split_seed = 1"):
            p = tmp_path / "bad.cfg"
            p.write_text(line + "\n")
            with pytest.raises(DomainError, match="unknown config key"):
                load_config(str(p))

    @pytest.mark.parametrize("line, key", [
        ("n_samples = 1e3", "n_samples"), ('n_samples = "abc"', "n_samples"),
        ("dt = x", "dt"), ("seed = true", "seed"), ("dt = false", "dt"), ("dt = 1", None),
        ("fim_cutoff = NaN", "fim_cutoff"), ("geo_rtol = Infinity", "geo_rtol"),
    ])
    def test_value_types_checked(self, tmp_path, line, key):
        # an int field takes an int, a float field a finite int or float, and
        # neither takes a bool
        p = tmp_path / "typed.cfg"
        p.write_text(line + "\n")
        if key is None:
            assert load_config(str(p)).dt == 1
            return
        with pytest.raises(DomainError, match=f"config key '{key}'"):
            load_config(str(p))
        assert main(["sample", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

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

    def test_every_cli_option_is_read(self):
        # each subcommand's options must be read as args.<dest>: gh-eval's in
        # _cmd_gh_eval, a stage's in main, which builds the config from them
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        read = {fn.name: {node.attr for node in ast.walk(fn)
                          if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id == "args"}
                for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        unread = [f"{name} {a.dest}" for name, p in sub.choices.items() for a in p._actions
                  if a.dest != "help"
                  and a.dest not in read["_cmd_gh_eval" if name == "gh-eval" else "main"]]
        assert not unread, f"options nothing reads as args.<dest>: {unread}"

    def test_no_unused_imports(self):
        unused = []
        for path, tree in _parsed("src/genident/*.py", "tests/*.py"):
            if path.endswith("__init__.py"):  # it imports only to re-export
                continue
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update({a.asname or a.name.partition(".")[0]: node.lineno
                                     for a in node.names})
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update({a.asname or a.name: node.lineno for a in node.names})
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                       for name, line in imported.items() if name not in used]
        assert not unused, f"imported names never used: {unused}"

    def test_every_module_level_name_is_referenced(self):
        # functions, classes and constants of the package, and the public methods of its
        # classes; an import (a re-export) is no use, and an attribute of an imported
        # module (np.all, os.path) is no use of a method.  Only the package, the demos
        # and the benchmark count as users: a name that only tests reach fails.  Names
        # are matched, not bindings, so a namesake elsewhere lets a name through:
        # generator.rhs, the single-state entry the generator tests are written
        # against, passes on geodesics' local rhs (as Dataset.inverse, since deleted,
        # passed on GHTrack.inverse)
        defined = {}
        for path, tree in _parsed("src/genident/*.py"):
            where = os.path.relpath(path, ROOT)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined.update({name: f"{where}:{node.lineno}"
                                for name in names if not name.startswith("__")})
                if isinstance(node, ast.ClassDef):
                    defined.update({f"{node.name}.{m.name}": f"{where}:{m.lineno}"
                                    for m in node.body if isinstance(m, ast.FunctionDef)
                                    and not m.name.startswith("_")})
        used, used_as_method = set(), set()
        for _, tree in _parsed("src/**/*.py", "demos/**/*.py", "benchmarks/**/*.py"):
            # names bound to modules: plain imports, and the package's submodules
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules.update(a.asname or a.name.partition(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module in ("genident", None):
                    modules.update(a.asname or a.name for a in node.names)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                        used_as_method.add(node.attr)
        unused = sorted(f"{where} {name}" for name, where in defined.items()
                        if name.rpartition(".")[2] not in
                        (used_as_method if "." in name else used))
        assert not unused, f"package names and public methods nothing references: {unused}"

    def test_every_demo_import_resolves(self):
        # the dead-name scan checks that defined names are used, not that used names
        # exist; a demo is not run by the suite, so a name it imports that the package
        # no longer defines, or a config key it reads as cfg.<key> that Config no
        # longer has, would otherwise go unnoticed
        missing = []
        for path, tree in _parsed("demos/*.py"):
            where = os.path.relpath(path, ROOT)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("genident"):
                    module = importlib.import_module(node.module)
                    missing += [f"{where}:{node.lineno} {node.module}.{a.name}"
                                for a in node.names if not hasattr(module, a.name)]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "cfg" and not hasattr(Config, node.attr)):
                    missing.append(f"{where}:{node.lineno} cfg.{node.attr}")
        assert not missing, f"demo imports and config keys the package does not define: {missing}"

    def test_every_parameter_is_read(self):
        # each parameter of every function of the package, methods and nested
        # functions included, must be loaded somewhere in its body.  Nested ones
        # count too: the package's own stepper calls a right-hand side as fun(y),
        # so no outside solver fixes a callback's signature.  Names are matched,
        # not bindings
        unread = []
        for path, tree in _parsed("src/genident/*.py"):
            where = os.path.relpath(path, ROOT)
            for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
                a = fn.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {node.id for node in ast.walk(fn)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                unread += [f"{where}:{fn.lineno} {fn.name}({p})" for p in params if p not in read]
        assert not unread, f"parameters nothing reads: {unread}"


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
        assert main(["fim", "--config", tiny_cfg, "--out", out]) == 0
        spec = json.load(open(os.path.join(out, "spectrum.json")))
        assert len(spec["eigenvalues"]) == 11
        assert os.path.exists(os.path.join(out, "spectrum.svg"))
        assert main(["dmaps", "--config", tiny_cfg, "--out", out]) == 0
        assert main(["residuals", "--config", tiny_cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "residuals.json")))
        assert os.path.exists(os.path.join(out, "residuals.svg"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        # one entry per stage run, named by its STAGES key
        assert ([s["stage"] for s in manifest["stages"]]
                == ["sample", "ensemble", "fim", "dmaps", "residuals"])
        entry = manifest["stages"][-1]
        assert entry["ridge_fallbacks"] == report["ridge_fallbacks"] >= 0
        parser = cli._build_parser()
        assert [parser.parse_args([name]).command for name in pipeline.STAGES] \
            == list(pipeline.STAGES)

    def test_gh_stages_record_their_eigenpairs(self, small_run, tmp_path):
        # gh-fit and ift write, per model they fit, the kernel eigenpairs kept and
        # those below the delta * sigma_0 floor; the warning still names the latter
        cfg_path, out = small_run
        run = str(tmp_path / "run")
        shutil.copytree(out, run)
        floor = tmp_path / "floor.cfg"  # a floor high enough to drop some at 64 rows
        with open(cfg_path, encoding="utf-8") as fh:
            floor.write_text(fh.read() + "gh_delta = 1e-4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for stage in ("gh-fit", "ift"):
                assert main([stage, "--config", str(floor), "--out", run]) == 0
        with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
            entries = {s["stage"]: s for s in json.load(fh)["stages"]}
        fitted = entries["gh-fit"]["eigenpairs"]
        fits = [fitted["forward"], fitted["inverse"],
                entries["ift"]["eigenpairs"]["inverse_square"]]
        for name, counts in (("gh_forward.json", fitted["forward"]),
                             ("gh_inverse.json", fitted["inverse"])):
            with open(os.path.join(run, name), encoding="utf-8") as fh:
                model = json.load(fh)
            assert counts["retained"] == len(model["eigenvalues"])
        asked = min(load_config(str(floor)).gh_retain, len(model["train_rows"]))
        assert all(f["retained"] + f["dropped"] == asked for f in fits)
        warned = [int(m.group(1)) for w in caught
                  if (m := re.match(r"dropped (\d+) eigenpair", str(w.message)))]
        assert warned == [f["dropped"] for f in fits if f["dropped"]]
        assert warned  # the counts are not all zero

    def test_compare_and_ift_name_the_same_identifiable_set(self, small_run, tmp_path):
        # both stages take the parameters with the smallest forward test error
        cfg_path, out = small_run
        run = str(tmp_path / "run")
        shutil.copytree(out, run)
        for stage in ("gh-fit", "ift", "fim", "compare"):
            assert main([stage, "--config", cfg_path, "--out", run]) == 0
        with open(os.path.join(run, "ift.json"), encoding="utf-8") as fh:
            identifiable = json.load(fh)["identifiable_parameters"]
        with open(os.path.join(run, "comparison.json"), encoding="utf-8") as fh:
            assert json.load(fh)["gh_identifiable_set"] == sorted(identifiable)

    def test_simulate_takes_a_dt_that_does_not_divide_t_end(self, tmp_path):
        cfg = tmp_path / "dt.cfg"
        cfg.write_text("dt = 0.03\n")
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        _, data = read_csv(os.path.join(out, "trajectory.csv"))
        assert data[-1, 0] <= 5.0 and data.shape[0] == 167

    def test_manifest_records_the_fixed_constants(self, tmp_path, tiny_cfg, monkeypatch):
        # each entry names the fixed choices no config key sets, so runs whose
        # constants differ write different manifests
        def constants(out):
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                return [s["constants"] for s in json.load(fh)["stages"]]

        out = str(tmp_path / "run")
        for stage in ("simulate", "sample"):
            assert main([stage, "--config", tiny_cfg, "--out", out]) == 0
        want = {"DEFAULT_PERTURBATION": ensemble.DEFAULT_PERTURBATION,
                "SOLVE_TOL": generator.SOLVE_TOL,
                "DEFAULT_PROJECTION_THRESHOLD": ensemble.DEFAULT_PROJECTION_THRESHOLD,
                "DMAPS_EPSILON_MULT": pipeline.DMAPS_EPSILON_MULT,
                "GH_EPSILON_MULT": pipeline.GH_EPSILON_MULT,
                "TRAIN_FRAC": pipeline.TRAIN_FRAC, "SPLIT_SEED": pipeline.SPLIT_SEED}
        assert constants(out) == [want, want]
        monkeypatch.setattr(pipeline, "TRAIN_FRAC", 0.7)
        other = str(tmp_path / "other")
        assert main(["simulate", "--config", tiny_cfg, "--out", other]) == 0
        assert constants(other) == [{**want, "TRAIN_FRAC": 0.7}]

    @pytest.mark.parametrize("fmt", ["%.12g", "%d"])
    def test_formatted_rows_equal_per_cell_formatting(self, tmp_path, fmt):
        rows = np.random.default_rng(5).normal(0, 1e3, (7, 5))
        path = str(tmp_path / "rows.csv")
        pipeline.write_csv(path, ["a", "b", "c", "d", "e"], rows, fmt=fmt)
        want = "a,b,c,d,e\n" + "".join(",".join(fmt % v for v in row) + "\n"
                                       for row in rows.tolist())
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()

    def test_rerun_is_byte_identical(self, tmp_path, tiny_cfg):
        out = str(tmp_path / "run")
        main(["sample", "--config", tiny_cfg, "--out", out])
        first = open(os.path.join(out, "ensemble_params.csv"), "rb").read()
        main(["sample", "--config", tiny_cfg, "--out", out])
        second = open(os.path.join(out, "ensemble_params.csv"), "rb").read()
        assert first == second

    def test_residuals_stage_matches_the_in_memory_selection(self, small_run):
        # the stage reads embedding.csv, whose column 0 holds the sample ids where
        # the in-memory embedding holds phi_0, so equal results also show that
        # column 0 is not read
        cfg_path, out = small_run
        cfg = load_config(cfg_path)
        _, outputs = read_csv(os.path.join(out, "ensemble_outputs.csv"))
        phi = pipeline.embed_outputs(outputs, cfg).eigenvectors
        rep, sel = pipeline.select_coordinates(phi, cfg)
        with open(os.path.join(out, "residuals.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        np.testing.assert_array_equal(report["residuals"], rep.residuals)
        assert report["selected"] == list(sel.indices)
        assert np.isfinite(sel.gap_ratio) and report["gap_ratio"] == sel.gap_ratio

    @pytest.mark.parametrize("stage, line, argv", [
        ("sample", "", ["--seed", "-1"]),
        ("residuals", "residual_max_k = 0", []),
        ("residuals", "residual_bandwidth_mult = 0.0", []),
        ("gh-fit", "gh_delta = 1.0", []),
        ("simulate", "dt = 0.0", []),
        ("simulate", "dt = -0.02", []),
    ], ids=["seed", "residual_max_k", "residual_bandwidth_mult", "gh_delta", "dt-zero",
            "dt-negative"])
    def test_out_of_range_value_exits_2(self, small_run, tmp_path, capsys, stage, line, argv):
        # each fails as a precondition at the first stage that reads it: not with a
        # traceback, a singular solve, NaN errors or a model with no basis
        cfg_path, out = small_run
        run = str(tmp_path / "run")
        shutil.copytree(out, run)
        bad = tmp_path / "bad.cfg"
        with open(cfg_path, encoding="utf-8") as fh:
            bad.write_text(fh.read() + line + "\n")
        assert main([stage, "--config", str(bad), "--out", run, *argv]) == 2
        assert "precondition violation" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["geo_rtol = 0.0", "geo_rtol = 1e-15"],
                             ids=["geodesic-zero", "geodesic-below-floor"])
    def test_tolerance_not_positive_exits_2(self, tmp_path, capsys, line):
        # scipy's RK45 would silently raise an rtol below 100 machine epsilons,
        # zero and negative ones included, to that floor; the stepper takes it as
        # given, so it is rejected up front (the model solve's own rtol is a
        # library default, checked in test_generator and test_ensemble)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(line + "\n")
        assert main(["geodesic", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["geodesic", "mbam"])
    def test_geo_rtol_below_the_contraction_noise_exits_2(self, tmp_path, monkeypatch,
                                                          capsys, stage):
        # at a tighter geo_rtol the geodesic would crawl for 80-90 s to a failure;
        # it is refused before the first sensitivity solve
        from genident import geodesics

        def solve(*args, **kwargs):
            raise AssertionError("the model was solved")

        monkeypatch.setattr(geodesics, "sensitivities", solve)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("geo_rtol = 1e-8\n")
        assert main([stage, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "geo_rtol must be at least 1e-07" in capsys.readouterr().err

    def test_compare_reads_the_spectrum_fim_wrote(self, tmp_path, tiny_cfg, nominal_spectrum):
        # the fim stage writes the signed modes, and compare builds its spectrum from
        # them: the same report as compare_tracks on the in-memory spectrum
        from genident.ensemble import compare_tracks
        from genident.pipeline import write_json
        out = str(tmp_path / "run")
        assert main(["fim", "--config", tiny_cfg, "--out", out]) == 0
        with open(os.path.join(out, "spectrum.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        np.testing.assert_array_equal(spec["eigenvectors"], nominal_spectrum.eigenvectors)
        np.testing.assert_array_equal(spec["participation"], np.square(spec["eigenvectors"]))
        # the heatmap holds the same values, row by row, exactly
        with open(os.path.join(out, "spectrum_heatmap.csv"), encoding="utf-8") as fh:
            heat = [line.rstrip("\n").split(",") for line in fh][1:]
        assert [row[0] for row in heat] == ["eigenvalue", *spec["names"]]
        assert ([[float(v) for v in row[1:]] for row in heat]
                == [spec["eigenvalues"], *spec["participation"]])
        selected = [1, 2, 4, 5, 7, 9]
        mae = {nm: 0.01 * (i + 1) for i, nm in enumerate(nominal_spectrum.param_names[::-1])}
        write_json(os.path.join(out, "residuals.json"), {"selected": selected})
        write_json(os.path.join(out, "gh_mae.json"), {"forward_mae": mae})
        assert main(["compare", "--config", tiny_cfg, "--out", out]) == 0
        want = compare_tracks(nominal_spectrum, len(selected), mae,
                              cutoff=load_config(tiny_cfg).fim_cutoff)
        with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
            assert json.load(fh) == want.to_dict()
        # a spectrum written without the modes asks for the fim stage to be rerun
        del spec["eigenvectors"]
        write_json(os.path.join(out, "spectrum.json"), spec)
        assert main(["compare", "--config", tiny_cfg, "--out", out]) == 2

    @pytest.mark.parametrize("argv, missing", [
        (["fim", "--config", "missing.cfg"], "missing.cfg"),
        (["gh-eval", "--model", "missing.json", "--inputs", "rows.csv"], "missing.json"),
        (["ift"], "gh_forward.json"),
    ])
    def test_missing_input_file_exits_2(self, tmp_path, monkeypatch, capsys, argv, missing):
        # a missing input is a precondition violation: one line naming the file
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", str(tmp_path / "empty")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and missing in err and "Traceback" not in err

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_gh_eval_roundtrip(self, tmp_path, capsys):
        # minimal hand-built model file exercises the stored-model interface
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (80, 2))
        y = X[:, 0] + 0.5 * X[:, 1]
        from genident.harmonics import gh_fit, gh_predict
        from genident.pipeline import (_gh_model_json, gh_model_from_json, read_json,
                                       write_csv, write_json)
        m = gh_fit(X, y, retain=40, target_names=("f",))
        out = str(tmp_path / "run")
        os.makedirs(out)
        model_path = os.path.join(out, "model.json")
        obj = _gh_model_json(m, [1, 2], np.arange(60), np.arange(60, 80))
        # a key the model does not name, such as the training rescaling's column
        # ranges that older files carried, is ignored
        obj["output_scaling"] = [[0.0, 0.0], [1.0, 1.0]]
        write_json(model_path, obj)
        # the file holds the (N, n_targets) Nystrom weights and not the basis,
        # and the model read back predicts bit for bit what was fitted
        stored = read_json(model_path)
        assert np.shape(stored["weights"]) == (80, 1)
        assert "eigenvectors" not in stored and "coefficients" not in stored
        assert gh_predict(gh_model_from_json(stored), X).tobytes() == gh_predict(m, X).tobytes()
        inputs_path = os.path.join(out, "inputs.csv")
        write_csv(inputs_path, ["x1", "x2"], X[:5])
        argv = ["gh-eval", "--model", model_path, "--inputs", inputs_path, "--out", out]
        assert main(argv) == 0
        _, pred = read_csv(os.path.join(out, "gh_eval.csv"))
        np.testing.assert_allclose(pred[:, 0], gh_predict(m, X[:5]), rtol=1e-12)
        # a file without a key that prediction reads exits 2 with one line naming
        # it: so does one written when model files held the kernel basis and its
        # projections in place of the weights
        capsys.readouterr()
        for key in ("epsilon_star", "training_inputs", "weights"):
            write_json(model_path, {k: v for k, v in obj.items() if k != key})
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and repr(key) in err and "Traceback" not in err
        # it reads no config, so it takes none of the stages' options
        for extra in (["--seed", "1"], ["--config", "bad.cfg"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2

    @pytest.mark.parametrize("case, named", [
        ("weights_rows", "weights"),
        ("epsilon_zero", "epsilon_star"),
        ("non_numeric_cell", "inputs.csv"),
        ("inputs_columns", "inputs.csv"),
        ("truncated_json", "model.json"),
    ])
    def test_malformed_gh_eval_file_exits_2(self, tmp_path, capsys, case, named):
        # a model or inputs file that does not parse or whose arrays do not fit
        # together is a precondition violation: one line naming the fault
        from genident.pipeline import write_json
        obj = {"training_inputs": np.linspace(0, 1, 10).reshape(5, 2).tolist(),
               "epsilon_star": 0.5, "eigenvalues": [1.0], "weights": [[1.0]] * 5,
               "target_names": ["f"], "target_ndim": 1}
        inputs = "x1,x2\n0.1,0.2\n0.3,0.4\n"
        model_path, inputs_path = tmp_path / "model.json", tmp_path / "inputs.csv"
        argv = ["gh-eval", "--model", str(model_path), "--inputs", str(inputs_path),
                "--out", str(tmp_path / "run")]
        write_json(str(model_path), obj)
        inputs_path.write_text(inputs)
        assert main(argv) == 0  # the files as written are well formed
        if case == "weights_rows":
            obj["weights"] = obj["weights"][:-1]
        elif case == "epsilon_zero":
            obj["epsilon_star"] = 0.0
        elif case == "non_numeric_cell":
            inputs += "0.5,abc\n"
        elif case == "inputs_columns":
            inputs = "x1\n0.1\n"
        write_json(str(model_path), obj)
        if case == "truncated_json":
            model_path.write_text(model_path.read_text()[:40])
        inputs_path.write_text(inputs)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err and "Traceback" not in err

    def test_mbam_forwards_the_geodesic_keys(self, tmp_path, monkeypatch):
        from genident import geodesics
        calls = []

        def step(flags, grid, **options):
            calls.append(options)
            raise SolverError("recorded")

        monkeypatch.setattr(geodesics, "mbam_step", step)
        cfg = Config(geo_rtol=1e-3)
        with pytest.raises(ChainDivergenceError):
            pipeline.run_stage("mbam", cfg, str(tmp_path))
        assert calls == [{"rtol": 1e-3}]
        # the diverged ladder is written and recorded before it is raised
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert [(s["stage"], [f["path"] for f in s["files"]]) for s in manifest["stages"]] \
            == [("mbam", ["mbam_chain.json"])]

    def test_pipeline_runs_the_ladder_last(self, tmp_path, monkeypatch):
        # no stage reads what mbam writes, so a ladder that stops raises only
        # after every other stage has run and been recorded
        ran = []

        def recorder(name):
            def stage(cfg, st):
                ran.append(name)
                if name == "mbam":
                    with open(st.path("mbam_chain.json"), "w", encoding="utf-8") as fh:
                        fh.write("[]\n")
                    raise ChainDivergenceError("recorded")
            return stage

        for name in list(pipeline.STAGES):
            monkeypatch.setitem(pipeline.STAGES, name, recorder(name))
        with pytest.raises(ChainDivergenceError):
            pipeline.run_stage("pipeline", Config(), str(tmp_path))
        assert sorted(ran) == sorted(pipeline.STAGES) and ran[-1] == "mbam"
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert [s["stage"] for s in manifest["stages"]] == ran
        assert len(ran) == 12


def _modules_loaded(lines) -> list[str]:
    """Every module name a fresh interpreter holds after running ``lines``."""
    code = "\n".join(["import sys", "import numpy as np", *lines,
                      "print(' '.join(sorted(sys.modules)))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def _assert_no_heavy_scipy(loaded) -> None:
    assert "scipy" in loaded  # the version stamp; the check below is not vacuous
    heavy = [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize",
                                                 "scipy.linalg", "scipy.sparse"))]
    assert not heavy, f"scipy submodules loaded: {heavy}"


def test_cli_and_analytic_track_load_no_scipy_submodule():
    # in a fresh interpreter: the CLI, the model map, a sensitivity Jacobian, a
    # geodesic contraction and a geodesic traced to its boundary (on the
    # exp-sum toy) load no scipy submodule; the bare scipy import for the
    # manifest's version stamp is allowed
    _assert_no_heavy_scipy(_modules_loaded([
        "import genident.cli",
        "from genident.fim import central_difference_jacobian, generator_map, sensitivities",
        "from genident.generator import IndependentParams, LimitFlags, integrate",
        "from genident.geodesics import contraction_for_map, trace_geodesic",
        "p = IndependentParams.nominal()",
        "integrate(p)",
        "sensitivities(p, LimitFlags.first(2))",
        "contraction_for_map(generator_map(LimitFlags()), np.log(p.to_array()), np.ones(11))",
        "ts = np.array([0.25, 0.75, 1.5, 3.0])",
        "def toy(x):",
        "    th = np.exp(np.atleast_2d(x))",
        "    return np.exp(-th[:, :1] * ts) + np.exp(-th[:, 1:2] * ts)",
        "x0 = np.log([1.0, 3.0])",
        "J = central_difference_jacobian(toy, x0, 1e-5)",
        "lam, U = np.linalg.eigh(J.T @ J)",
        "v0 = np.sign(U[1, 0]) * U[:, 0] / np.sqrt(lam[0])",
        "tr = trace_geodesic(toy, x0, v0, tau_max=10 * np.sqrt(lam[0]))",
        "assert tr.terminated == 'boundary', tr.terminated",
    ]))


def test_data_track_below_3000_rows_loads_no_scipy_submodule():
    # the diffusion map, the residuals, a geometric-harmonics fit and its
    # Jacobian check on 200 rows: the kernel eigensolves take numpy's eigh, and
    # only ARPACK, above 3000 rows, brings in scipy.sparse
    _assert_no_heavy_scipy(_modules_loaded([
        "from genident.dmaps import local_linear_residuals",
        "from genident.harmonics import gh_fit, jacobian_report",
        "from genident.pipeline import Config, embed_outputs",
        "x = np.random.default_rng(0).uniform(0, 1, (200, 2))",
        "outputs = np.column_stack([x, np.sin(3 * x), x[:, :1] * x[:, 1:]])",
        "emb = embed_outputs(outputs, Config(dmaps_k=8))",
        "local_linear_residuals(emb.eigenvectors)",
        "m = gh_fit(x, np.column_stack([x[:, 0] + x[:, 1], x[:, 0] - x[:, 1]]), retain=100)",
        "jacobian_report(m, x[:20])",
    ]))
