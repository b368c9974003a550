"""File-based pipeline stages: every analysis step reads and writes run-directory
artifacts so the two tracks can execute independently and be diffed.

Each stage appends a manifest entry (config snapshot, seeds, output files with
content hashes, wall-clock) before returning; artifacts from earlier stages
are never rewritten by later ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy

from . import __version__
from .dmaps import (
    DEFAULT_RESIDUAL_BANDWIDTH_MULT,
    Dataset,
    DMapsEmbedding,
    NonharmonicSelection,
    ResidualReport,
    dmaps,
    local_linear_residuals,
    median_epsilon,
    rescale01,
    select_nonharmonic,
)
from .ensemble import EnsembleSpec, compare_tracks, run_ensemble, sample_ensemble
from .errors import ChainDivergenceError, DomainError
from .fim import effective_dimension, fim, sensitivities, spectrum
from .generator import (
    IQ_STANDARD,
    PARAM_NAMES,
    STATE_NAMES,
    IndependentParams,
    LimitFlags,
    ObservationGrid,
    integrate,
)
from .geodesics import mbam_chain, mbam_step
from .harmonics import GHModel, JacobianReport, gh_fit, gh_predict, jacobian_report

__all__ = ["Config", "Stage", "load_config", "run_stage", "STAGES", "write_csv",
           "embed_outputs", "select_coordinates", "GHTrack", "fit_gh_track",
           "square_ift_reports"]


@dataclass(frozen=True)
class Config:
    """Every tunable of the pipeline; mirrors the config-file keys one to one."""

    n_samples: int = 2000
    paper_scale_samples: int = 10000
    perturbation: float = 0.10
    seed: int = 0
    workers: int = 1
    t_start: float = 3.0
    t_end: float = 5.0
    dt: float = 0.02
    rtol: float = 1e-7
    sens_rtol: float = 1e-9
    sens_step: float = 1e-4
    iq_form: str = IQ_STANDARD
    fim_cutoff: float = 1e-2
    projection_threshold: float = 0.8
    geo_vel_ratio: float = 1e3
    geo_log_bound: float = 25.0
    geo_rtol: float = 1e-6
    dmaps_epsilon_mult: float = 3.0
    dmaps_k: int = 41
    residual_bandwidth_mult: float = DEFAULT_RESIDUAL_BANDWIDTH_MULT
    residual_max_k: int = 40
    target_dim: int = 0  # 0 means use the residual-gap rule
    gh_retain: int = 250
    gh_delta: float = 1e-9
    gh_epsilon_mult: float = 0.5
    train_frac: float = 0.8
    split_seed: int = 1
    svg: bool = False

    def grid(self) -> ObservationGrid:
        return ObservationGrid(self.t_start, self.t_end, self.dt)


def load_config(path: str | None, **overrides) -> Config:
    """Config from a key = value file (JSON-style values), plus overrides."""
    values: dict = {}
    if path:
        known = {f.name: f.type for f in fields(Config)}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in known:
                    raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = json.loads(raw)
                except json.JSONDecodeError:
                    values[key] = raw
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return Config(**values)
    except TypeError as exc:
        raise DomainError(f"bad config: {exc}") from None


# ---------------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------------

def write_csv(path: str, header: list[str], rows: np.ndarray, fmt: str | None = None) -> None:
    """Header line plus comma-separated rows.

    By default each value is written as the shortest decimal that reads back
    bit-identical (Python's float ``repr``); a %-format in ``fmt`` rounds
    instead.
    """
    rows = np.atleast_2d(np.asarray(rows))
    cell = repr if fmt is None else fmt.__mod__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(",".join(map(cell, row)) + "\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Stage:
    """Run-directory context: collects output files and appends a manifest entry."""

    def __init__(self, out_dir: str, name: str, cfg: Config):
        self.out_dir = out_dir
        self.name = name
        self.cfg = cfg
        self.files: list[str] = []
        self.extra: dict = {}
        os.makedirs(out_dir, exist_ok=True)
        self._t0 = time.time()

    def path(self, filename: str) -> str:
        p = os.path.join(self.out_dir, filename)
        self.files.append(p)
        return p

    def finish(self) -> None:
        manifest_path = os.path.join(self.out_dir, "manifest.json")
        manifest = read_json(manifest_path) if os.path.exists(manifest_path) else {
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "stages": [],
        }
        entry = {
            "stage": self.name,
            "config": asdict(self.cfg),
            "seeds": {"ensemble": self.cfg.seed, "split": self.cfg.split_seed},
            "wall_clock_s": round(time.time() - self._t0, 3),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "genident": __version__,
            },
            "files": [{"path": os.path.relpath(p, self.out_dir), "sha256": _sha256(p)}
                      for p in self.files],
        }
        entry.update(self.extra)
        manifest["stages"] = [s for s in manifest["stages"] if s["stage"] != self.name]
        manifest["stages"].append(entry)
        tmp = manifest_path + ".tmp"
        write_json(tmp, manifest)
        os.replace(tmp, manifest_path)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_simulate(cfg: Config, out_dir: str) -> str:
    """Nominal full-model trajectory sampled on the observation grid."""
    st = Stage(out_dir, "simulate", cfg)
    traj = integrate(IndependentParams.nominal(), rtol=cfg.rtol, atol=cfg.rtol,
                     t_end=cfg.t_end, iq_form=cfg.iq_form)
    t = np.arange(0.0, cfg.t_end + cfg.dt / 2, cfg.dt)
    states = traj.at(t)[0]
    path = st.path("trajectory.csv")
    write_csv(path, ["t", *STATE_NAMES], np.column_stack([t, states]))
    st.finish()
    return path


def stage_sample(cfg: Config, out_dir: str) -> str:
    st = Stage(out_dir, "sample", cfg)
    spec = EnsembleSpec(cfg.n_samples, cfg.perturbation, cfg.seed)
    params = sample_ensemble(spec)
    path = st.path("ensemble_params.csv")
    write_csv(path, list(PARAM_NAMES), params)
    st.finish()
    return path


def stage_ensemble(cfg: Config, out_dir: str) -> str:
    st = Stage(out_dir, "ensemble", cfg)
    _, params = read_csv(os.path.join(out_dir, "ensemble_params.csv"))
    run = run_ensemble(params, cfg.grid(), workers=cfg.workers, rtol=cfg.rtol,
                       iq_form=cfg.iq_form)
    path = st.path("ensemble_outputs.csv")
    write_csv(path, [f"y{i}" for i in range(run.outputs.shape[1])], run.outputs,
              fmt="%.12g")
    idx_path = st.path("ensemble_rows.csv")
    write_csv(idx_path, ["row"], run.row_indices[:, None], fmt="%d")
    st.extra["failures"] = list(run.failures)
    st.finish()
    return path


def _spectrum_artifacts(st: Stage, cfg: Config, flags: LimitFlags, tag: str = ""):
    S = sensitivities(IndependentParams.nominal(), flags, cfg.grid(),
                      step=cfg.sens_step, rtol=cfg.sens_rtol, iq_form=cfg.iq_form)
    sp = spectrum(fim(S), S.param_names)
    suffix = f"_{tag}" if tag else ""
    write_json(st.path(f"spectrum{suffix}.json"), {
        "eigenvalues": sp.eigenvalues.tolist(),
        "participation": sp.participation.tolist(),
        "names": list(sp.param_names),
        "effective_dimension": effective_dimension(sp, cfg.fim_cutoff),
        "cutoff": cfg.fim_cutoff,
    })
    heat = st.path(f"spectrum_heatmap{suffix}.csv")
    n = len(sp.param_names)
    header = ["param"] + [f"mode_{k+1}" for k in range(n)]
    with open(heat, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("eigenvalue," + ",".join("%.15g" % v for v in sp.eigenvalues) + "\n")
        for i, nm in enumerate(sp.param_names):
            fh.write(nm + "," + ",".join("%.15g" % v for v in sp.participation[i]) + "\n")
    if cfg.svg:
        from .svgplot import line_plot
        line_plot(st.path(f"spectrum{suffix}.svg"), np.arange(1, n + 1),
                  {"eigenvalue": sp.eigenvalues}, title="Information spectrum",
                  xlabel="mode", ylabel="eigenvalue", logy=True, markers=True)
    return sp


def stage_fim(cfg: Config, out_dir: str):
    st = Stage(out_dir, "fim", cfg)
    sp = _spectrum_artifacts(st, cfg, LimitFlags())
    st.finish()
    return sp


def _write_trace(path: str, trace) -> None:
    """A geodesic trace as CSV: tau, then the log-parameters, then the velocities."""
    n = trace.thetas.shape[1]
    header = (["tau"] + [f"log_theta_{i+1}" for i in range(n)]
              + [f"v_{i+1}" for i in range(n)])
    write_csv(path, header, np.column_stack([trace.taus, trace.thetas, trace.velocities]))


def stage_geodesic(cfg: Config, out_dir: str):
    """Sloppiest-direction geodesic of the full model plus its diagnosis."""
    st = Stage(out_dir, "geodesic", cfg)
    diag, _, trace = mbam_step(LimitFlags(), cfg.grid(), iq_form=cfg.iq_form,
                               vel_ratio=cfg.geo_vel_ratio,
                               log_bound=cfg.geo_log_bound, rtol=cfg.geo_rtol)
    _write_trace(st.path("geodesic_trace.csv"), trace)
    write_json(st.path("geodesic_diagnosis.json"), {
        "limit_param": diag.limit_param,
        "direction": diag.direction,
        "tau_boundary": diag.tau_boundary,
        "velocity_alignment": diag.velocity_alignment,
        "terminated": trace.terminated,
        "param_names": list(trace.param_names),
    })
    if cfg.svg:
        from .svgplot import line_plot
        line_plot(st.path("geodesic_trace.svg"), trace.taus,
                  {nm: trace.thetas[:, i] for i, nm in enumerate(trace.param_names)},
                  title="Geodesic in log-parameters", xlabel="tau", ylabel="log theta")
    st.finish()
    return diag


def stage_mbam(cfg: Config, out_dir: str):
    """The reduction ladder; a diverging stage is written, then raised."""
    st = Stage(out_dir, "mbam", cfg)
    chain = mbam_chain(cfg.grid(), iq_form=cfg.iq_form, vel_ratio=cfg.geo_vel_ratio,
                       log_bound=cfg.geo_log_bound, rtol=cfg.geo_rtol, collect_traces=True)
    for entry in chain:
        trace = entry.pop("trace", None)
        if trace is None:
            continue
        _write_trace(st.path(f"mbam_trace_{entry['from_params']}params.csv"), trace)
        entry["param_names"] = list(trace.param_names)
    write_json(st.path("mbam_chain.json"), chain)
    st.finish()
    last = chain[-1]
    if "divergence" in last:
        raise ChainDivergenceError(f"reduction ladder stopped at "
                                   f"{last['from_params']} parameters: {last['divergence']}")
    return chain


def stage_reduced_compare(cfg: Config, out_dir: str):
    """Full vs fully reduced dynamics over the observation window."""
    st = Stage(out_dir, "reduced-compare", cfg)
    full = integrate(IndependentParams.nominal(), rtol=cfg.rtol, atol=cfg.rtol,
                     t_end=cfg.t_end, iq_form=cfg.iq_form)
    ics = full.state_at(cfg.t_start)
    red = integrate(IndependentParams.nominal(), LimitFlags.all(), ics=ics,
                    t_end=cfg.t_end, t_start=cfg.t_start, rtol=cfg.rtol,
                    atol=cfg.rtol, iq_form=cfg.iq_form)
    t = cfg.grid().times()
    sf = full.at(t)[0]
    sr = red.at(t)[0]
    header = ["t"] + [f"{nm}_full" for nm in STATE_NAMES] + [f"{nm}_reduced" for nm in STATE_NAMES]
    write_csv(st.path("reduced_compare.csv"), header, np.column_stack([t, sf, sr]))
    rel = {nm: float(np.max(np.abs(sf[:, i] - sr[:, i])) / np.max(np.abs(sf[:, i])))
           for i, nm in enumerate(STATE_NAMES)}
    write_json(st.path("reduced_compare.json"), {"max_relative_deviation": rel})
    st.finish()
    return rel


def stage_dmaps(cfg: Config, out_dir: str):
    st = Stage(out_dir, "dmaps", cfg)
    _, outputs = read_csv(os.path.join(out_dir, "ensemble_outputs.csv"))
    emb = embed_outputs(outputs, cfg)
    write_csv(st.path("dmaps_eigenvalues.csv"), ["index", "eigenvalue"],
              np.column_stack([np.arange(cfg.dmaps_k), emb.eigenvalues]))
    header = ["sample_id"] + [f"phi_{k}" for k in range(1, cfg.dmaps_k)]
    write_csv(st.path("embedding.csv"), header,
              np.column_stack([np.arange(emb.eigenvectors.shape[0]),
                               emb.eigenvectors[:, 1:]]))
    st.extra["epsilon"] = emb.epsilon
    st.finish()
    return emb


def stage_residuals(cfg: Config, out_dir: str):
    st = Stage(out_dir, "residuals", cfg)
    header, emb_data = read_csv(os.path.join(out_dir, "embedding.csv"))
    _, eig = read_csv(os.path.join(out_dir, "dmaps_eigenvalues.csv"))
    phi = np.column_stack([np.full(emb_data.shape[0], emb_data.shape[0] ** -0.5),
                           emb_data[:, 1:]])
    rep, sel = select_coordinates(DMapsEmbedding(eig[:, 1], phi, 0.0), cfg)
    write_csv(st.path("residuals.csv"), ["eigenvector", "residual"],
              np.column_stack([np.asarray(rep.indices, dtype=float), rep.residuals]))
    write_json(st.path("residuals.json"), {
        "residuals": rep.residuals.tolist(),
        "indices": list(rep.indices),
        "bandwidth_mult": rep.bandwidth_mult,
        "selected": list(sel.indices),
        "gap_ratio": sel.gap_ratio if np.isfinite(sel.gap_ratio) else None,
        "ambiguous": sel.ambiguous,
        "alternate": list(sel.alternate),
    })
    if cfg.svg:
        from .svgplot import line_plot
        line_plot(st.path("residuals.svg"), np.asarray(rep.indices, dtype=float),
                  {"residual": rep.residuals}, title="Local-linear regression residuals",
                  xlabel="eigenvector index", ylabel="r_k", markers=True)
    st.finish()
    return sel


def _split(n: int, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = int(round(frac * n))
    return np.sort(perm[:k]), np.sort(perm[k:])


def _gh_model_json(model, selected, train_idx, test_idx) -> dict:
    return {
        "training_inputs": model.training_inputs.tolist(),
        "epsilon_star": model.epsilon_star,
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "coefficients": model.coefficients.tolist(),
        "target_names": list(model.target_names or ()),
        "target_ndim": model.target_ndim,
        "output_scaling": None if model.output_scaling is None else
            [model.output_scaling[0].tolist(), model.output_scaling[1].tolist()],
        "selected_coordinates": list(selected),
        "train_rows": train_idx.tolist(),
        "test_rows": test_idx.tolist(),
    }


def gh_model_from_json(obj) -> GHModel:
    scaling = obj.get("output_scaling")
    return GHModel(
        np.asarray(obj["training_inputs"], dtype=float),
        float(obj["epsilon_star"]),
        np.asarray(obj["eigenvalues"], dtype=float),
        np.asarray(obj["eigenvectors"], dtype=float),
        np.asarray(obj["coefficients"], dtype=float),
        output_scaling=None if scaling is None else
            (np.asarray(scaling[0]), np.asarray(scaling[1])),
        target_names=tuple(obj.get("target_names") or ()) or None,
        target_ndim=int(obj.get("target_ndim", 2)),
    )


def embed_outputs(outputs: np.ndarray, cfg: Config) -> DMapsEmbedding:
    """Diffusion-maps embedding of the rescaled ensemble outputs.

    The kernel scale is ``cfg.dmaps_epsilon_mult`` times the median squared
    pairwise distance; it comes back as the embedding's ``epsilon``.
    """
    ds = rescale01(outputs)
    return dmaps(ds, median_epsilon(ds, cfg.dmaps_epsilon_mult), k=cfg.dmaps_k)


def select_coordinates(emb: DMapsEmbedding,
                       cfg: Config) -> tuple[ResidualReport, NonharmonicSelection]:
    """Local-linear residuals of the embedding and the non-harmonic selection.

    ``cfg.target_dim`` = 0 leaves the count to the residual-gap rule.
    """
    rep = local_linear_residuals(emb, cfg.residual_bandwidth_mult, max_k=cfg.residual_max_k)
    return rep, select_nonharmonic(rep, cfg.target_dim or None)


@dataclass(frozen=True)
class GHTrack:
    """Both geometric-harmonics regressions on one train/test split."""

    forward: GHModel  # coordinates -> all parameters
    inverse: GHModel  # all parameters -> coordinates
    params01: Dataset
    coords01: Dataset
    train: np.ndarray
    test: np.ndarray
    predictions: np.ndarray  # forward predictions on the test rows
    forward_mae: dict[str, float]
    inverse_mae: dict[str, float]


def fit_gh_track(params: np.ndarray, coords: np.ndarray, selected, cfg: Config) -> GHTrack:
    """Fit coordinates -> parameters and back on the configured split.

    ``coords`` holds the diffusion coordinates listed in ``selected``.  Both
    sides are rescaled to [0, 1] first; the test-set mean absolute errors come
    back per parameter and per coordinate.
    """
    p_ds = rescale01(params)
    c_ds = rescale01(coords)
    train, test = _split(params.shape[0], cfg.train_frac, cfg.split_seed)
    coord_names = [f"phi_{k}" for k in selected]
    fwd = gh_fit(c_ds.rows[train], p_ds.rows[train], retain=cfg.gh_retain,
                 delta=cfg.gh_delta, epsilon_mult=cfg.gh_epsilon_mult,
                 output_scaling=(p_ds.col_min, p_ds.col_max),
                 target_names=PARAM_NAMES)
    inv = gh_fit(p_ds.rows[train], c_ds.rows[train], retain=cfg.gh_retain,
                 delta=cfg.gh_delta, epsilon_mult=cfg.gh_epsilon_mult,
                 output_scaling=(c_ds.col_min, c_ds.col_max),
                 target_names=coord_names)
    pred = gh_predict(fwd, c_ds.rows[test])
    mae = {nm: float(np.mean(np.abs(pred[:, j] - p_ds.rows[test][:, j])))
           for j, nm in enumerate(PARAM_NAMES)}
    pred_inv = gh_predict(inv, p_ds.rows[test])
    mae_inv = {nm: float(np.mean(np.abs(pred_inv[:, j] - c_ds.rows[test][:, j])))
               for j, nm in enumerate(coord_names)}
    return GHTrack(fwd, inv, p_ds, c_ds, train, test, pred, mae, mae_inv)


def square_ift_reports(forward: GHModel, forward_mae: dict, params01: Dataset,
                       coords01: Dataset, train: np.ndarray, test: np.ndarray,
                       cfg: Config) -> tuple[list[str], JacobianReport, JacobianReport]:
    """Jacobian-determinant (local bijectivity) reports of the two square maps.

    The identifiable parameters are the d with the smallest forward test
    error, d being the number of coordinates.  Coordinates -> those
    parameters keeps their columns of the forward model; those parameters ->
    coordinates is fitted afresh on the training rows.  Both are checked on
    the test rows.
    """
    d = forward.training_inputs.shape[1]
    identifiable = sorted(forward_mae, key=forward_mae.get)[:d]
    id_cols = [PARAM_NAMES.index(nm) for nm in identifiable]
    fwd_sq = GHModel(forward.training_inputs, forward.epsilon_star, forward.eigenvalues,
                     forward.eigenvectors, forward.coefficients[:, id_cols],
                     target_names=tuple(identifiable))
    inv_sq = gh_fit(params01.rows[train][:, id_cols], coords01.rows[train],
                    retain=cfg.gh_retain, delta=cfg.gh_delta,
                    epsilon_mult=cfg.gh_epsilon_mult)
    return (identifiable, jacobian_report(fwd_sq, coords01.rows[test]),
            jacobian_report(inv_sq, params01.rows[test][:, id_cols]))


def _selected_data(out_dir: str, selected) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble's kept parameter rows and the selected diffusion coordinates."""
    _, params = read_csv(os.path.join(out_dir, "ensemble_params.csv"))
    _, rows = read_csv(os.path.join(out_dir, "ensemble_rows.csv"))
    _, emb_data = read_csv(os.path.join(out_dir, "embedding.csv"))  # sample id, phi_1, ...
    return params[rows[:, 0].astype(int)], emb_data[:, list(selected)]


def stage_gh(cfg: Config, out_dir: str):
    """Fit both regression directions and report per-parameter test errors."""
    st = Stage(out_dir, "gh-fit", cfg)
    sel = read_json(os.path.join(out_dir, "residuals.json"))["selected"]
    track = fit_gh_track(*_selected_data(out_dir, sel), sel, cfg)
    write_json(st.path("gh_forward.json"),
               _gh_model_json(track.forward, sel, track.train, track.test))
    write_json(st.path("gh_inverse.json"),
               _gh_model_json(track.inverse, sel, track.train, track.test))
    write_json(st.path("gh_mae.json"), {"forward_mae": track.forward_mae,
                                        "inverse_mae": track.inverse_mae})
    write_csv(st.path("gh_test_predictions.csv"),
              [f"pred_{nm}" for nm in PARAM_NAMES] + [f"true_{nm}" for nm in PARAM_NAMES],
              np.column_stack([track.predictions, track.params01.rows[track.test]]))
    st.finish()
    return track.forward_mae


def stage_ift(cfg: Config, out_dir: str):
    """Jacobian-determinant (local bijectivity) checks in both directions."""
    st = Stage(out_dir, "ift", cfg)
    fwd_obj = read_json(os.path.join(out_dir, "gh_forward.json"))
    mae = read_json(os.path.join(out_dir, "gh_mae.json"))["forward_mae"]
    params, coords = _selected_data(out_dir, fwd_obj["selected_coordinates"])
    identifiable, rep_fwd, rep_inv = square_ift_reports(
        gh_model_from_json(fwd_obj), mae, rescale01(params), rescale01(coords),
        np.asarray(fwd_obj["train_rows"], dtype=int),
        np.asarray(fwd_obj["test_rows"], dtype=int), cfg)
    out = {
        "identifiable_parameters": identifiable,
        "forward": {"sign_consistent": rep_fwd.sign_consistent,
                    "min_abs": rep_fwd.min_abs,
                    "determinants": rep_fwd.determinants.tolist()},
        "inverse": {"sign_consistent": rep_inv.sign_consistent,
                    "min_abs": rep_inv.min_abs,
                    "determinants": rep_inv.determinants.tolist()},
    }
    write_json(st.path("ift.json"), out)
    if cfg.svg:
        from .svgplot import histogram
        histogram(st.path("ift_forward.svg"), rep_fwd.determinants,
                  title="det J (coords -> params)", xlabel="determinant")
        histogram(st.path("ift_inverse.svg"), rep_inv.determinants,
                  title="det J (params -> coords)", xlabel="determinant")
    st.finish()
    return out


def stage_compare(cfg: Config, out_dir: str):
    st = Stage(out_dir, "compare", cfg)
    spec_obj = read_json(os.path.join(out_dir, "spectrum.json"))
    from .fim import InfoSpectrum
    part = np.asarray(spec_obj["participation"], dtype=float)
    sp = InfoSpectrum(np.asarray(spec_obj["eigenvalues"], dtype=float), part,
                      tuple(spec_obj["names"]), np.sqrt(part))
    sel = read_json(os.path.join(out_dir, "residuals.json"))["selected"]
    mae = read_json(os.path.join(out_dir, "gh_mae.json"))["forward_mae"]
    report = compare_tracks(sp, len(sel), mae, cutoff=cfg.fim_cutoff,
                            projection_threshold=cfg.projection_threshold)
    write_json(st.path("comparison.json"), report.to_dict())
    st.finish()
    return report


STAGES = {
    "simulate": stage_simulate,
    "sample": stage_sample,
    "ensemble": stage_ensemble,
    "fim": stage_fim,
    "geodesic": stage_geodesic,
    "mbam": stage_mbam,
    "reduced-compare": stage_reduced_compare,
    "dmaps": stage_dmaps,
    "residuals": stage_residuals,
    "gh-fit": stage_gh,
    "ift": stage_ift,
    "compare": stage_compare,
}

PIPELINE_ORDER = list(STAGES)


def run_stage(name: str, cfg: Config, out_dir: str):
    if name == "pipeline":
        result = None
        for stage_name in PIPELINE_ORDER:
            result = STAGES[stage_name](cfg, out_dir)
        return result
    if name not in STAGES:
        raise DomainError(f"unknown stage {name!r}")
    return STAGES[name](cfg, out_dir)
