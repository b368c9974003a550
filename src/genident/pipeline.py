"""File-based pipeline stages: every analysis step reads and writes run-directory
artifacts so the two tracks can execute independently and be diffed.

A stage is a function of the config and its open :class:`Stage`, listed once in
:data:`STAGES`; :func:`run_stage` opens the stage under that name, runs it and
appends its manifest entry (config snapshot, seeds, output files with content
hashes, wall-clock).  Artifacts from earlier stages are never rewritten by
later ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy

from . import __version__
from .dmaps import (
    DEFAULT_RESIDUAL_BANDWIDTH_MULT,
    DMapsEmbedding,
    NonharmonicSelection,
    ResidualReport,
    dmaps,
    local_linear_residuals,
    median_epsilon,
    rescale01,
    select_nonharmonic,
)
from .ensemble import compare_tracks, lowest_error_parameters, run_ensemble, sample_ensemble
from .errors import ChainDivergenceError, DomainError
from .fim import (DEFAULT_CUTOFF, InfoSpectrum, effective_dimension, fim, sensitivities,
                  spectrum)
from .generator import (
    PARAM_NAMES,
    STATE_NAMES,
    IndependentParams,
    LimitFlags,
    ObservationGrid,
    integrate,
)
from .geodesics import DEFAULT_GEODESIC_RTOL, mbam_chain, mbam_step
from .harmonics import (DEFAULT_DELTA, DEFAULT_RETAIN, GHModel, JacobianReport, gh_fit,
                        gh_predict, jacobian_report)
from .svgplot import histogram, line_plot

__all__ = ["Config", "Stage", "load_config", "run_stage", "STAGES", "write_csv",
           "full_vs_reduced", "embed_outputs", "select_coordinates", "GHTrack",
           "fit_gh_track", "square_ift_reports"]

# kernel scales of the diffusion map and of the GH fits, as multiples of the
# median squared pairwise distance; the share of rows the GH fits train on, and
# the seed of that split
DMAPS_EPSILON_MULT = 3.0
GH_EPSILON_MULT = 0.5
TRAIN_FRAC = 0.8
SPLIT_SEED = 1


@dataclass(frozen=True)
class Config:
    """What a run varies; mirrors the config-file keys one to one."""

    n_samples: int = 2000
    seed: int = 0
    workers: int = 1
    t_start: float = 3.0
    t_end: float = 5.0
    dt: float = 0.02
    fim_cutoff: float = DEFAULT_CUTOFF
    geo_rtol: float = DEFAULT_GEODESIC_RTOL
    dmaps_k: int = 41
    residual_bandwidth_mult: float = DEFAULT_RESIDUAL_BANDWIDTH_MULT
    residual_max_k: int = 40
    target_dim: int = 0  # 0 means use the residual-gap rule
    gh_retain: int = DEFAULT_RETAIN
    gh_delta: float = DEFAULT_DELTA

    def grid(self) -> ObservationGrid:
        return ObservationGrid(self.t_start, self.t_end, self.dt)


# the values a config file may give a field of each declared type; a bool is
# an int to Python, so it is rejected first, and NaN or an infinity after
_ACCEPTS = {"int": (int,), "float": (int, float)}


def load_config(path: str | None, **overrides) -> Config:
    """Config from a key = value file (JSON-style values), plus overrides.

    A file value must match its field's type: an int field takes an int, a
    float field a finite int or float, and neither takes true or false.
    """
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
                    value = json.loads(raw)
                except json.JSONDecodeError:
                    value = raw
                kind = known[key]
                if (isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind])
                        or (isinstance(value, float) and not np.isfinite(value))):
                    raise DomainError(f"{path}:{lineno}: config key {key!r} takes a "
                                      f"finite {kind}, got {raw}")
                values[key] = value
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
        self._t0 = time.monotonic()

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
            "seeds": {"ensemble": self.cfg.seed, "split": SPLIT_SEED},
            "wall_clock_s": round(time.monotonic() - self._t0, 3),
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

def stage_simulate(cfg: Config, st: Stage) -> str:
    """Nominal full-model trajectory from t = 0, sampled every ``dt`` up to ``t_end``."""
    t = ObservationGrid(0.0, cfg.t_end, cfg.dt).times()
    traj = integrate(IndependentParams.nominal(), t_end=cfg.t_end)
    path = st.path("trajectory.csv")
    write_csv(path, ["t", *STATE_NAMES], np.column_stack([t, traj.at(t)[0]]))
    return path


def stage_sample(cfg: Config, st: Stage) -> str:
    params = sample_ensemble(cfg.n_samples, seed=cfg.seed)
    path = st.path("ensemble_params.csv")
    write_csv(path, list(PARAM_NAMES), params)
    return path


def stage_ensemble(cfg: Config, st: Stage) -> str:
    _, params = read_csv(os.path.join(st.out_dir, "ensemble_params.csv"))
    run = run_ensemble(params, cfg.grid(), workers=cfg.workers)
    path = st.path("ensemble_outputs.csv")
    write_csv(path, [f"y{i}" for i in range(run.outputs.shape[1])], run.outputs,
              fmt="%.12g")
    idx_path = st.path("ensemble_rows.csv")
    write_csv(idx_path, ["row"], run.row_indices[:, None], fmt="%d")
    st.extra["failures"] = list(run.failures)
    return path


def stage_fim(cfg: Config, st: Stage):
    """Information spectrum of the full model at nominal (eigenvalues, signed
    modes and their participation), with its participation heatmap."""
    S = sensitivities(IndependentParams.nominal(), grid=cfg.grid())
    sp = spectrum(fim(S), S.param_names)
    part = sp.participation
    write_json(st.path("spectrum.json"), {
        "eigenvalues": sp.eigenvalues.tolist(),
        "eigenvectors": sp.eigenvectors.tolist(),
        "participation": part.tolist(),
        "names": list(sp.param_names),
        "effective_dimension": effective_dimension(sp, cfg.fim_cutoff),
        "cutoff": cfg.fim_cutoff,
    })
    n = len(sp.param_names)
    with open(st.path("spectrum_heatmap.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["param"] + [f"mode_{k+1}" for k in range(n)]) + "\n")
        for nm, row in [("eigenvalue", sp.eigenvalues), *zip(sp.param_names, part)]:
            fh.write(",".join([nm, *map(repr, row.tolist())]) + "\n")
    line_plot(st.path("spectrum.svg"), np.arange(1, n + 1),
              {"eigenvalue": sp.eigenvalues}, title="Information spectrum",
              xlabel="mode", ylabel="eigenvalue", logy=True, markers=True)
    return sp


def _write_trace(path: str, trace) -> None:
    """A geodesic trace as CSV: tau, then the log-parameters, then the velocities."""
    n = trace.thetas.shape[1]
    header = (["tau"] + [f"log_theta_{i+1}" for i in range(n)]
              + [f"v_{i+1}" for i in range(n)])
    write_csv(path, header, np.column_stack([trace.taus, trace.thetas, trace.velocities]))


def stage_geodesic(cfg: Config, st: Stage):
    """Sloppiest-direction geodesic of the full model plus its diagnosis."""
    diag, _, trace = mbam_step(LimitFlags(), cfg.grid(), rtol=cfg.geo_rtol)
    _write_trace(st.path("geodesic_trace.csv"), trace)
    write_json(st.path("geodesic_diagnosis.json"), {
        **asdict(diag), "terminated": trace.terminated,
        "param_names": list(trace.param_names)})
    line_plot(st.path("geodesic_trace.svg"), trace.taus,
              {nm: trace.thetas[:, i] for i, nm in enumerate(trace.param_names)},
              title="Geodesic in log-parameters", xlabel="tau", ylabel="log theta")
    return diag


def stage_mbam(cfg: Config, st: Stage):
    """The reduction ladder; a diverging stage is written, then raised."""
    chain = mbam_chain(cfg.grid(), rtol=cfg.geo_rtol)
    for entry in chain:
        trace = entry.pop("trace", None)
        if trace is None:
            continue
        _write_trace(st.path(f"mbam_trace_{entry['from_params']}params.csv"), trace)
        entry["param_names"] = list(trace.param_names)
    write_json(st.path("mbam_chain.json"), chain)
    last = chain[-1]
    if "divergence" in last:
        raise ChainDivergenceError(f"reduction ladder stopped at "
                                   f"{last['from_params']} parameters: {last['divergence']}")
    return chain


def stage_reduced_compare(cfg: Config, st: Stage):
    """Full vs fully reduced dynamics over the observation window."""
    t = cfg.grid().times()
    sf, sr, rel = full_vs_reduced(cfg, t)
    header = ["t"] + [f"{nm}_full" for nm in STATE_NAMES] + [f"{nm}_reduced" for nm in STATE_NAMES]
    write_csv(st.path("reduced_compare.csv"), header, np.column_stack([t, sf, sr]))
    write_json(st.path("reduced_compare.json"), {"max_relative_deviation": rel})
    return rel


def stage_dmaps(cfg: Config, st: Stage):
    _, outputs = read_csv(os.path.join(st.out_dir, "ensemble_outputs.csv"))
    emb = embed_outputs(outputs, cfg)
    write_csv(st.path("dmaps_eigenvalues.csv"), ["index", "eigenvalue"],
              np.column_stack([np.arange(cfg.dmaps_k), emb.eigenvalues]))
    header = ["sample_id"] + [f"phi_{k}" for k in range(1, cfg.dmaps_k)]
    write_csv(st.path("embedding.csv"), header,
              np.column_stack([np.arange(emb.eigenvectors.shape[0]),
                               emb.eigenvectors[:, 1:]]))
    st.extra["epsilon"] = emb.epsilon
    return emb


def stage_residuals(cfg: Config, st: Stage):
    # column k of embedding.csv is phi_k; column 0, the sample id, is not read
    _, phi = read_csv(os.path.join(st.out_dir, "embedding.csv"))
    rep, sel = select_coordinates(phi, cfg)
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
        "ridge_fallbacks": rep.ridge_fallbacks,
    })
    st.extra["ridge_fallbacks"] = rep.ridge_fallbacks
    line_plot(st.path("residuals.svg"), np.asarray(rep.indices, dtype=float),
              {"residual": rep.residuals}, title="Local-linear regression residuals",
              xlabel="eigenvector index", ylabel="r_k", markers=True)
    return sel


def _split(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test rows of a SPLIT_SEED permutation, cut at round(TRAIN_FRAC n)."""
    k = int(round(TRAIN_FRAC * n))
    if not 2 <= k < n:
        raise DomainError(f"a {TRAIN_FRAC} split puts {k} of {n} rows in training; "
                          f"need at least 2 there and 1 for testing")
    perm = np.random.default_rng(SPLIT_SEED).permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])


def _gh_model_json(model, selected, train_idx, test_idx) -> dict:
    return {
        "training_inputs": model.training_inputs.tolist(),
        "epsilon_star": model.epsilon_star,
        "eigenvalues": model.eigenvalues.tolist(),
        "weights": model.weights.tolist(),
        "target_names": list(model.target_names or ()),
        "target_ndim": model.target_ndim,
        "selected_coordinates": list(selected),
        "train_rows": train_idx.tolist(),
        "test_rows": test_idx.tolist(),
    }


def gh_model_from_json(obj) -> GHModel:
    """The model of :func:`_gh_model_json`; keys it does not name are ignored,
    and one it names that is missing raises :class:`DomainError`."""
    try:
        return GHModel(np.asarray(obj["training_inputs"], dtype=float),
                       float(obj["epsilon_star"]), np.asarray(obj["eigenvalues"], dtype=float),
                       np.asarray(obj["weights"], dtype=float),
                       target_names=tuple(obj["target_names"]) or None,
                       target_ndim=int(obj["target_ndim"]))
    except KeyError as exc:
        raise DomainError(f"GH model file has no {exc} key") from None


def full_vs_reduced(cfg: Config, times) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Nominal full and fully reduced states at ``times``, and how far they part.

    The full model runs from its initial state to ``cfg.t_end``; the model with
    every limit applied restarts from the full state at ``cfg.t_start``.  Both
    come back as (len(times), 6) states, with each state's largest deviation
    relative to the largest magnitude of its full signal.
    """
    nominal = IndependentParams.nominal()
    full = integrate(nominal, t_end=cfg.t_end)
    red = integrate(nominal, LimitFlags.all(), ics=full.at([cfg.t_start])[0, 0],
                    t_end=cfg.t_end, t_start=cfg.t_start)
    sf, sr = full.at(times)[0], red.at(times)[0]
    rel = {nm: float(np.max(np.abs(sf[:, i] - sr[:, i])) / np.max(np.abs(sf[:, i])))
           for i, nm in enumerate(STATE_NAMES)}
    return sf, sr, rel


def embed_outputs(outputs: np.ndarray, cfg: Config) -> DMapsEmbedding:
    """Diffusion-maps embedding of the rescaled ensemble outputs.

    The kernel scale is :data:`DMAPS_EPSILON_MULT` times the median squared
    pairwise distance; it comes back as the embedding's ``epsilon``.
    """
    rows = rescale01(outputs)
    return dmaps(rows, median_epsilon(rows, DMAPS_EPSILON_MULT), k=cfg.dmaps_k)


def select_coordinates(phi: np.ndarray,
                       cfg: Config) -> tuple[ResidualReport, NonharmonicSelection]:
    """Local-linear residuals of the coordinates and the non-harmonic selection.

    Column k of ``phi`` holds phi_k and column 0 is not read, as in
    :func:`local_linear_residuals`.  ``cfg.target_dim`` = 0 leaves the count
    to the residual-gap rule.
    """
    rep = local_linear_residuals(phi, cfg.residual_bandwidth_mult, max_k=cfg.residual_max_k)
    return rep, select_nonharmonic(rep, cfg.target_dim or None)


@dataclass(frozen=True)
class GHTrack:
    """Both geometric-harmonics regressions on one train/test split."""

    forward: GHModel  # coordinates -> all parameters
    inverse: GHModel  # all parameters -> coordinates
    params01: np.ndarray  # the parameters, rescaled to [0, 1]
    coords01: np.ndarray  # the selected coordinates, rescaled to [0, 1]
    train: np.ndarray
    test: np.ndarray
    predictions: np.ndarray  # forward predictions on the test rows
    forward_mae: dict[str, float]
    inverse_mae: dict[str, float]


def fit_gh_track(params: np.ndarray, coords: np.ndarray, selected, cfg: Config) -> GHTrack:
    """Fit coordinates -> parameters and back on the :func:`_split` of the rows.

    ``coords`` holds the diffusion coordinates listed in ``selected``, one row
    per row of ``params``.  Both sides are rescaled to [0, 1] first, and both
    models fit, predict and are scored in those units; the test-set mean
    absolute errors come back per parameter and per coordinate.
    """
    p01 = rescale01(params)
    c01 = rescale01(coords)
    train, test = _split(params.shape[0])
    coord_names = [f"phi_{k}" for k in selected]
    fwd = gh_fit(c01[train], p01[train], retain=cfg.gh_retain, delta=cfg.gh_delta,
                 epsilon_mult=GH_EPSILON_MULT, target_names=PARAM_NAMES)
    inv = gh_fit(p01[train], c01[train], retain=cfg.gh_retain, delta=cfg.gh_delta,
                 epsilon_mult=GH_EPSILON_MULT, target_names=coord_names)
    pred = gh_predict(fwd, c01[test])
    mae = {nm: float(np.mean(np.abs(pred[:, j] - p01[test][:, j])))
           for j, nm in enumerate(PARAM_NAMES)}
    pred_inv = gh_predict(inv, p01[test])
    mae_inv = {nm: float(np.mean(np.abs(pred_inv[:, j] - c01[test][:, j])))
               for j, nm in enumerate(coord_names)}
    return GHTrack(fwd, inv, p01, c01, train, test, pred, mae, mae_inv)


def square_ift_reports(forward: GHModel, forward_mae: dict, params01: np.ndarray,
                       coords01: np.ndarray, train: np.ndarray, test: np.ndarray,
                       cfg: Config) -> tuple[list[str], JacobianReport, JacobianReport, GHModel]:
    """Jacobian-determinant (local bijectivity) reports of the two square maps.

    The identifiable parameters are the d :func:`lowest_error_parameters` of
    the forward test errors, d being the number of coordinates.  ``params01``
    and ``coords01`` are the [0, 1]-rescaled rows of :class:`GHTrack`.
    Coordinates -> those parameters keeps their columns of the forward model;
    those parameters -> coordinates is fitted afresh on the training rows, and
    that model comes back last.  Both are checked on the test rows.
    """
    identifiable = lowest_error_parameters(forward_mae, forward.training_inputs.shape[1])
    id_cols = [PARAM_NAMES.index(nm) for nm in identifiable]
    fwd_sq = replace(forward, weights=forward.weights[:, id_cols],
                     target_names=tuple(identifiable))
    inv_sq = gh_fit(params01[train][:, id_cols], coords01[train],
                    retain=cfg.gh_retain, delta=cfg.gh_delta,
                    epsilon_mult=GH_EPSILON_MULT)
    return (identifiable, jacobian_report(fwd_sq, coords01[test]),
            jacobian_report(inv_sq, params01[test][:, id_cols]), inv_sq)


def _selected_data(out_dir: str, selected) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble's kept parameter rows and the selected diffusion coordinates."""
    _, params = read_csv(os.path.join(out_dir, "ensemble_params.csv"))
    _, rows = read_csv(os.path.join(out_dir, "ensemble_rows.csv"))
    _, emb_data = read_csv(os.path.join(out_dir, "embedding.csv"))  # sample id, phi_1, ...
    return params[rows[:, 0].astype(int)], emb_data[:, list(selected)]


def _eigenpairs(model: GHModel, cfg: Config) -> dict[str, int]:
    """The kernel eigenpairs a fit on ``cfg`` kept, and those below its delta * sigma_0 floor."""
    asked = min(cfg.gh_retain, model.training_inputs.shape[0])
    return {"retained": model.n_retained, "dropped": asked - model.n_retained}


def stage_gh(cfg: Config, st: Stage):
    """Fit both regression directions and report per-parameter test errors."""
    sel = read_json(os.path.join(st.out_dir, "residuals.json"))["selected"]
    track = fit_gh_track(*_selected_data(st.out_dir, sel), sel, cfg)
    st.extra["eigenpairs"] = {"forward": _eigenpairs(track.forward, cfg),
                              "inverse": _eigenpairs(track.inverse, cfg)}
    write_json(st.path("gh_forward.json"),
               _gh_model_json(track.forward, sel, track.train, track.test))
    write_json(st.path("gh_inverse.json"),
               _gh_model_json(track.inverse, sel, track.train, track.test))
    write_json(st.path("gh_mae.json"), {"forward_mae": track.forward_mae,
                                        "inverse_mae": track.inverse_mae})
    write_csv(st.path("gh_test_predictions.csv"),
              [f"pred_{nm}" for nm in PARAM_NAMES] + [f"true_{nm}" for nm in PARAM_NAMES],
              np.column_stack([track.predictions, track.params01[track.test]]))
    return track.forward_mae


def stage_ift(cfg: Config, st: Stage):
    """Jacobian-determinant (local bijectivity) checks in both directions."""
    fwd_obj = read_json(os.path.join(st.out_dir, "gh_forward.json"))
    mae = read_json(os.path.join(st.out_dir, "gh_mae.json"))["forward_mae"]
    params, coords = _selected_data(st.out_dir, fwd_obj["selected_coordinates"])
    identifiable, rep_fwd, rep_inv, inv_sq = square_ift_reports(
        gh_model_from_json(fwd_obj), mae, rescale01(params), rescale01(coords),
        np.asarray(fwd_obj["train_rows"], dtype=int),
        np.asarray(fwd_obj["test_rows"], dtype=int), cfg)
    st.extra["eigenpairs"] = {"inverse_square": _eigenpairs(inv_sq, cfg)}
    out = {"identifiable_parameters": identifiable,
           **{side: {"sign_consistent": rep.sign_consistent, "min_abs": rep.min_abs,
                     "determinants": rep.determinants.tolist()}
              for side, rep in (("forward", rep_fwd), ("inverse", rep_inv))}}
    write_json(st.path("ift.json"), out)
    histogram(st.path("ift_forward.svg"), rep_fwd.determinants,
              title="det J (coords -> params)", xlabel="determinant")
    histogram(st.path("ift_inverse.svg"), rep_inv.determinants,
              title="det J (params -> coords)", xlabel="determinant")
    return out


def stage_compare(cfg: Config, st: Stage):
    spec_obj = read_json(os.path.join(st.out_dir, "spectrum.json"))
    if "eigenvectors" not in spec_obj:
        raise DomainError("spectrum.json holds no eigenvectors; rerun the fim stage")
    sp = InfoSpectrum(np.asarray(spec_obj["eigenvalues"], dtype=float),
                      np.asarray(spec_obj["eigenvectors"], dtype=float), tuple(spec_obj["names"]))
    sel = read_json(os.path.join(st.out_dir, "residuals.json"))["selected"]
    mae = read_json(os.path.join(st.out_dir, "gh_mae.json"))["forward_mae"]
    report = compare_tracks(sp, len(sel), mae, cutoff=cfg.fim_cutoff)
    write_json(st.path("comparison.json"), report.to_dict())
    return report


STAGES = {
    "simulate": stage_simulate,
    "sample": stage_sample,
    "ensemble": stage_ensemble,
    "fim": stage_fim,
    "geodesic": stage_geodesic,
    "reduced-compare": stage_reduced_compare,
    "dmaps": stage_dmaps,
    "residuals": stage_residuals,
    "gh-fit": stage_gh,
    "ift": stage_ift,
    "compare": stage_compare,
    # last: no stage reads what it writes, and a ladder that stops raises
    "mbam": stage_mbam,
}


def run_stage(name: str, cfg: Config, out_dir: str):
    """Run the stage ``name`` into ``out_dir`` and return what its function returns.

    The stage opens as a :class:`Stage` under its :data:`STAGES` key and its
    manifest entry is appended once the function returns; a stage that raised
    appends none, except the ladder's written record of where it diverged.
    ``"pipeline"`` runs every stage in :data:`STAGES` order, the ladder last,
    and returns the last one's result.
    """
    if name == "pipeline":
        result = None
        for stage_name in STAGES:
            result = run_stage(stage_name, cfg, out_dir)
        return result
    if name not in STAGES:
        raise DomainError(f"unknown stage {name!r}")
    st = Stage(out_dir, name, cfg)
    try:
        result = STAGES[name](cfg, st)
    except ChainDivergenceError:
        if st.files:
            st.finish()
        raise
    st.finish()
    return result
