"""The benchmark's workloads.

A workload is a pair of functions.  ``run(seed, iteration, out_dir, ops)``
does the fixed work that ``run_s`` times.  ``check(state, ops)`` runs after
the clock stops and returns three dicts: a digest of every artifact, which
must be byte-identical across repeats (the determinism check), a fingerprint of
the spectra and embeddings, compared with ``reference.json`` at the reference
seed, and the science values, which are reported but never gated.  Every
operation, correctness check included, is recorded in ``ops`` and counts
toward the failed fraction.

The sizes are smaller than the desk-scale defaults so that several repeats
fit in one run; see ``layers.json`` for what each workload is meant to stress.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# analytic: the default Config, except the geodesic's RK45 tolerance.  At the
# default 1e-6 the geodesic alone costs ~40 s (342 model-map calls); at 1e-3 it
# takes 54 calls and still reaches the same D -> 0 boundary.
ANALYTIC_STAGES = ("simulate", "fim", "geodesic", "reduced-compare")
ANALYTIC_CONFIG = {"geo_rtol": 1e-3}

# data-track: 600 members keep the LOO residual solve on the same side of its
# 512-row chunking as the desk-scale 2000, where it dominates; 24 residuals
# instead of 40 keep one repeat near 5 s.  target_dim pins the six coordinates:
# at this size the residual-gap rule is unstable (it picked 36 to 39 at N=400),
# which would make the square IFT check impossible; the gap rule's own pick is
# still reported as a science value.
DATA_STAGES = ("sample", "ensemble", "fim", "dmaps", "residuals", "gh-fit", "ift", "compare")
DATA_CONFIG = {"n_samples": 600, "residual_max_k": 24, "target_dim": 6}

# ladder-probe: contraction points per flag set on a segment of this length
# (log-parameter units) along the sloppiest direction, one drawn uniformly in
# each of LADDER_POINTS equal parts, so repeats cost alike but never coincide
LADDER_POINTS = 2
LADDER_SEGMENT = 0.5


class Ops:
    """Attempted and failed operation counts, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def members(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failures.extend([f"{name}: {failed} of {attempted} failed"] * failed)

    def check(self, name: str, fn) -> None:
        """Record a correctness check; ``fn`` returns (ok, detail)."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, bool(ok), detail)


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _all_finite(arrays) -> tuple[bool, str]:
    bad = [name for name, a in arrays.items() if not np.all(np.isfinite(np.asarray(a, dtype=float)))]
    return not bad, f"non-finite: {bad}" if bad else ""


def _descending_from_one(ev) -> tuple[bool, str]:
    ev = np.asarray(ev, dtype=float)
    ok = abs(ev[0] - 1.0) < 1e-8 and bool(np.all(np.diff(ev) <= 0))
    return ok, "" if ok else f"eigenvalues {ev[:4]} not descending from 1"


# ---------------------------------------------------------------------------
# pipeline (CLI) workloads
# ---------------------------------------------------------------------------

def _cli_stages(stages, config, seed, out_dir, ops) -> None:
    from genident import cli
    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, "bench.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {json.dumps(v)}\n" for k, v in config.items())
    for stage in stages:
        argv = [stage, "--config", cfg_path, "--seed", str(seed), "--workers", "1",
                "--out", out_dir]
        try:
            code = cli.main(argv)
        except Exception as exc:  # one failed stage must not stop the count
            code = f"{type(exc).__name__}: {exc}"
        ops.record(f"cli {stage}", code == 0, f"exit {code}")


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(out_dir, name) -> np.ndarray:
    return np.loadtxt(os.path.join(out_dir, name), delimiter=",", skiprows=1, ndmin=2)


def _manifest_digest(out_dir) -> dict:
    manifest = _read_json(out_dir, "manifest.json")
    return {f"{s['stage']}/{f['path']}": f["sha256"]
            for s in manifest["stages"] for f in s["files"]}


def run_analytic(seed, iteration, out_dir, ops):
    _cli_stages(ANALYTIC_STAGES, ANALYTIC_CONFIG, seed, out_dir, ops)
    return {"dir": out_dir}


def check_analytic(state, ops):
    d = state["dir"]
    ops.check("analytic outputs finite", lambda: _all_finite({
        "trajectory": _read_csv(d, "trajectory.csv"),
        "spectrum": _read_json(d, "spectrum.json")["eigenvalues"],
        "geodesic": _read_csv(d, "geodesic_trace.csv"),
        "reduced": _read_csv(d, "reduced_compare.csv")}))

    def diagnosis():
        g = _read_json(d, "geodesic_diagnosis.json")
        got = (g["limit_param"], g["direction"], g["terminated"])
        return got == ("D", "to_zero", "boundary"), f"geodesic diagnosed {got}"
    ops.check("geodesic diagnosis D/to_zero/boundary", diagnosis)

    digest = _manifest_digest(d)
    spec = _read_json(d, "spectrum.json")
    ev = spec["eigenvalues"]
    geo = _read_json(d, "geodesic_diagnosis.json")
    dev = _read_json(d, "reduced_compare.json")["max_relative_deviation"]
    science = {"effective_dimension": spec["effective_dimension"],
               "lambda_min": ev[-1], "lambda_6": ev[5],
               "geodesic_limit": f"{geo['limit_param']} {geo['direction']} ({geo['terminated']})",
               "reduced_max_relative_deviation": max(dev.values())}
    return digest, {"fim_eigenvalues": ev}, science


def run_data_track(seed, iteration, out_dir, ops):
    _cli_stages(DATA_STAGES, DATA_CONFIG, seed, out_dir, ops)
    return {"dir": out_dir}


def check_data_track(state, ops):
    from genident.dmaps import ResidualReport, select_nonharmonic
    d = state["dir"]
    n = DATA_CONFIG["n_samples"]
    try:
        failed = len(next(s for s in _read_json(d, "manifest.json")["stages"]
                          if s["stage"] == "ensemble")["failures"])
    except (OSError, StopIteration, KeyError, ValueError):
        failed = n
    ops.members("ensemble member", n, failed)

    ift = _read_json(d, "ift.json")
    ops.check("data-track outputs finite", lambda: _all_finite({
        "ensemble": _read_csv(d, "ensemble_outputs.csv"),
        "embedding": _read_csv(d, "embedding.csv"),
        "dmaps_eigenvalues": _read_csv(d, "dmaps_eigenvalues.csv"),
        "residuals": _read_csv(d, "residuals.csv"),
        "gh_mae": list(_read_json(d, "gh_mae.json")["forward_mae"].values()),
        "ift": ift["forward"]["determinants"] + ift["inverse"]["determinants"]}))
    eig = _read_csv(d, "dmaps_eigenvalues.csv")[:, 1]
    ops.check("dmaps eigenvalues descending from 1", lambda: _descending_from_one(eig))
    res = _read_json(d, "residuals.json")
    r = np.asarray(res["residuals"], dtype=float)
    ops.check("residuals in [0, 1]",
              lambda: (bool(np.all((r >= 0) & (r <= 1))), f"range [{r.min()}, {r.max()}]"))

    digest = _manifest_digest(d)
    emb = _read_csv(d, "embedding.csv")
    fingerprint = {"dmaps_eigenvalues": eig.tolist(),
                   "embedding_head": emb[:10, 1:4].tolist()}
    gap = select_nonharmonic(ResidualReport(r, tuple(res["indices"]), res["bandwidth_mult"]))
    cmp_ = _read_json(d, "comparison.json")
    science = {"selected_coordinates": res["selected"],
               "gap_rule_coordinates": list(gap.indices),
               "gap_ratio": gap.gap_ratio, "gap_ambiguous": gap.ambiguous,
               "ift_forward_sign_consistent": ift["forward"]["sign_consistent"],
               "ift_inverse_sign_consistent": ift["inverse"]["sign_consistent"],
               "fim_effective_dim": cmp_["fim_effective_dim"],
               "tracks_agree": cmp_["agreement"]}
    return digest, fingerprint, science


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def run_ladder_probe(seed, iteration, out_dir, ops):
    from genident.errors import DomainError, SolverError
    from genident.fim import fim, generator_map, sensitivities, spectrum
    from genident.generator import LIMIT_CHAIN, IndependentParams, LimitFlags
    from genident.geodesics import contraction_for_map, sloppiest_direction

    # fresh points on every repeat and seed, so a result cache cannot help
    rng = np.random.default_rng([seed, iteration])
    nominal = IndependentParams.nominal()
    spectra, contractions = {}, []
    for n in range(len(LIMIT_CHAIN) + 1):
        flags = LimitFlags.first(n)
        try:
            S = sensitivities(nominal, flags)
        except (DomainError, SolverError) as exc:
            ops.record(f"sensitivities first({n})", False, str(exc))
            continue
        ops.record(f"sensitivities first({n})", True)
        sp = spectrum(fim(S), S.param_names)
        spectra[n] = sp
        f = generator_map(flags)
        v = sloppiest_direction(sp.eigenvalues, sp.eigenvectors)
        v = v / np.linalg.norm(v)
        theta0 = np.log([getattr(nominal, nm) for nm in flags.active_params()])
        for s in (np.arange(LADDER_POINTS) + rng.uniform(size=LADDER_POINTS)) / LADDER_POINTS:
            try:
                contractions.append(contraction_for_map(f, theta0 + s * LADDER_SEGMENT * v, v))
                ops.record(f"contraction first({n})", True)
            except (DomainError, SolverError) as exc:
                ops.record(f"contraction first({n})", False, str(exc))
    return {"spectra": spectra, "contractions": contractions}


def check_ladder_probe(state, ops):
    from genident.fim import effective_dimension
    ev = {n: sp.eigenvalues for n, sp in state["spectra"].items()}
    arrays = {f"spectrum first({n})": e for n, e in ev.items()}
    arrays.update({f"contraction {i}": g for i, g in enumerate(state["contractions"])})
    ops.check("ladder outputs finite", lambda: _all_finite(arrays))
    digest = {f"spectrum_first{n}": _sha(e) for n, e in ev.items()}
    fingerprint = {f"fim_eigenvalues_first{n}": e.tolist() for n, e in ev.items()}
    science = {f"lambda_min_first{n}": float(e[-1]) for n, e in ev.items()}
    science.update({f"effective_dimension_first{n}": effective_dimension(sp)
                    for n, sp in state["spectra"].items()})
    return digest, fingerprint, science


WORKLOADS = {
    "analytic": (run_analytic, check_analytic),
    "ladder-probe": (run_ladder_probe, check_ladder_probe),
    "data-track": (run_data_track, check_data_track),
}
