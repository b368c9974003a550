"""Per-layer tracing of genident, installed from outside the package.

:meth:`Tracer.install` replaces each traced public function with a wrapper
that records a span.  It rebinds every name in every loaded ``genident``
module that refers to the original function, so names a module pulled in with
``from .x import f`` and module globals looked up at call time (such as
``solve_power_angle`` inside ``generator``) are caught as well.  Nothing under
``src/`` changes, and :meth:`Tracer.uninstall` puts the originals back.

Counters are named ``<module>.<function>.<what>``: ``calls``, ``s`` (self
time: the span's duration minus the time its child spans cover) and the
layer-specific counts below.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs wrapped in a span; the metric prefix is "module.function"
TRACED = (
    ("generator", "integrate_batch"),
    ("generator", "observe"),
    ("generator", "solve_power_angle"),
    ("fim", "sensitivities"),
    ("fim", "spectrum"),
    ("geodesics", "contraction_for_map"),
    ("geodesics", "trace_geodesic"),
    ("ensemble", "run_ensemble"),
    ("dmaps", "pairwise_sq_dists"),
    ("dmaps", "median_epsilon"),
    ("dmaps", "dmaps"),
    ("dmaps", "local_linear_residuals"),
    ("harmonics", "gh_fit"),
    ("harmonics", "gh_predict"),
    ("harmonics", "gh_gradient"),
    ("harmonics", "jacobian_report"),
    ("pipeline", "write_csv"),
    ("pipeline", "read_csv"),
)

CONTRACTION = "geodesics.contraction_for_map"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Span stack and counters for one process; install, run, read, uninstall."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, time covered by child spans]
        self._restore: list = []  # zero-argument callables that undo one rebinding

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, pre=None, post=None, inclusive=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.counts["trace.top_level_s"] += dt
                own = dt if inclusive else dt - frame[1]
                self.counts[name + ".calls"] += 1
                self.counts[name + ".s"] += own
                if name == "generator.integrate_batch" and any(
                        f[0] == CONTRACTION for f in self._stack):
                    self.counts["generator.integrate_batch.under_contraction.s"] += own
            if post is not None:
                post(args, kwargs, result)
            return result
        return wrapper

    # -- layer-specific counts ----------------------------------------------

    def _integrate_batch_rows(self, args, kwargs):
        rows = np.atleast_2d(_first_arg(args, kwargs, "params")).shape[0]
        self.counts["generator.integrate_batch.rows"] += rows
        # the ensemble integrates 64-row chunks; a one-row call from inside
        # run_ensemble is its row-by-row retry after a chunk failed
        if rows == 1 and self._stack and self._stack[-1][0] == "ensemble.run_ensemble":
            self.counts["ensemble.retry_rows"] += 1

    def _integrate_batch_steps(self, args, kwargs, traj):
        self.counts["generator.integrate_batch.steps"] += len(traj.times)

    def _trace_geodesic(self, args, kwargs, trace):
        self.counts["geodesics.trace_geodesic.points"] += len(trace.taus)
        self.counts[f"geodesics.trace_geodesic.terminated.{trace.terminated}"] += 1

    def _run_ensemble(self, args, kwargs, run):
        c = self.counts
        c["ensemble.run_ensemble.rows"] += np.atleast_2d(_first_arg(args, kwargs, "params")).shape[0]
        c["ensemble.run_ensemble.failures"] += len(run.failures)
        c["ensemble.rows_kept"] += run.outputs.shape[0]

    def _residuals(self, args, kwargs, report):
        self.counts["dmaps.ridge_fallbacks"] += report.ridge_fallbacks

    def _gh_fit(self, args, kwargs, model):
        self.counts["harmonics.gh_fit.retained"] += model.n_retained

    def _stage_finish(self, args, kwargs, _):
        stage = args[0]
        paths = list(stage.files) + [os.path.join(stage.out_dir, "manifest.json")]
        self.counts["pipeline.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _traced_map_factory(self, generator_map):
        counts = self.counts

        @functools.wraps(generator_map)
        def traced_generator_map(*args, **kwargs):
            f = generator_map(*args, **kwargs)

            @functools.wraps(f)  # keeps f.param_names and f.output_dim
            def traced_map(log_theta):
                counts["fim.map.calls"] += 1
                counts["fim.map.rows"] += np.atleast_2d(log_theta).shape[0]
                return f(log_theta)
            return traced_map
        return traced_generator_map

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, original, replacement):
        mods = [m for n, m in sys.modules.items()
                if (n == "genident" or n.startswith("genident.")) and m is not None]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append(functools.partial(setattr, mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        import genident.cli  # noqa: F401  (load every module whose names get rebound)
        from genident import fim, pipeline

        posts = {
            "generator.integrate_batch": self._integrate_batch_steps,
            "geodesics.trace_geodesic": self._trace_geodesic,
            "ensemble.run_ensemble": self._run_ensemble,
            "dmaps.local_linear_residuals": self._residuals,
            "harmonics.gh_fit": self._gh_fit,
        }
        for module, func in TRACED:
            original = getattr(sys.modules[f"genident.{module}"], func)
            name = f"{module}.{func}"
            pre = self._integrate_batch_rows if name == "generator.integrate_batch" else None
            self._rebind(original, self._span(name, original, pre, posts.get(name)))
        self._rebind(fim.generator_map, self._traced_map_factory(fim.generator_map))

        finish = pipeline.Stage.finish
        self._restore.append(functools.partial(setattr, pipeline.Stage, "finish", finish))
        pipeline.Stage.finish = self._span("pipeline.Stage.finish", finish,
                                           post=self._stage_finish)
        # stage spans cover the whole stage, so their time is inclusive
        for key, fn in list(pipeline.STAGES.items()):
            self._restore.append(functools.partial(pipeline.STAGES.__setitem__, key, fn))
            pipeline.STAGES[key] = self._span(f"pipeline.stage.{key}", fn, inclusive=True)
        return self

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        """Counters so far, plus ensemble.ok_ratio (1.0 when no row was attempted)."""
        out = dict(self.counts)
        rows = out.get("ensemble.run_ensemble.rows", 0.0)
        out["ensemble.ok_ratio"] = out.get("ensemble.rows_kept", 0.0) / rows if rows else 1.0
        return out
