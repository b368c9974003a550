"""Repeats of one workload in one fresh process.

    python3 benchmarks/worker.py WORKLOAD SEED FIRST TRACE END_TIME RESERVE SPAWN_TIME RESULT_JSON RUN_DIR

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import genident`` and one
nominal ``integrate``.  With ``WORKLOAD`` = ``setup`` the worker stops there.
Otherwise it repeats the workload's fixed work under the clock, checking the
outputs after each repeat, and writes everything to ``RESULT_JSON``.  It
starts another repeat only while that one and ``RESERVE`` more, each as long
as the median repeat so far, would end less than half a repeat after
``END_TIME`` (a ``time.time()`` value); it always makes at least one.
Repeats are numbered from ``FIRST``; with ``TRACE`` = 1 the odd-numbered ones
are traced, so traced and untraced repeats alternate under the same machine
conditions.  ``src/`` of the
checkout this file lives in must hold genident; no installed copy is used.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers any ensemble worker pool
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv) -> int:
    workload, seed, first, trace, end_time, reserve, spawn_time, result_path, run_dir = argv
    seed, first, trace, reserve = int(seed), int(first), int(trace), int(reserve)
    end_time, spawn_time = float(end_time), float(spawn_time)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import genident
    if os.path.dirname(os.path.dirname(os.path.abspath(genident.__file__))) != os.path.join(ROOT, "src"):
        print(f"genident imported from {genident.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    genident.integrate(genident.IndependentParams.nominal())
    result = {"setup_s": time.time() - spawn_time, "repeats": []}
    if workload != "setup":
        warnings.simplefilter("ignore")  # the library's degeneracy warnings
        took = []
        while True:
            t_start = time.monotonic()
            i = first + len(result["repeats"])
            traced = bool(trace and i % 2)
            result["repeats"].append(_repeat(workload, seed, i, traced,
                                             os.path.join(run_dir, str(i))))
            took.append(time.monotonic() - t_start)
            # a run ends within half a repeat of END_TIME, on either side
            if time.time() + (0.5 + reserve) * statistics.median(took) > end_time:
                break
        result["peak_rss_mb"] = _peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _repeat(workload, seed, iteration, traced, run_dir) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    run, check = WORKLOADS[workload]
    ops = Ops()
    tracer = Tracer().install() if traced else None
    state, error = None, None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        state = run(seed, iteration, run_dir, ops)
    except Exception:  # the repeat still reports, with the failure counted
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()

    digest, fingerprint, science = {}, {}, {}
    if error is not None:
        ops.record(f"{workload} run", False, error.strip().splitlines()[-1])
    else:
        try:
            digest, fingerprint, science = check(state, ops)
        except Exception as exc:  # outputs missing or unreadable
            ops.record(f"{workload} checks", False, f"{type(exc).__name__}: {exc}")
    shutil.rmtree(run_dir, ignore_errors=True)
    out = {"iteration": iteration, "traced": traced, "run_s": run_s, "cpu_s": cpu_s,
           "attempted": ops.attempted, "failures": ops.failures, "digest": digest,
           "fingerprint": fingerprint, "science": science}
    if tracer is not None:
        layers = tracer.snapshot()
        layers["run.cpu_s"] = cpu_s
        layers["trace.unattributed_s"] = run_s - layers.pop("trace.top_level_s", 0.0)
        out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
