"""Benchmark of genident's analytic and data-driven identifiability tracks.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in ``BENCHMARK.json`` at the checkout root;
``benchmarks/layers.json`` says which layer each per-layer metric belongs to
and which end-to-end metric and workload it should move.

A run starts two fresh worker processes (``worker.py``) one after the other;
both repeat the workload's fixed work with the same seed until ``--seconds``
are used up.  The first leaves room for one repeat, which the second makes,
so that their digests can be compared.  ``--trace 0`` reports the end-to-end
metrics: ``setup_s`` (median over the two workers and three setup-only
processes), ``run_s`` (median over repeats),
``peak_rss_mb`` (median over the workers) and ``ok_frac`` (1 - failed /
attempted operations).  ``--trace 1`` alternates untraced and traced repeats
and reports the per-layer metrics as medians over the traced ones, with
``trace.overhead_s`` = traced ``run_s`` - untraced ``run_s``.

Operations are CLI stage calls, ensemble members, ``sensitivities`` and
``contraction_for_map`` calls, and correctness checks.  Two kinds of check are
made here across repeats: every artifact digest must equal the first repeat's,
in either process (determinism), and at the reference seed the spectra and
embeddings must match ``reference.json`` (``--update-reference`` rewrites it from a run at that seed).

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, the environment and the science values, which are reported, not gated.
The same, with every repeat's raw numbers, goes to ``benchmarks/out/``.  The
run exits 2 without a result when the checkout has no ``src/genident``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

# worker processes per run; all but the last leave room for one repeat in the
# next, so comparing their digests checks that reruns in separate processes are
# byte-identical while most repeats share one process
PROCESSES = 2
SETUP_PROBES = 3  # setup-only processes per untraced run, on top of the workers
# every worker is killed by this many seconds after the run started, so a hung
# worker still leaves time to report within three minutes
DEADLINE_S = 170
REFERENCE_SEED = 0
# fingerprints match the reference when |got - ref| <= atol + rtol |ref|, with
# atol relative to the largest reference value: the information spectra span
# eleven decades and their smallest eigenvalue carries ~1e-5 relative noise
REFERENCE_RTOL = 1e-4
REFERENCE_ATOL = 1e-12


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, first: int, trace: int, end_time: float,
          reserve: int, deadline: float) -> dict:
    """One worker process repeating until ``end_time`` (``time.time()``) less
    ``reserve`` repeats, killed at ``deadline`` (monotonic); a crash or timeout
    comes back as an error."""
    tag = f"{workload}-{seed}-{os.getpid()}-{first}"
    result_path = os.path.join(OUT, "tmp", tag + ".json")
    run_dir = os.path.join(OUT, "runs", tag)
    argv = [sys.executable, WORKER, workload, str(seed), str(first), str(trace),
            repr(end_time), str(reserve), repr(time.time()), result_path, run_dir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"worker killed at the {DEADLINE_S} s deadline"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    result = _load_json(result_path)
    os.remove(result_path)
    return result


def _close(got, ref) -> bool:
    import numpy as np
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return False
    atol = REFERENCE_ATOL * float(np.max(np.abs(ref), initial=0.0))
    return bool(np.allclose(got, ref, rtol=REFERENCE_RTOL, atol=atol))


def cross_checks(workload, seed, repeats, attempted, failures, update_reference):
    """Determinism across repeats and, at the reference seed, the stored reference."""
    good = [r for r in repeats if r["digest"]]
    if good:
        first = good[0]["digest"]
        for r in good[1:]:
            for key in sorted(set(first) | set(r["digest"])):
                attempted += 1
                if first.get(key) != r["digest"].get(key):
                    failures.append(f"determinism: {key} differs between repeats")
    if seed == REFERENCE_SEED and good:
        fingerprint = good[0]["fingerprint"]
        ref = _load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
        if update_reference:
            ref[workload] = fingerprint
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
        for key, want in ref.get(workload, {}).items():
            attempted += 1
            if key not in fingerprint or not _close(fingerprint[key], want):
                failures.append(f"reference: {key} differs from reference.json")
    return attempted, failures


def _git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    def read(name):
        with open(os.path.join(ROOT, ".git", name), encoding="utf-8") as fh:
            return fh.read()
    try:
        head = read("HEAD").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(ROOT, ".git", ref)):
            return read(ref).strip()
        for line in read("packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _dominant(layers: dict, expect: dict) -> list[str]:
    """Lines naming the layer with the most self time against the stated one."""
    self_s = {k[:-2]: v for k, v in layers.items()
              if k.endswith(".s") and not k.startswith(("pipeline.stage.", "trace.", "run."))
              and ".under_" not in k}
    top = max(self_s, key=self_s.get)
    total = layers["trace.run_s"]
    lines = [f"  dominant layer by self time: {top} "
             f"({self_s[top]:.4f} s, {100 * self_s[top] / total:.1f}% of traced run_s)"]
    want = expect["dominant"]
    verdict = "confirmed" if top == want else "NOT confirmed"
    lines.append(f"  stated dominant layer: {want} -> {verdict}")
    if "under" in expect:
        under = layers.get(f"{want}.under_contraction.s", 0.0)
        lines.append(f"  {100 * under / max(self_s[want], 1e-300):.1f}% of {want} self time "
                     f"is under {expect['under']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help=f"store this run's fingerprints (needs --seed {REFERENCE_SEED})")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "genident", "__init__.py")):
        print(f"no genident sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = _load_json(spec_path)
    layers_doc = _load_json(os.path.join(HERE, "layers.json"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != REFERENCE_SEED:
        print(f"--update-reference needs --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    probes = [] if args.trace else [spawn("setup", args.seed, 0, 0, 0.0, 0, deadline)
                                    for _ in range(SETUP_PROBES)]
    workers, first, end_time = [], 0, time.time() + args.seconds
    for k in range(PROCESSES):
        workers.append(spawn(args.workload, args.seed, first, args.trace, end_time,
                             PROCESSES - 1 - k, deadline))
        first += len(workers[-1].get("repeats", []))
    repeats = [r for w in workers for r in w.get("repeats", [])]

    attempted, failures = 0, []
    for p in probes + workers:
        if "error" in p:
            attempted += 1
            failures.append(p["error"])
    for r in repeats:
        attempted += r["attempted"]
        failures.extend(r["failures"])
    attempted, failures = cross_checks(args.workload, args.seed, repeats, attempted,
                                       failures, args.update_reference)

    ok_workers = [w for w in workers if "error" not in w]
    run_s = [r["run_s"] for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    setup_s = [p["setup_s"] for p in probes + ok_workers if "setup_s" in p]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"genident benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}, {len(run_s)} untraced + {len(traced)} traced repeats "
             f"in {len(workers)} processes"]
    metrics = {}
    if not run_s or (args.trace and not traced):
        pass  # nothing measured; the failures say why
    elif args.trace:
        traced_s = [r["run_s"] for r in traced]
        layer_runs = [r["layers"] for r in traced]
        values = {m["name"]: statistics.median(lr.get(m["name"], 0.0) for lr in layer_runs)
                  for m in spec["per_layer"]}
        values["trace.run_s"] = statistics.median(traced_s)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(run_s)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}
        for name, m in sorted(metrics.items()):
            lines.append(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
        lines += _dominant(values, layers_doc["workloads"][args.workload])
        lines.append(f"  tracing overhead: {values['trace.overhead_s']:+.4f} s on "
                     f"{statistics.median(run_s):.4f} s untraced")
    else:
        q1, q3 = _quartiles(run_s)
        values = {"setup_s": statistics.median(setup_s), "run_s": statistics.median(run_s),
                  "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in ok_workers),
                  "ok_frac": 1.0 - len(failures) / attempted}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        notes = {"setup_s": f"median of {len(setup_s)} fresh processes",
                 "run_s": f"median of {len(run_s)} repeats, quartiles {q1:.4f} .. {q3:.4f}",
                 "peak_rss_mb": f"median over {len(ok_workers)} worker processes",
                 "ok_frac": "1 - failed_frac"}
        for name, m in metrics.items():
            lines.append(f"  {name:<12} {m['value']:>12.6g} {m['unit']:<6} {notes[name]}")
    lines.append(f"  {'failed_frac':<12} {len(failures) / attempted:>12.6g} {'ratio':<6} "
                 f"{len(failures)} failed of {attempted} operations")
    for f in failures[:10]:
        lines.append(f"    FAILED {f}")
    science = next((r["science"] for r in repeats if r.get("science")), {})
    lines.append("  science (reported, not gated): " + json.dumps(science, sort_keys=True))
    env = environment()
    lines.append("  environment: " + json.dumps(env, sort_keys=True))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"args": vars(args), "environment": env, "result": result,
              "failures": failures, "science": science,
              "wall_s": time.monotonic() - t_begin,
              "setup_s": setup_s,
              "peak_rss_mb": [w.get("peak_rss_mb") for w in workers],
              "repeats": [{k: v for k, v in r.items() if k not in ("digest", "fingerprint")}
                          for r in repeats]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"  result file: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
