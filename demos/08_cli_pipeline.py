"""Driving the file-based pipeline programmatically (or from the shell).

Every stage reads its inputs from and writes its outputs into one run
directory, with a manifest recording config, seeds, wall-clock, and content
hashes, so the two analysis tracks can be re-run and diffed independently.
The same stages are exposed as CLI subcommands:

    genident simulate --out run
    genident sample --out run
    genident ensemble --out run
    genident fim --out run
    genident dmaps --out run && genident residuals --out run
    genident gh-fit --out run && genident ift --out run
    genident compare --out run --strict

or everything at once with `genident pipeline --out run`.  This demo runs the
short analytic stages into a scratch directory.
"""

import json
import tempfile

from genident.pipeline import Config, run_stage

cfg = Config()
out = tempfile.mkdtemp(prefix="genident_demo_")

run_stage("simulate", cfg, out)
run_stage("sample", cfg, out)
sp = run_stage("fim", cfg, out)
print(f"spectrum span: {sp.eigenvalues[0] / sp.eigenvalues[-1]:.2e}")
rel = run_stage("reduced-compare", cfg, out)
print("reduced-model deviations:", {k: round(v, 4) for k, v in rel.items()})

manifest = json.load(open(f"{out}/manifest.json"))
print(f"\nmanifest stages: {[s['stage'] for s in manifest['stages']]}")
print(f"artifacts in {out}:")
for entry in manifest["stages"]:
    for f in entry["files"]:
        print(f"  {f['path']}  sha256={f['sha256'][:12]}...")
