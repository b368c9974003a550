"""Command-line driver; every subcommand writes artifacts into a run directory."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ChainDivergenceError, DomainError, SolverError
from .harmonics import distance_to_training, gh_predict
from .pipeline import (
    STAGES,
    load_config,
    read_csv,
    read_json,
    run_stage,
    write_csv,
    gh_model_from_json,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREEMENT = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="genident",
        description="Analytic and data-driven identifiability analysis of the "
                    "infinite-bus synchronous generator benchmark.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in [*STAGES, "pipeline"]:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="ensemble seed")
        p.add_argument("--workers", type=int, help="parallel workers")
        p.add_argument("--out", default="out", help="run directory (default: out)")
        if name == "compare":
            p.add_argument("--strict", action="store_true",
                           help="exit 4 if the tracks disagree")

    p = sub.add_parser("gh-eval", help="evaluate a stored regression model into "
                       "<out>/gh_eval.csv; inputs and predictions are in the [0, 1] "
                       "units of its training rescaling")
    p.add_argument("--model", required=True, help="gh model JSON")
    p.add_argument("--inputs", required=True, help="CSV of input rows, in [0, 1] units")
    p.add_argument("--out", default="out", help="run directory (default: out)")
    return ap


def _cmd_gh_eval(args) -> int:
    model = gh_model_from_json(read_json(args.model))
    _, rows = read_csv(args.inputs)
    pred = gh_predict(model, rows).reshape(rows.shape[0], -1)
    dist = distance_to_training(model, rows)
    names = model.target_names or tuple(f"f{j}" for j in range(pred.shape[1]))
    out_path = os.path.join(args.out, "gh_eval.csv")
    os.makedirs(args.out, exist_ok=True)
    write_csv(out_path, [f"pred_{nm}" for nm in names] + ["kernel_distance"],
              np.column_stack([pred, dist]))
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gh-eval":
            return _cmd_gh_eval(args)
        cfg = load_config(args.config, seed=args.seed, workers=args.workers)
        result = run_stage(args.command, cfg, args.out)
        if args.command == "compare":
            print(f"fim dim {result.fim_effective_dim} vs dmaps dim "
                  f"{result.dmaps_dim}; agreement: {result.agreement}")
            if args.strict and not result.agreement:
                return EXIT_DISAGREEMENT
        print(f"{args.command}: done -> {args.out}")
        return EXIT_OK
    except (DomainError, FileNotFoundError) as exc:  # a missing file names itself
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SolverError, ChainDivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
