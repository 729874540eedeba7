#!/usr/bin/env python3
"""The paper's three simulation studies: run_study.py --study 1|2|3.

n, p, rho and the hard threshold d come from the presets of `sitscreen
simulate --study`; SWEEPS holds what each study varies.  Study 1 sweeps the
slice size c over models a1..a4, study 2 runs the nonlinear b1..b4 under
rho = 0.8, and both print per-covariate selection proportions, the all-active
proportion P_a and minimum-model-size quantiles per (model, c).  Study 3
sets the adjusted FDR rule (by) against the unadjusted one (bh), which
inflates the FDR well beyond q, and prints mean FDP, average model size and
P_all per (model, q, rule).  Its full grid takes a while; --p 1000 is quick.
"""

import argparse
import json
import sys

from sitscreen import DesignSpec, ModelSpec, SitScreenError, ThresholdRule, run_study
from sitscreen.cli import STUDY_PRESETS

SWEEPS = {
    "1": {"models": ["a1", "a2", "a3", "a4"], "s": 4,
          "slice_sizes": [2, 4, 8, 16, 32], "levels": None},
    "2": {"models": ["b1", "b2", "b3", "b4"], "s": None,
          "slice_sizes": [2, 32], "levels": None},
    "3": {"models": ["c1", "c2", "c3", "c4"], "s": 20,
          "slice_sizes": [32], "levels": [0.1, 0.2]},
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--study", required=True, choices=tuple(SWEEPS))
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, help="default: the study number")
    parser.add_argument("--models", nargs="+")
    parser.add_argument("--slice-sizes", nargs="+", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--s", type=int, help="sparsity of a*/c* models")
    parser.add_argument("--levels", nargs="+", type=float, help="study 3's q")
    parser.add_argument("--output", default=None, help="optional JSON path")
    study = parser.parse_known_args()[0].study
    preset = STUDY_PRESETS[study]
    parser.set_defaults(seed=int(study), n=preset["n"], p=preset["p"], **SWEEPS[study])
    args = parser.parse_args()
    # every table row writes one JSON key, which names the model and c or q
    swept = args.slice_sizes if args.levels is None else args.levels
    if len(set(args.models)) < len(args.models) or len(set(swept)) < len(swept):
        parser.error("a model, slice size or level may be listed once")
    if args.levels and study != "3":
        parser.error("--levels applies to study 3 only")
    if args.levels and len(args.slice_sizes) > 1:
        parser.error("study 3 takes one slice size: its keys name q, not c")
    return args, preset


def ranking_rows(args, design, model, preset):
    rule = ThresholdRule(kind="hard-size", d=preset["d"])
    print(f"\nModel ({model.id[0]}.{model.id[1]})  active={model.active_set}")
    header = "  ".join(f"X{k}" for k in model.active_set)
    print(f"{'c':>4}  {header}  P_a    25% 50% 75% 95%")
    for c in args.slice_sizes:
        report = run_study(design, model, c=c, rules=[rule],
                           reps=args.reps, master_seed=args.seed)
        summary = report.per_rule[rule.label]
        shares = summary.selection_proportions
        props = "  ".join(f"{shares[k]:.3f}" for k in model.active_set)
        quantiles = " ".join(f"{v:.0f}" for v in report.mms_quantiles.values())
        print(f"{c:>4}  {props}  {summary.p_all:.3f}  {quantiles}")
        yield f"{model.id}/c={c}", {
            "p_a": summary.p_all,
            "selection_proportions": summary.selection_proportions,
            "mms_quantiles": report.mms_quantiles,
        }


def fdr_rows(args, design, model, preset):
    print(f"\nModel ({model.id[0]}.{model.id[1]})  n={args.n} p={args.p} s={args.s}")
    print(f"{'q':>5} {'rule':>4}  {'FDP':>6}  {'AMS':>7}  {'P_all':>6}")
    for q in args.levels:
        rules = [ThresholdRule(kind="by", q=q), ThresholdRule(kind="bh", q=q)]
        report = run_study(design, model, c=args.slice_sizes[0], rules=rules,
                           reps=args.reps, master_seed=args.seed)
        for rule in rules:
            summary = report.per_rule[rule.label]
            print(f"{q:>5} {rule.kind:>4}  {summary.mean_fdp:>6.3f}  "
                  f"{summary.ams:>7.2f}  {summary.p_all:>6.2f}")
            yield f"{model.id}/q={q}/{rule.kind}", {
                "mean_fdp": summary.mean_fdp,
                "ams": summary.ams,
                "p_all": summary.p_all,
                "selection_proportions": summary.selection_proportions,
            }


def main():
    args, preset = parse_args()
    rows = fdr_rows if args.levels else ranking_rows
    collected = {}
    try:
        design = DesignSpec(n=args.n, p=args.p, rho=preset["rho"])
        for model_id in args.models:
            collected.update(rows(args, design, ModelSpec(id=model_id, s=args.s), preset))
    except SitScreenError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(collected, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
