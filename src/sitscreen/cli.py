"""Command-line front end.

Three subcommands:

  screen         CSV in, JSON screening report out (optional plot-data CSV)
  simulate       run a replicated synthetic study, JSON report out
  augment-check  screen, replace unselected columns by noise, screen again

Exit codes: 0 success, 1 closed stdout, 2 input error, 3 degenerate data,
4 config error.
Worker parallelism is capped by the SIT_SCREEN_THREADS environment variable;
thread count never changes results.  The master seed defaults to the fixed
constant 42 (never time-based) so runs are reproducible by default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from .errors import ConfigError, InputError, SitScreenError
from .estimator import (
    SliceConfig,
    VarianceCalibration,
    auto_calibration,
    plugin_calibration,
)
from .fdr import RULE_BH, RULE_BY, RULE_HARD_LEVEL, RULE_HARD_SIZE, ThresholdRule
from .io import ingest_csv
from .reports import (
    REPLICATION_CSV_HEADER,
    augment_report,
    dump_json,
    plot_data_lines,
    replication_csv_rows,
    screen_report,
    simulation_report_dict,
)
from .screening import Dataset, augment_with_noise, screen_all
from .seeding import DEFAULT_MASTER_SEED, derive_seed
from .simlab import DesignSpec, ModelSpec, run_study

# Presets matching the three study layouts of the simulation suite.
STUDY_PRESETS = {
    "1": {"n": 256, "p": 1000, "rho": 0.5, "c": 32, "d": 32},
    "2": {"n": 256, "p": 1000, "rho": 0.8, "c": 32, "d": 32},
    "3": {"n": 1024, "p": 5000, "rho": 0.5, "c": 32, "q": 0.1},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; config errors must exit 4.
    def error(self, message):
        raise ConfigError(message)


def auto_slice_size(n: int) -> int:
    """Power of two nearest sqrt(n) from below, 2^floor(log2(n) / 2), at
    least 2; whether n is large enough is for ``SliceConfig.slices``."""
    return max(2, 2 ** ((n.bit_length() - 1) // 2))


def default_hard_size(n: int, p: int) -> int:
    """Conventional screening budget floor(n / log(n)), capped at p."""
    return max(1, min(int(n / math.log(n)), p))


class _SliceSize(argparse.Action):
    # Not a type= converter: argparse rewrites a ValueError raised there,
    # ConfigError included, into its own generic message.
    def __call__(self, parser, namespace, text, option_string=None):
        if text != "auto":
            try:
                text = int(text)
            except ValueError:
                raise ConfigError(
                    f"--c must be an integer or 'auto', got {text!r}"
                ) from None
        setattr(namespace, self.dest, text)


def build_parser() -> _Parser:
    parser = _Parser(prog="sitscreen", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                        help="master seed (default: %(default)s)")
    common.add_argument("--output", default="-",
                        help="JSON report path, or - for stdout (default)")

    csv_common = argparse.ArgumentParser(add_help=False)
    csv_common.add_argument("--input", required=True, help="CSV file with header")
    csv_common.add_argument("--response", required=True,
                            help="response column: a name, or #k for 0-based index k")
    csv_common.add_argument("--standardize", action="store_true",
                            help="center and scale covariates before screening")
    csv_common.add_argument("--c", action=_SliceSize, default="auto",
                            help="observations per slice, or 'auto' (default)")
    csv_common.add_argument("--sigma", choices=("auto", "fixed", "plugin"),
                            default="auto", help="variance calibration mode")
    csv_common.add_argument("--rule", default=RULE_BY,
                            choices=(RULE_BY, RULE_BH, RULE_HARD_SIZE, RULE_HARD_LEVEL),
                            help="threshold rule (default: by)")
    csv_common.add_argument("--q", type=float, default=0.1,
                            help="nominal FDR level for by/bh (default: 0.1)")
    csv_common.add_argument("--d", type=int, default=None,
                            help="model size for hard-size (default: n/log n)")
    csv_common.add_argument("--level", type=float, default=None,
                            help="statistic cutoff for hard-level")

    p_screen = sub.add_parser("screen", parents=[common, csv_common],
                              help="screen a CSV dataset")
    p_screen.add_argument("--plot-data", default=None,
                          help="also write an index,name,omega,selected CSV")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a replicated synthetic study")
    p_sim.add_argument("--study", choices=tuple(STUDY_PRESETS), default=None,
                       help="preset sizes for study 1, 2, or 3")
    p_sim.add_argument("--model", required=True,
                       help="response model id (a1..a4, b1..b4, c1..c4)")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--s", type=int, default=None,
                       help="sparsity for a*/c* models")
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--c", type=int, default=None,
                       help="observations per slice")
    p_sim.add_argument("--rule", action="append", default=None,
                       choices=(RULE_HARD_SIZE, RULE_BY, RULE_BH),
                       help="threshold rule; repeat for several")
    p_sim.add_argument("--d", type=int, default=None)
    p_sim.add_argument("--q", type=float, default=None)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--per-rep", default=None,
                       help="stream per-replication rows to this CSV")

    p_aug = sub.add_parser("augment-check", parents=[common, csv_common],
                           help="threshold stability check with noise columns")
    p_aug.add_argument("--num-aux", type=int, default=None,
                       help="auxiliary noise columns (default: p - #selected)")
    return parser


def _calibration_for(mode: str, y):
    if mode == "fixed":
        return VarianceCalibration.fixed()
    if mode == "plugin":
        return plugin_calibration(y)
    return auto_calibration(y)


def _screen_once(args, data: Dataset, seed: int):
    """Shared screen pipeline; returns (result, selection, config)."""
    c = auto_slice_size(data.n) if args.c == "auto" else args.c
    config = SliceConfig(c=c, tie_seed=seed)
    calibration = _calibration_for(args.sigma, data.y)
    result = screen_all(data, config, calibration=calibration)
    rule = ThresholdRule(
        kind=args.rule,
        d=args.d if args.d is not None else default_hard_size(data.n, data.p),
        q=args.q,
        level=args.level,
    )
    selection = rule.apply(result)
    # Echo only the parameter the rule used, derived defaults included.
    effective = {
        "input": args.input,
        "response": args.response,
        "standardize": bool(args.standardize),
        "n": int(data.n),
        "p": int(data.p),
        "c": int(c),
        "H": int(result.n_effective // c),
        "n_effective": int(result.n_effective),
        "sigma_mode": args.sigma,
        "rule": args.rule,
        "d": rule.d if rule.kind == RULE_HARD_SIZE else None,
        "q": rule.q if rule.kind in (RULE_BY, RULE_BH) else None,
        "level": rule.level if rule.kind == RULE_HARD_LEVEL else None,
        "seed": int(seed),
    }
    return result, selection, effective


def cmd_screen(args) -> int:
    started = time.perf_counter()
    data = ingest_csv(args.input, args.response, standardize=args.standardize)
    result, selection, effective = _screen_once(args, data, args.seed)
    report = screen_report(
        result, selection, selection.selected, data.names, effective,
        timing_seconds=time.perf_counter() - started,
    )
    if not args.plot_data:
        dump_json(report, args.output)
        return 0
    lines = plot_data_lines(
        result, selection.selected, data.names, selection.realized_threshold
    )
    # Opened first: a bad plot-data path must fail before any report exists.
    with open(args.plot_data, "w", encoding="utf-8") as fh:
        try:
            dump_json(report, args.output)
        except OSError:
            fh.close()
            os.remove(args.plot_data)  # nor may a failed report leave a CSV
            raise
        fh.write("\n".join(lines) + "\n")
    return 0


def _simulate_settings(args):
    preset = STUDY_PRESETS.get(args.study, {}) if args.study else {}

    def pick(name, fallback=None):
        value = getattr(args, name)
        if value is not None:
            return value
        return preset.get(name, fallback)

    # The design validates n before the defaults derive c and d from it.
    design = DesignSpec(n=pick("n", 256), p=pick("p", 1000), rho=pick("rho", 0.5))
    c = pick("c", auto_slice_size(design.n))
    q = pick("q", 0.1)
    d = pick("d", default_hard_size(design.n, design.p))
    kinds = args.rule or [RULE_HARD_SIZE]
    rules = [ThresholdRule(kind=kind, d=d, q=q) for kind in kinds]
    return design, c, rules


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    design, c, rules = _simulate_settings(args)
    model = ModelSpec(id=args.model, s=args.s)

    hook = None
    per_rep_fh = None
    if args.per_rep:
        # Opened on the first outcome, so a run that fails before any
        # replication completes leaves no file behind.
        def hook(outcome):
            nonlocal per_rep_fh
            if per_rep_fh is None:
                per_rep_fh = open(args.per_rep, "w", encoding="utf-8")
                per_rep_fh.write(REPLICATION_CSV_HEADER + "\n")
            for row in replication_csv_rows(outcome):
                per_rep_fh.write(row + "\n")

    try:
        report = run_study(
            design, model, c, rules, reps=args.reps,
            master_seed=args.seed, outcome_hook=hook,
        )
    finally:
        if per_rep_fh is not None:
            per_rep_fh.close()

    effective = {
        "model": args.model,
        "s": model.s,
        "n": design.n,
        "p": design.p,
        "rho": design.rho,
        "c": c,
        "rules": [rule.label for rule in rules],
        "reps": args.reps,
        "seed": int(args.seed),
        "study": args.study,
    }
    payload = simulation_report_dict(
        report, effective, timing_seconds=time.perf_counter() - started
    )
    dump_json(payload, args.output)
    return 0


def cmd_augment_check(args) -> int:
    started = time.perf_counter()
    data = ingest_csv(args.input, args.response, standardize=args.standardize)
    result, selection, effective = _screen_once(args, data, args.seed)
    num_aux = args.num_aux
    if num_aux is None:
        num_aux = data.p - selection.num_selected
    augmented_data = augment_with_noise(
        data, keep=selection.selected, num_aux=num_aux,
        seed=derive_seed(args.seed, 1),
    )
    aug_result, aug_selection, aug_effective = _screen_once(
        args, augmented_data, args.seed
    )

    names = data.names
    kept_names = [names[int(k)] for k in selection.selected]
    aug_names = augmented_data.names
    reselected = [aug_names[int(k)] for k in aug_selection.selected]
    overlap = sorted(set(kept_names) & set(reselected))
    effective["num_aux"] = aug_effective["num_aux"] = int(num_aux)

    original_report = screen_report(
        result, selection, selection.selected, names, effective,
        timing_seconds=0.0,
    )
    augmented_report = screen_report(
        aug_result, aug_selection, aug_selection.selected, aug_names,
        aug_effective,
        timing_seconds=0.0,
    )
    for sub_report in (original_report, augmented_report):
        del sub_report["timing"]

    payload = augment_report(
        original_report,
        augmented_report,
        {
            "selected_original": sorted(kept_names),
            "selected_augmented": sorted(reselected),
            "retained": overlap,
            "retained_fraction": (
                len(overlap) / len(kept_names) if kept_names else None
            ),
        },
        effective,
        timing_seconds=time.perf_counter() - started,
    )
    dump_json(payload, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"screen": cmd_screen, "simulate": cmd_simulate,
                    "augment-check": cmd_augment_check}
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except SitScreenError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:
        # The reader went away (``| head``): not an input error.  Point
        # stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
