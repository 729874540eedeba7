#!/usr/bin/env python3
"""Null distribution of the z statistic: sigma^2, mean, variance, KS distance.

Draws one response and ``--reps`` independent standard-normal covariates,
screens them all in one ``screen_all`` call under the default (``auto``)
calibration, and compares the z scores with the standard normal.  Also
prints var(z) * sigma^2, the empirical variance of sqrt(n (c - 1)) * omega,
and the share of these null columns that ``by`` selects at q = 0.1.

``--response`` picks the response: ``gaussian``, ``binary:PI`` (1 with
probability PI, else 0), or ``levels:A/B/C`` (0, 1, 2, ... with shares
proportional to A, B, C, ...).  The slice size trades power against
calibration: the normal approximation degrades as c/n grows.

    python scripts/null_calibration.py --n 1024 --slice-sizes 32 \\
        --reps 4000 --response binary:0.9
"""

import argparse

import numpy as np
from scipy.stats import kstest

from sitscreen import Dataset, FdrConfig, SliceConfig, by_threshold, screen_all


def draw_response(spec: str, n: int, rng) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "gaussian" and not arg:
        return rng.standard_normal(n)
    if kind == "binary":
        return (rng.random(n) < float(arg)).astype(np.float64)
    if kind == "levels":
        shares = np.array([float(v) for v in arg.split("/")])
        return rng.choice(shares.shape[0], size=n, p=shares / shares.sum()).astype(np.float64)
    raise SystemExit(f"--response must be gaussian, binary:PI or levels:A/B/..., got {spec!r}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--slice-sizes", nargs="+", type=int,
                        default=[2, 8, 32, 128])
    parser.add_argument("--reps", type=int, default=2000,
                        help="null covariates, screened together")
    parser.add_argument("--response", default="gaussian",
                        help="gaussian, binary:PI or levels:A/B/... (default: gaussian)")
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    print(f"n={args.n}, reps={args.reps}, response={args.response}")
    print(f"{'c':>5} {'sigma^2':>8} {'mean(z)':>9} {'var(z)':>8} "
          f"{'var*s^2':>8} {'KS':>7} {'by sel':>7}")
    for c in args.slice_sizes:
        rng = np.random.default_rng(args.seed)
        y = draw_response(args.response, args.n, rng)
        x = rng.standard_normal((args.n, args.reps))
        result = screen_all(Dataset(x, y), SliceConfig(c=c, tie_seed=args.seed))
        z, sigma_sq = result.z, result.calibration.sigma_sq
        ks = kstest(z, "norm").statistic
        selected = by_threshold(result, FdrConfig(q=0.1)).num_selected / args.reps
        print(f"{c:>5} {sigma_sq:>8.4f} {z.mean():>9.4f} {z.var():>8.4f} "
              f"{z.var() * sigma_sq:>8.4f} {ks:>7.4f} {selected:>7.4f}")


if __name__ == "__main__":
    main()
