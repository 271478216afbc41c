"""Command-line front door.

Three subcommands:

* ``kl``     -- closed-form divergence between two CSV covariance matrices,
  plus the diagonal bound and gap when the reference file is exactly diagonal.
* ``verify`` -- run a property campaign and exit 0 (clean) or 1 (violations).
* ``gen``    -- write a reproducible random SPD (or diagonal) test matrix.

Matrix files are headerless CSV.  Reports are a single JSON object on stdout
(``kl`` also offers a plain-text format).  Exit codes: 0 success/verified,
1 inequality violation found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .divergence import kl_gap_diagonal, kl_gaussian
from .errors import GaussKlError
from .harness import (
    _block_dims,
    check_c1,
    check_prop1,
    check_prop2,
    check_prop3,
    random_diag_spectrum,
)
from .linalg import random_spd, read_matrix_csv, validate_spd, write_matrix_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausskl",
        description="KL divergence between zero-mean Gaussians: closed forms, "
                    "diagonal bounds, and randomized verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kl = sub.add_parser("kl", help="divergence between two CSV covariance matrices")
    p_kl.add_argument("--x", required=True, metavar="FILE",
                      help="reference covariance (CSV, headerless)")
    p_kl.add_argument("--y", required=True, metavar="FILE",
                      help="subject covariance (CSV, headerless)")
    p_kl.add_argument("--format", choices=("json", "text"), default="json")

    p_verify = sub.add_parser("verify", help="run a property campaign")
    p_verify.add_argument("--prop", required=True, choices=("p1", "p2", "p3", "c1", "all"))
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--dim", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--samples", type=int, default=10_000,
                          help="Monte Carlo sample count for p1/c1 (default 10000)")
    p_verify.add_argument("--cond", type=float, default=100.0,
                          help="condition target for generated matrices (default 100)")
    p_verify.add_argument("--blocks", default=None, metavar="D1,D2,...",
                          help="block dimensions for p2 (default: split --dim in two)")

    p_gen = sub.add_parser("gen", help="write a random SPD test matrix as CSV")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--cond", type=float, default=10.0)
    p_gen.add_argument("--diagonal", action="store_true",
                       help="emit a diagonal matrix (exact zero off-diagonals)")
    p_gen.add_argument("--out", required=True, metavar="FILE")
    return parser


def _check_finite(results: dict) -> None:
    for key, value in results.items():
        if not math.isfinite(value):
            raise GaussKlError(f"non-finite result for {key}: {value!r}")


def _cmd_kl(args) -> int:
    raw_x = read_matrix_csv(args.x)
    sx = validate_spd(raw_x)
    sy = validate_spd(read_matrix_csv(args.y))
    results = {"kl_nats": kl_gaussian(sx, sy)}

    # The bound applies only when the reference file is structurally diagonal:
    # literal zeros off the diagonal (a certified diagonal has no zeros).
    if np.count_nonzero(raw_x) == sx.dim:
        rep = kl_gap_diagonal(sx.diagonal(), sy)
        results["bound_nats"] = rep.bound
        results["gap_nats"] = rep.gap
    _check_finite(results)

    report = {
        "command": "kl",
        "inputs": {"x": args.x, "y": args.y, "dim": sx.dim},
        "results": results,
        "status": "ok",
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        for key, value in results.items():
            print(f"{key} = {value!r}")
    return 0


def _p2_blocks(args) -> list:
    spec = args.blocks or f"{args.dim // 2},{args.dim - args.dim // 2}"
    origin = "--blocks" if args.blocks else "--dim split in two"
    try:
        return _block_dims([int(part) for part in spec.split(",")])
    except ValueError as exc:
        raise ValueError(f"invalid p2 blocks {spec!r} from {origin}: {exc}") from exc


def _cmd_verify(args) -> int:
    props = ("p1", "p2", "p3", "c1") if args.prop == "all" else (args.prop,)
    # The p2 block list is resolved before any campaign runs, so a bad one fails fast.
    blocks = _p2_blocks(args) if "p2" in props else None
    campaigns = {
        "p1": lambda: check_prop1(args.trials, args.dim, args.seed, args.samples),
        "p2": lambda: check_prop2(blocks, args.trials, args.seed, args.cond),
        "p3": lambda: check_prop3(args.trials, args.dim, args.seed, args.cond),
        "c1": lambda: check_c1(args.trials, args.dim, args.seed, args.samples),
    }
    reports = [campaigns[p]() for p in props]
    total_violations = sum(r.violations for r in reports)

    if len(reports) == 1:
        print(reports[0].to_json())
    else:
        combined = {
            "proposition": "all",
            "reports": [r.as_dict() for r in reports],
            "violations": total_violations,
        }
        print(json.dumps(combined))
    return 0 if total_violations == 0 else 1


def _cmd_gen(args) -> int:
    if args.diagonal:
        matrix = random_diag_spectrum(args.dim, args.seed).as_matrix().entries
    else:
        matrix = random_spd(args.dim, args.seed, args.cond).entries
    write_matrix_csv(args.out, matrix)
    # Contract: the written file must survive a parse-and-validate round trip.
    validate_spd(read_matrix_csv(args.out))

    report = {
        "command": "gen",
        "inputs": {"dim": args.dim, "seed": args.seed, "cond": args.cond,
                   "diagonal": bool(args.diagonal)},
        "results": {"out": args.out},
        "status": "ok",
    }
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"kl": _cmd_kl, "verify": _cmd_verify, "gen": _cmd_gen}
    try:
        return handlers[args.command](args)
    except (GaussKlError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
