"""The four benchmark workloads as pools of operations on the public API.

Each pool is a fixed list of operations drawn from the seed.  The traced
runner repeats whole passes over a pool, so call counts per trial repeat
exactly for a seed; the timed runner runs every operation at least once, so
the near-equal accuracy figure is the same on every run of a seed.

Each operation calls the package through module attributes looked up at call
time, so the tracer's rebound wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import bench_inputs as bi

FAMILIES = ("campaign-closed", "campaign-mc", "kl-dense", "cli-files")

# campaign-closed: check_prop3 chunks over dims 1-8 and condition targets
# 1-1e4 (acceptance criterion 2), check_prop2 over random block structures
# of total dim <= 8 (criterion 3).
P3_CHUNK = 25
P3_CONDS = (1.0, 10.0, 100.0, 1e3, 1e4)
P2_CHUNK = 4
P2_STRUCTURES = 24
# campaign-mc: one p1 and one c1 trial per dim 1-3 at criterion 4's n.
MC_DIMS = (1, 2, 3)
MC_SAMPLES = 100_000
MC_SEEDS_PER_DIM = 2
# kl-dense: pre-certified pairs at cond 100, near-equal pairs at cond 1e4.
DENSE_PAIRS = 2
DENSE_COND = 100.0
NEAR_EQUAL_DIMS = (6, 64)
NEAR_EQUAL_KS = range(10, 41)
NEAR_EQUAL_COND = 1e4
NEAR_EQUAL_REPEATS = 2
# cli-files: kl on files at m = 64 and 512, half with a diagonal reference;
# gen at m = 512.
CLI_KL_DIMS = (64, 512)
CLI_GEN_DIM = 512
CLI_GEN_OPS = 2
CLI_COND = 100.0

# Package tolerance for closed forms, in nats, plus a relative allowance for
# the reference's own roundoff on divergences of hundreds of nats.
ABS_TOL = 1e-10
REL_TOL = 1e-9


@dataclass
class Op:
    """One benchmark operation: a call into the package and its check.

    ``check`` returns None when the result is correct, else a reason.
    ``trials`` is the number of campaign trials the call runs (1 otherwise).
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    trials: int = 1


@dataclass
class Family:
    name: str
    ops: list
    # The set-up probe's operation (setup_probe.py), for pools that start a workload.
    first_op: Optional[dict] = None
    # kl-dense only: per near-equal pair (repeat, dim, k), (relative error, negative).
    near_equal: dict = field(default_factory=dict)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def _spread(*groups) -> list:
    """Merge operation lists so that each is spread evenly over the pool."""
    keyed = [((i + 0.5) / len(g), j, op) for j, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _campaign_check(expected_digest: str, trials: int):
    def check(report) -> Optional[str]:
        if report.trials != trials:
            return f"ran {report.trials} trials, expected {trials}"
        if report.violations:
            return f"{report.violations} violations, worst margin {report.worst_margin!r}"
        if report.config_digest != expected_digest:
            return f"unexpected config_digest {report.config_digest!r}"
        return None
    return check


def _block_structure(rng: np.random.Generator, n_blocks: int) -> list:
    # Criterion 3's structures: 2-4 blocks, total dim at most 8.  The caller
    # cycles n_blocks so every seed has the same mix of block counts, which
    # set the number of factorizations per trial.
    dims, budget = [], 8
    for b in range(n_blocks):
        hi = budget - (n_blocks - b - 1)
        d = int(rng.integers(1, hi + 1)) if hi > 1 else 1
        dims.append(d)
        budget -= d
    return dims


def campaign_closed(gk, seed: int, workdir: Path) -> Family:
    rng = np.random.default_rng([seed, 1])
    p3_ops, p2_ops = [], []
    first = None
    for dim in range(1, 9):
        for cond in P3_CONDS:
            ms = _seed(rng)
            if first is None:
                first = {"call": "check_prop3", "args": [P3_CHUNK, dim, ms, cond]}
            digest = (f"prop=p3 trials={P3_CHUNK} dim={dim} condition_target={cond:g} "
                      f"lx_range=[0.001,1000] tol=1e-10 master_seed={ms} scheme=splitmix64")
            p3_ops.append(Op("p3", lambda d=dim, c=cond, s=ms: gk.check_prop3(P3_CHUNK, d, s, c),
                             _campaign_check(digest, P3_CHUNK), P3_CHUNK))
    for i in range(P2_STRUCTURES):
        dims = _block_structure(rng, 2 + i % 3)
        ms = _seed(rng)
        digest = (f"prop=p2 blocks={'x'.join(map(str, dims))} trials={P2_CHUNK} "
                  f"condition_target=100 tol=1e-10 master_seed={ms} scheme=splitmix64")
        p2_ops.append(Op("p2", lambda b=dims, s=ms: gk.check_prop2(b, P2_CHUNK, s, 100.0),
                         _campaign_check(digest, P2_CHUNK), P2_CHUNK))
    return Family("campaign-closed", _spread(p3_ops, p2_ops), first)


def campaign_mc(gk, seed: int, workdir: Path) -> Family:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(MC_SEEDS_PER_DIM):
        for prop, fn in (("p1", "check_prop1"), ("c1", "check_c1")):
            for dim in MC_DIMS:
                ms = _seed(rng)
                digest = (f"prop={prop} trials=1 dim={dim} n_samples={MC_SAMPLES} "
                          f"family=matched-mixture w=[0.2,0.8] spread=[0.1,0.9] "
                          f"band=4se master_seed={ms} scheme=splitmix64")
                ops.append(Op(prop, lambda f=fn, d=dim, s=ms: getattr(gk, f)(1, d, s, MC_SAMPLES),
                              _campaign_check(digest, 1)))
    return Family("campaign-mc", ops)


def kl_dense(gk, seed: int, workdir: Path) -> Family:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for m in (256, 512):
        for _ in range(DENSE_PAIRS):
            sx = bi.random_spd(rng, m, DENSE_COND)
            sy = bi.random_spd(rng, m, DENSE_COND)
            cx, cy = gk.validate_spd(sx), gk.validate_spd(sy)
            ref = bi.kl_reference(sx, sy)
            ops.append(Op(f"kl_m{m}", lambda a=cx, b=cy: gk.kl_gaussian(a, b),
                          lambda v, r=ref: None if _close(v, r) else f"kl {v!r} != ref {r!r}"))
            if m == 512:
                lx = np.exp(rng.uniform(-0.5 * math.log(DENSE_COND), 0.5 * math.log(DENSE_COND), m))
                spec = gk.DiagSpectrum.from_variances(lx)
                refs = (bi.kl_reference(np.diag(lx), sy), bi.diag_bound_reference(lx, sy),
                        bi.gap_reference(sy))
                ops.append(Op("gap_m512", lambda a=spec, b=cy: gk.kl_gap_diagonal(a, b),
                              lambda rep, r=refs: _check_gap(rep.kl_exact, rep.bound, rep.gap, r)))
    stats = {}
    near = []
    for rep in range(NEAR_EQUAL_REPEATS):
        for dim in NEAR_EQUAL_DIMS:
            for k in NEAR_EQUAL_KS:
                sx, sy, exact = bi.near_equal_pair(rng, dim, NEAR_EQUAL_COND, k)
                near.append(Op("near_equal",
                               lambda a=gk.validate_spd(sx), b=gk.validate_spd(sy): gk.kl_gaussian(a, b),
                               _near_equal_check(stats, (rep, dim, k), exact)))
    return Family("kl-dense", _spread(ops, near), near_equal=stats)


def _check_gap(kl, bound, gap, refs) -> Optional[str]:
    kl_ref, bound_ref, gap_ref = refs
    if not _close(kl, kl_ref):
        return f"kl {kl!r} != ref {kl_ref!r}"
    if not _close(bound, bound_ref):
        return f"bound {bound!r} != ref {bound_ref!r}"
    # The gap is a difference of two terms of size kl_ref.
    if abs(gap - gap_ref) > ABS_TOL + REL_TOL * abs(kl_ref):
        return f"gap {gap!r} != ref {gap_ref!r}"
    return None


def _near_equal_check(stats: dict, key: tuple, exact: float):
    def check(value: float) -> Optional[str]:
        err = abs(value - exact) / exact
        stats[key] = (err if math.isfinite(err) else math.inf, value < 0.0)
        # The package promises ABS_TOL nats; a negative value inside that
        # band is the known cancellation defect, tracked by the error metric.
        if not abs(value - exact) <= ABS_TOL:
            return f"near-equal kl {value!r} differs from exact {exact!r} by more than {ABS_TOL}"
        return None
    return check


def run_cli(gk, argv: list):
    """cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gk.cli.main(argv)
    return code, out.getvalue()


def _cli_kl_check(refs):
    def check(result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"kl exited {code}"
        res = json.loads(text)["results"]
        if len(refs) == 1:
            return None if _close(res["kl_nats"], refs[0]) else f"kl_nats {res['kl_nats']!r} != ref {refs[0]!r}"
        if "gap_nats" not in res:
            return "diagonal reference gave no bound/gap"
        return _check_gap(res["kl_nats"], res["bound_nats"], res["gap_nats"], refs)
    return check


def _cli_gen_check(path: Path, dim: int, cond: float):
    seen = {}

    def check(result) -> Optional[str]:
        code, text = result
        if code != 0 or json.loads(text)["status"] != "ok":
            return f"gen exited {code}"
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if seen:
            return None if seen["digest"] == digest else "gen output changed between runs"
        a = np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2)
        if a.shape != (dim, dim) or not np.array_equal(a, a.T):
            return f"gen wrote a {a.shape} matrix that is not symmetric"
        eig = np.linalg.eigvalsh(a)
        if eig[0] <= 0.0 or eig[-1] / eig[0] > cond * (1.0 + 1e-6):
            return f"gen matrix has eigenvalue range [{eig[0]!r}, {eig[-1]!r}]"
        seen["digest"] = digest
        return None
    return check


def cli_files(gk, seed: int, workdir: Path) -> Family:
    rng = np.random.default_rng([seed, 4])
    ops, gens = [], []
    first = None
    for m in CLI_KL_DIMS:
        sx = bi.random_spd(rng, m, CLI_COND)
        sy = bi.random_spd(rng, m, CLI_COND)
        lx = np.exp(rng.uniform(-0.5 * math.log(CLI_COND), 0.5 * math.log(CLI_COND), m))
        paths = {name: workdir / f"{name}_m{m}.csv" for name in ("x", "xdiag", "y")}
        bi.write_csv(paths["x"], sx)
        bi.write_csv(paths["xdiag"], np.diag(lx))
        bi.write_csv(paths["y"], sy)
        full = ["kl", "--x", str(paths["x"]), "--y", str(paths["y"])]
        diag = ["kl", "--x", str(paths["xdiag"]), "--y", str(paths["y"])]
        first = first or {"cli": full}
        ops.append(Op(f"cli_kl_m{m}", lambda a=full: run_cli(gk, a),
                      _cli_kl_check((bi.kl_reference(sx, sy),))))
        ops.append(Op(f"cli_kl_m{m}", lambda a=diag: run_cli(gk, a),
                      _cli_kl_check((bi.kl_reference(np.diag(lx), sy),
                                     bi.diag_bound_reference(lx, sy), bi.gap_reference(sy)))))
    for i in range(CLI_GEN_OPS):
        out = workdir / f"gen_{i}.csv"
        cond = 10.0 ** (1 + i % 2)
        argv = ["gen", "--dim", str(CLI_GEN_DIM), "--seed", str(_seed(rng)),
                "--cond", repr(cond), "--out", str(out)]
        gens.append(Op(f"cli_gen_m{CLI_GEN_DIM}", lambda a=argv: run_cli(gk, a),
                       _cli_gen_check(out, CLI_GEN_DIM, cond)))
    return Family("cli-files", _spread(ops, gens), first)


POOLS = {
    "campaign-closed": campaign_closed,
    "campaign-mc": campaign_mc,
    "kl-dense": kl_dense,
    "cli-files": cli_files,
}


def build(name: str, gk, seed: int, workdir: Path) -> Family:
    return POOLS[name](gk, seed, workdir)
