"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).
"""

import json
import math
import time

import numpy as np
import pytest

from gausskl import (
    GaussianModel,
    check_c1,
    check_prop1,
    check_prop2,
    check_prop3,
    derive_seed,
    kl_gaussian,
    kl_scalar,
    mc_kl,
    random_spd,
    validate_spd,
)
from gausskl.cli import main as cli_main

from oracles import det2, kl_scalar_quad


def _verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_oracle_equivalence():
    """10 seeded Gaussian pairs per dim 1..4, |closed - mc(1e6)| <= 4se, < 60 s."""
    start = time.time()
    misses = 0
    for dim in (1, 2, 3, 4):
        for k in range(10):
            seed = derive_seed(1_000 * dim, k)
            sx = random_spd(dim, derive_seed(seed, 0), 10.0)
            sy = random_spd(dim, derive_seed(seed, 1), 10.0)
            est = mc_kl(GaussianModel(sy), GaussianModel(sx), 1_000_000,
                        seed=derive_seed(seed, 2))
            if abs(est.value - kl_gaussian(sx, sy)) > 4.0 * est.std_error:
                misses += 1
    elapsed = time.time() - start
    _verdict("closed-form/oracle equivalence", misses == 0 and elapsed < 60.0,
             f"misses={misses}/40, elapsed={elapsed:.1f}s")


def test_criterion_2_diagonal_gap_sweep():
    """10000 random instances, dims 1..8, condition targets up to 1e4."""
    violations = 0
    worst = math.inf
    for dim in range(1, 9):
        for i, cond in enumerate((1.0, 10.0, 100.0, 1e3, 1e4)):
            report = check_prop3(250, dim, master_seed=derive_seed(77, 10 * dim + i),
                                 condition_target=cond)
            violations += report.violations
            worst = min(worst, report.worst_margin)
    _verdict("diagonal bound gap sweep", violations == 0,
             f"violations={violations}/10000, worst_margin={worst:.3e}")


def test_criterion_3_block_superadditivity_sweep():
    """1000 random block structures, 2..4 blocks, total dim <= 8."""
    rng = np.random.default_rng(4242)
    violations = 0
    worst = math.inf
    for i in range(1000):
        n_blocks = int(rng.integers(2, 5))
        dims = []
        budget = 8
        for b in range(n_blocks):
            remaining_blocks = n_blocks - b - 1
            hi = budget - remaining_blocks
            d = int(rng.integers(1, hi + 1)) if hi > 1 else 1
            dims.append(d)
            budget -= d
        report = check_prop2(dims, 1, master_seed=derive_seed(333, i),
                             condition_target=100.0)
        violations += report.violations
        worst = min(worst, report.worst_margin)
    _verdict("block superadditivity sweep", violations == 0,
             f"violations={violations}/1000, worst_margin={worst:.3e}")


def test_criterion_4_monte_carlo_inequalities():
    """100 matched-mixture configurations at dims 1..3, n = 1e5, per check."""
    per_dim = (34, 33, 33)
    v1 = v2 = 0
    for dim, trials in zip((1, 2, 3), per_dim):
        v1 += check_prop1(trials, dim, master_seed=derive_seed(55, dim),
                          n_samples=100_000).violations
        v2 += check_c1(trials, dim, master_seed=derive_seed(66, dim),
                       n_samples=100_000).violations
    _verdict("Monte Carlo banded inequalities", v1 == 0 and v2 == 0,
             f"matched-covariance violations={v1}/100, full-bound violations={v2}/100")


def test_criterion_5_scalar_worked_values():
    """kl_scalar(1,4) vs quadrature within 1e-6; 2x2 case vs determinant arithmetic."""
    quad_value = kl_scalar_quad(1.0, 4.0)
    scalar_ok = abs(kl_scalar(1.0, 4.0) - quad_value) <= 1e-6
    assert quad_value == pytest.approx(0.806853, abs=1e-6)

    sx = validate_spd(np.eye(2))
    sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
    expected = -0.5 * math.log(det2([[1.0, 0.5], [0.5, 1.0]]))
    matrix_ok = abs(kl_gaussian(sx, sy) - expected) <= 1e-9
    _verdict("scalar worked values", scalar_ok and matrix_ok,
             f"scalar_delta={abs(kl_scalar(1.0, 4.0) - quad_value):.2e}, "
             f"matrix_delta={abs(kl_gaussian(sx, sy) - expected):.2e}")


def test_criterion_6_algebraic_invariants():
    """Congruence (1e-8 rel, 1000 draws), scale invariance (1e-12), m=1 agreement."""
    rng = np.random.default_rng(777)
    worst_congruence = 0.0
    for trial in range(1000):
        dim = 1 + trial % 6
        sx = random_spd(dim, derive_seed(trial, 0), 50.0)
        sy = random_spd(dim, derive_seed(trial, 1), 50.0)
        a = rng.standard_normal((dim, dim))
        while np.linalg.cond(a) > 100.0:
            a = rng.standard_normal((dim, dim))
        base = kl_gaussian(sx, sy)
        moved = kl_gaussian(validate_spd(a @ sx.entries @ a.T),
                            validate_spd(a @ sy.entries @ a.T))
        worst_congruence = max(worst_congruence,
                               abs(moved - base) / max(1.0, abs(base)))
    congruence_ok = worst_congruence <= 1e-8

    worst_scale = 0.0
    for trial in range(300):
        va, vb = np.exp(rng.uniform(-3, 3, size=2))
        for c in (1e-6, 1.0, 1e6):
            worst_scale = max(worst_scale,
                              abs(kl_scalar(c * va, c * vb) - kl_scalar(va, vb)))
    scale_ok = worst_scale <= 1e-12

    worst_m1 = 0.0
    for trial in range(300):
        vx, vy = np.exp(rng.uniform(-3, 3, size=2))
        dense = kl_gaussian(validate_spd([[vx]]), validate_spd([[vy]]))
        worst_m1 = max(worst_m1, abs(dense - kl_scalar(vx, vy)))
    m1_ok = worst_m1 <= 1e-12

    _verdict("algebraic invariants", congruence_ok and scale_ok and m1_ok,
             f"congruence={worst_congruence:.2e}, scale={worst_scale:.2e}, "
             f"m1={worst_m1:.2e}")


def test_criterion_7_cli_contract(tmp_path, capsys):
    """gen->kl round trip is exactly 0; verify all (defaults) exits 0; bad input exits 2."""
    matrix_path = tmp_path / "m.csv"
    code_gen = cli_main(["gen", "--dim", "3", "--seed", "5", "--cond", "10",
                         "--out", str(matrix_path)])
    capsys.readouterr()
    code_kl = cli_main(["kl", "--x", str(matrix_path), "--y", str(matrix_path)])
    round_trip = json.loads(capsys.readouterr().out)["results"]["kl_nats"]

    code_verify = cli_main(["verify", "--prop", "all"])
    capsys.readouterr()

    bad = tmp_path / "bad.csv"
    bad.write_text("1,0,0\n0,1,0\n")
    code_bad = cli_main(["kl", "--x", str(bad), "--y", str(matrix_path)])
    err = capsys.readouterr().err

    ok = (code_gen == 0 and code_kl == 0 and round_trip == 0.0
          and code_verify == 0 and code_bad == 2 and "NotSquare" in err)
    _verdict("CLI contract", ok,
             f"round_trip={round_trip!r}, verify_exit={code_verify}, "
             f"bad_exit={code_bad}")
