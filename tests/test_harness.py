import json
import math
import os
import sys
import threading

import numpy as np
import pytest

import oracles
from gausskl import McEstimate, NotPositiveDefinite, SpdMatrix, harness, linalg
from gausskl import (
    check_c1,
    check_prop1,
    check_prop2,
    check_prop3,
    derive_seed,
    diagonal_lower_bound,
    kl_gap_diagonal,
    kl_gaussian,
    random_diag_spectrum,
    random_spd,
    validate_spd,
)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(1, i) for i in range(100)]
        assert seeds == [derive_seed(1, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_master_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_negative_master_seed_accepted(self):
        assert 0 <= derive_seed(-12345, 3) < 2 ** 64

    @staticmethod
    def _splitmix64(seed, index):
        # The scheme in Python integers, independent of the package's uint64 arrays.
        mask = 2 ** 64 - 1
        z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    @pytest.mark.parametrize("master", [-7, 0, 2 ** 63, 2 ** 64 - 1, 2 ** 70 + 3])
    def test_array_derivation_equals_scalar(self, master):
        # Campaigns derive a chunk's seeds as one uint64 array; no overflow warning is raised.
        seeds = derive_seed(np.uint64(master % 2 ** 64), np.arange(4, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, i) for i in range(4)]
        assert seeds.tolist() == [self._splitmix64(master, i) for i in range(4)]
        streams = derive_seed(seeds, np.arange(3, dtype=np.uint64)[:, None])
        assert streams.tolist() == [[derive_seed(s, i) for s in seeds.tolist()] for i in range(3)]

    def test_empty_array(self):
        seeds = derive_seed(np.uint64(5), np.arange(0, dtype=np.uint64))
        assert seeds.shape == (0,) and seeds.dtype == np.uint64

    @pytest.mark.parametrize("seed, index", [(5, 3), (-7, 0), (2 ** 64 - 1, 2), (2 ** 70 + 3, 1)])
    def test_numpy_integers_and_integer_arrays(self, seed, index):
        # Any integer argument, numpy scalars and int64 arrays included (an np.arange
        # sweep), is taken modulo 2**64, in either position, with no overflow warning.
        want = self._splitmix64(seed, index)
        word = seed % 2 ** 64
        scalars = [np.uint64(word)] + ([np.int64(seed)] if -2 ** 63 <= seed < 2 ** 63 else [])
        for s in scalars:
            assert derive_seed(s, np.int64(index)) == want
            assert type(derive_seed(s, np.int64(index))) is int
        assert derive_seed(seed, np.arange(index + 1))[-1] == want
        assert derive_seed(np.array([word], dtype=np.uint64), index).tolist() == [want]
        if seed < 2 ** 63:
            assert derive_seed(np.array([seed]), np.array([index])).tolist() == [want]

    @pytest.mark.parametrize("seed, index", [(5, 3.0), (np.float64(5), 3), (5, np.arange(2.0)),
                                             (np.array([1.5]), 0), (5, np.array([True]))])
    def test_non_integers_rejected(self, seed, index):
        with pytest.raises(TypeError):
            derive_seed(seed, index)

    @pytest.mark.parametrize("master", [np.int64(1), np.uint64(1), np.int32(-7)])
    def test_numpy_integer_master_seeds(self, master):
        # Each campaign reports exactly what the equal Python-int master seed gives.
        plain = int(master)
        assert check_prop3(3, 2, master, 10.0) == check_prop3(3, 2, plain, 10.0)
        assert check_prop2([2, 2], 3, master) == check_prop2([2, 2], 3, plain)
        assert check_prop1(1, 2, master, 10_000) == check_prop1(1, 2, plain, 10_000)
        assert check_c1(1, 1, master, 10_000) == check_c1(1, 1, plain, 10_000)


class TestLogUniform:
    # One affine map over the stacked rng.random draws gives numpy's uniform bit for bit.
    @pytest.mark.parametrize("lo, hi", [(-354.9, 354.9), harness._LOG_VARIANCE_RANGE,
                                        (0.25, 0.25)], ids=["wide", "variance-range", "lo-is-hi"])
    def test_equals_generator_uniform(self, lo, hi):
        seeds = [derive_seed(11, i) for i in range(6)]
        got = linalg._log_uniform(5, [np.random.default_rng(s) for s in seeds], lo, hi)
        expected = np.exp([np.random.default_rng(s).uniform(lo, hi, 5) for s in seeds])
        assert got.tobytes() == expected.tobytes()


class TestGenerators:
    # Campaign chunks hash their seeds in one pass; every generator must be
    # np.random.default_rng(seed), state and draws alike.
    @staticmethod
    def _assert_default_rng(seeds):
        for seed, rng in zip(seeds, harness._generators(seeds), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_word_boundary_seeds(self):
        self._assert_default_rng([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])

    def test_derived_seeds(self):
        self._assert_default_rng([derive_seed(m, i) for m in (1, -7, 2 ** 40) for i in range(400)])

    def test_first_draws_match(self):
        seeds = [derive_seed(3, i) for i in range(5)] + [2 ** 64 - 1]
        for seed, rng in zip(seeds, harness._generators(seeds)):
            ref = np.random.default_rng(seed)
            np.testing.assert_array_equal(rng.uniform(-2.0, 2.0, 7), ref.uniform(-2.0, 2.0, 7))
            np.testing.assert_array_equal(rng.standard_normal((3, 3)), ref.standard_normal((3, 3)))

    def test_empty(self):
        assert harness._generators([]) == []


class TestRandomDiagSpectrum:
    @pytest.mark.parametrize("dim", [1, 8, 512])
    def test_log_uniform_in_variance_range(self, dim):
        # The oracle draws the same stream with numpy alone, bit for bit.
        lx = random_diag_spectrum(dim, derive_seed(dim, 3))
        ref = oracles.log_uniform_spectrum(dim, derive_seed(dim, 3), *harness.VARIANCE_RANGE)
        assert lx.dim == dim
        assert lx.variances.tobytes() == ref.variances.tobytes()
        lo, hi = harness.VARIANCE_RANGE
        assert np.all((lo <= lx.variances) & (lx.variances <= hi))
        assert not lx.variances.flags.writeable

    def test_range_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            random_diag_spectrum(3, 1, 0.1, 10.0)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_bad_dim_is_a_value_error(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            random_diag_spectrum(dim, 1)

    @pytest.mark.parametrize("dim", [513, 5_000_000])
    def test_oversize_dim_is_refused_before_drawing(self, monkeypatch, dim):
        class NoDraws:
            def uniform(self, *args, **kwargs):
                raise AssertionError("variances were drawn before the dimension was checked")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(ValueError, match=f"dimension {dim} exceeds supported maximum 512"):
            random_diag_spectrum(dim, 1)


class TestCheckProp3:
    def test_campaign_clean(self):
        report = check_prop3(10_000, 4, master_seed=1, condition_target=100.0)
        assert report.violations == 0
        assert report.trials == 10_000
        assert report.worst_margin >= -1e-10

    def test_dimension_one_forces_equality(self):
        report = check_prop3(500, 1, master_seed=5, condition_target=100.0)
        assert report.violations == 0
        # 1x1 matrices are diagonal, so every slack is pure roundoff
        assert report.worst_margin >= -1e-12

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            check_prop3(0, 4, master_seed=1, condition_target=100.0)

    def test_reproducible(self):
        a = check_prop3(200, 3, master_seed=9, condition_target=1000.0)
        b = check_prop3(200, 3, master_seed=9, condition_target=1000.0)
        assert a == b


class TestCheckProp2:
    def test_worked_block_example(self):
        # blocks (1,1): reference identity, subject with 0.5 correlation;
        # unit-variance marginals contribute zero, the joint term remains
        sx = validate_spd(np.eye(2))
        sy = validate_spd([[1.0, 0.5], [0.5, 1.0]])
        marginals = (kl_gaussian(validate_spd([[1.0]]), validate_spd([[1.0]]))
                     + kl_gaussian(validate_spd([[1.0]]), validate_spd([[1.0]])))
        slack = kl_gaussian(sx, sy) - marginals
        assert slack == pytest.approx(0.14384103622589045, abs=1e-9)
        assert slack > 0.0

    def test_campaign_clean(self):
        report = check_prop2([2, 3], 1000, master_seed=11)
        assert report.violations == 0
        assert report.worst_margin >= -1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_prop2([4], 10, master_seed=1)
        with pytest.raises(ValueError):
            check_prop2([2, 0], 10, master_seed=1)
        with pytest.raises(ValueError):
            check_prop2([1, 1], 0, master_seed=1)

    def test_oversize_total_rejected_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a block was drawn before the total dim was checked")

        monkeypatch.setattr(harness, "_random_symmetric", never)
        with pytest.raises(ValueError, match="dimension 600 exceeds supported maximum 512"):
            check_prop2([300, 300], 3, 1)

    @pytest.mark.parametrize("dims", [[1.5, 2], ["2", "1"], [2, math.inf], [2, math.nan],
                                      [True, 2], [np.True_, 2]])
    def test_non_integral_block_dims_rejected(self, dims):
        # Not truncated to a structure the caller did not ask for.
        with pytest.raises(ValueError, match="block dims must be integers"):
            check_prop2(dims, 3, 1)

    @pytest.mark.parametrize("dims", [np.array([2, 1]), [2.0, 1], [np.int32(2), np.float64(1.0)],
                                      iter([2, 1])], ids=["array", "float", "numpy", "iterator"])
    def test_integral_block_dims_accepted(self, dims):
        assert check_prop2(dims, 3, 1) == check_prop2([2, 1], 3, 1)

    def test_reproducible(self):
        a = check_prop2([1, 2], 100, master_seed=4)
        b = check_prop2([1, 2], 100, master_seed=4)
        assert a == b


class TestCheckProp1:
    def test_campaign_clean(self):
        report = check_prop1(20, 2, master_seed=3, n_samples=10_000)
        assert report.violations == 0
        assert report.worst_margin >= 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_prop1(0, 2, master_seed=1, n_samples=10_000)
        with pytest.raises(ValueError):
            check_prop1(10, 2, master_seed=1, n_samples=9_999)


class TestCheckC1:
    def test_campaign_clean(self):
        report = check_c1(20, 2, master_seed=9, n_samples=10_000)
        assert report.violations == 0
        assert report.worst_margin >= 0.0

    def test_reproducible(self):
        a = check_c1(5, 1, master_seed=2, n_samples=10_000)
        b = check_c1(5, 1, master_seed=2, n_samples=10_000)
        assert a == b


CAMPAIGNS = {"p3": lambda trials, dim: check_prop3(trials, dim, 1, 100.0),
             "p2": lambda trials, dim: check_prop2([dim, dim], trials, 1),
             "p1": lambda trials, dim: check_prop1(trials, dim, 1, 10_000),
             "c1": lambda trials, dim: check_c1(trials, dim, 1, 10_000)}


class TestCountArguments:
    # A bool is not a trial count or a dimension, and neither is a float or a string:
    # each is refused with ValueError before anything is drawn (p2's block dims are
    # _block_dims' to check).  A numpy integer is a count.
    @staticmethod
    def no_draws(monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("drawn before the arguments were checked")

        for name in ("_generators", "_random_scaled_spd", "random_diag_spectrum"):
            monkeypatch.setattr(harness, name, never)

    @pytest.mark.parametrize("prop", list(CAMPAIGNS))
    @pytest.mark.parametrize("trials", [True, np.True_, 3.0, "3"])
    def test_trials_must_be_an_integer(self, monkeypatch, prop, trials):
        self.no_draws(monkeypatch)
        with pytest.raises(ValueError, match="trials must be an integer"):
            CAMPAIGNS[prop](trials, 2)

    @pytest.mark.parametrize("prop", ["p3", "p1", "c1"])
    @pytest.mark.parametrize("dim", [True, np.True_, 2.0])
    def test_dim_must_be_an_integer(self, monkeypatch, prop, dim):
        self.no_draws(monkeypatch)
        with pytest.raises(ValueError, match="dim must be an integer"):
            CAMPAIGNS[prop](3, dim)

    @pytest.mark.parametrize("prop", list(CAMPAIGNS))
    def test_numpy_integers_are_counts(self, prop):
        report = CAMPAIGNS[prop](np.int64(2), np.int32(2))
        assert report == CAMPAIGNS[prop](2, 2)
        assert json.loads(report.to_json())["trials"] == 2

    @pytest.mark.parametrize("dim", [True, np.True_, 2.0, "2"])
    @pytest.mark.parametrize("draw", [lambda d: random_spd(d, 1, 10.0),
                                      lambda d: random_diag_spectrum(d, 1)],
                             ids=["random_spd", "random_diag_spectrum"])
    def test_public_draws_refuse_a_non_integer_dim(self, draw, dim):
        # The campaigns' check, made by the first draw of both.
        with pytest.raises(ValueError, match="dim must be an integer"):
            draw(dim)

    def test_public_draws_take_a_numpy_integer_dim(self):
        assert random_spd(np.int32(3), 1, 10.0).entries.tobytes() == \
            random_spd(3, 1, 10.0).entries.tobytes()
        assert random_diag_spectrum(np.int64(3), 1).variances.tobytes() == \
            random_diag_spectrum(3, 1).variances.tobytes()


class TestViolationCounting:
    def test_shifted_bound_violates_every_p3_trial(self, monkeypatch):
        # Raising the bound by 1e-9 pushes every equality-case slack to about
        # -1e-9, ten times past the tolerance.
        real = harness._diagonal_sum
        monkeypatch.setattr(harness, "_diagonal_sum", lambda vx, vy: real(vx, vy) + 1e-9)
        report = check_prop3(40, 3, master_seed=2, condition_target=100.0)
        assert report.violations == report.trials == 40
        assert report.worst_margin == pytest.approx(-1e-9, abs=1e-11)

    def test_negative_estimate_violates_every_c1_trial(self, monkeypatch):
        # An estimate of -1 nat with no band: both slacks are -1 minus a
        # nonnegative divergence or bound, so every trial violates.
        monkeypatch.setattr(harness, "mc_kl", lambda py, px, n, seed: McEstimate(
            value=-1.0, std_error=0.0, n_samples=n, seed=seed))
        report = check_c1(6, 2, master_seed=9, n_samples=10_000)
        assert report.violations == report.trials == 6
        assert report.worst_margin <= -1.0

    @pytest.mark.parametrize("rows, budget", [
        ([(math.nan, -1.0)] * 3, 1),
        ([(0.0, -0.0)] * 2, 2),  # equal minima in one row: the first stays
        ([(-0.0, 0.0)] * 2, 2),
        ([(1.0, 0.0), (-0.0, 2.0), (0.0, -0.0)], 1),  # equal minima in different chunks
        ([(math.nan, math.nan)] * 2 + [(3.0, math.nan)], 2),  # a chunk of NaN slacks only
        ([(math.nan, math.nan)] * 2, 1),
        ([(math.nan, -1e-9), (-1e-11, math.nan), (0.5, -2.0), (math.nan, 1.0)], 3),
    ])
    def test_nan_slack_does_not_hide_a_violation(self, monkeypatch, rows, budget):
        # The fold against oracles.fold_slacks, by hex, with budget trials per chunk at dim 1.
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", budget)
        chunks = iter([rows[i:i + budget] for i in range(0, len(rows), budget)])
        report = harness._campaign("p3", len(rows), 0, 1e-10, "test", 1,
                                   lambda seeds: next(chunks))
        violations, worst = oracles.fold_slacks(rows, 1e-10)
        assert (report.violations, report.worst_margin.hex()) == (violations, worst.hex())


def _bits(report):
    return (report.trials, report.violations, report.worst_margin.hex(), report.config_digest)


def _hex(rows):
    return [tuple(float(s).hex() for s in row) for row in rows]


@pytest.fixture
def chunk_rows(monkeypatch):
    # Records the rows of slacks each campaign's chunk function returns.
    rows, real = [], harness._campaign

    def recording(*args):
        *head, chunk = args

        def recorded(seeds):
            out = chunk(seeds)
            rows.extend(np.asarray(out, dtype=float).tolist())
            return out

        return real(*head, recorded)

    monkeypatch.setattr(harness, "_campaign", recording)
    return rows


class TestChunkedCampaigns:
    # The chunked p3/p2 campaigns against their trial-by-trial bodies
    # (tests/oracles.py): every trial's slacks, and the report folded from
    # them by the same rule, agree bit for bit, whatever the chunk size.
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    @pytest.mark.parametrize("cond", [1.0, 1e4])
    def test_p3_matches_per_trial_oracle(self, chunk_rows, dim, cond):
        report = check_prop3(60, dim, 17, cond)
        expected = [oracles.p3_trial(dim, derive_seed(17, t), cond) for t in range(60)]
        assert _hex(chunk_rows) == _hex(expected)
        violations, worst = oracles.fold_slacks(expected, harness.CLOSED_FORM_TOL)
        assert (report.violations, report.worst_margin.hex()) == (violations, worst.hex())

    @pytest.mark.parametrize("dims", [[1, 1], [2, 3], [3, 3, 2], [1, 1, 1, 1], [2, 1, 2],
                                      [1, 3, 1, 3], [2, 2, 2, 2]])
    def test_p2_matches_per_trial_oracle(self, chunk_rows, dims):
        report = check_prop2(dims, 40, 23, 1e3)
        expected = [oracles.p2_trial(dims, derive_seed(23, t), 1e3) for t in range(40)]
        assert _hex(chunk_rows) == _hex(expected)
        violations, worst = oracles.fold_slacks(expected, harness.CLOSED_FORM_TOL)
        assert (report.violations, report.worst_margin.hex()) == (violations, worst.hex())

    @pytest.mark.parametrize("budget", [1, 3 * 16, 7 * 16])
    def test_reports_do_not_depend_on_chunk_size(self, monkeypatch, budget):
        # At dim 4, chunks of 1, 3 and 7 trials: 20 and 10 trials cross
        # chunk boundaries, including a last chunk that is not full.
        campaigns = (lambda: check_prop3(20, 4, 5, 1e4), lambda: check_prop2([2, 2], 10, 5))
        whole = [_bits(c()) for c in campaigns]
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", budget)
        assert [_bits(c()) for c in campaigns] == whole


MC_CAMPAIGNS = {"p1": (check_prop1, oracles.p1_trial), "c1": (check_c1, oracles.c1_trial)}


def _estimate(py, px, n, seed):
    # A stand-in estimate: no draws, and no floating-point exception under any errstate.
    return McEstimate(value=1.0, std_error=0.5, n_samples=n, seed=seed)


class TestMonteCarloScheduling:
    # c1 runs each trial's two mc_kl calls at once, the first on the caller's thread and
    # the second on one pool thread per campaign call; p1's lone call runs inline.
    @pytest.fixture
    def threads(self, monkeypatch):
        # The thread of every mc_kl call, by its seed; the estimates are the real ones.
        seen, real = {}, harness.mc_kl

        def recording(py, px, n, seed):
            seen[seed] = threading.get_ident()
            return real(py, px, n, seed)

        monkeypatch.setattr(harness, "mc_kl", recording)
        return seen

    @pytest.mark.parametrize("dim, n", [(1, 10_000), (1, 20_000), (2, 10_000), (2, 20_000),
                                        (3, 10_000), (3, 20_000)])
    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    @pytest.mark.parametrize("prop", sorted(MC_CAMPAIGNS))
    def test_matches_sequential_reference(self, chunk_rows, prop, trials, dim, n):
        campaign, reference = MC_CAMPAIGNS[prop]
        master = 100 * trials + dim
        report = campaign(trials, dim, master, n)
        expected = [reference(dim, derive_seed(master, t), n) for t in range(trials)]
        assert _hex(chunk_rows) == _hex(expected)
        violations, worst = oracles.fold_slacks(expected, 0.0)
        assert (report.violations, report.worst_margin.hex()) == (violations, worst.hex())

    def test_bits_hold_under_fast_thread_switching(self):
        # A 1-µs switch interval hands the interpreter lock between the two
        # threads at every chance; each call still owns its generator and inputs.
        campaigns = (lambda: check_c1(4, 2, 8, 10_000), lambda: check_c1(3, 1, 9, 20_000))
        normal = [_bits(c()) for c in campaigns]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fast = [_bits(c()) for c in campaigns]
        finally:
            sys.setswitchinterval(interval)
        assert fast == normal

    @pytest.mark.parametrize("campaign, trials, dim, n, used", [
        (check_c1, 1, 2, 10_000, 2), (check_c1, 3, 2, 10_000, 2), (check_c1, 2, 1, 20_000, 2),
        (check_c1, 2, 1, 10_000, 2), (check_prop1, 1, 2, 10_000, 1),
        (check_prop1, 2, 2, 10_000, 1), (check_prop1, 3, 3, 20_000, 1)])
    def test_thread_counts(self, threads, campaign, trials, dim, n, used):
        # c1 pairs its calls at every size; p1 has one call a trial.
        before = threading.active_count()
        campaign(trials, dim, 7, n)
        assert len(threads) == {check_c1: 2, check_prop1: 1}[campaign] * trials
        assert threading.get_ident() in threads.values()
        assert len(set(threads.values())) == used
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_affinity_still_pairs_with_the_same_bits(self, threads):
        # Pinned to one CPU, c1 still starts its pool thread, which inherits the pin,
        # and the report keeps the bits of an unpinned run.
        free = _bits(check_c1(3, 2, 7, 10_000))
        threads.clear()
        cpus = os.sched_getaffinity(0)
        before = threading.active_count()
        os.sched_setaffinity(0, {min(cpus)})
        try:
            pinned = _bits(check_c1(3, 2, 7, 10_000))
        finally:
            os.sched_setaffinity(0, cpus)
        assert pinned == free
        assert len(threads) == 6 and len(set(threads.values())) == 2
        assert threading.active_count() == before

    class Failed(Exception):
        pass

    @pytest.mark.parametrize("campaign, trials, fails, on_caller", [
        (check_c1, 1, 0, True), (check_c1, 1, 1, False), (check_c1, 3, 4, True),
        (check_c1, 3, 5, False), (check_prop1, 2, 0, True), (check_prop1, 2, 1, True)])
    def test_failed_estimate_keeps_its_type(self, monkeypatch, campaign, trials, fails,
                                            on_caller):
        # Call `fails` in trial order raises, on the caller's thread or the pool thread.
        # Its own type reaches the caller, and no thread is left.
        order = [derive_seed(derive_seed(5, t), s) for t in range(trials)
                 for s in ((3, 5) if campaign is check_c1 else (3,))]
        raised = []

        def failing(py, px, n, seed):
            if seed == order[fails]:
                raised.append(threading.get_ident())
                raise self.Failed(seed)
            return _estimate(py, px, n, seed)

        monkeypatch.setattr(harness, "mc_kl", failing)
        before = threading.active_count()
        with pytest.raises(self.Failed):
            campaign(trials, 2, 5, 10_000)
        assert (raised == [threading.get_ident()]) == on_caller
        assert threading.active_count() == before

    def test_failed_thread_start_runs_both_calls_inline(self, monkeypatch):
        # Without a thread to be had, a campaign tries to start one thread, then makes
        # every call on the caller's, none queued to run late.
        paired = _bits(check_c1(3, 2, 5, 10_000))
        starts, calls, real = [], [], harness.mc_kl

        class Unstartable(threading.Thread):
            def start(self):
                starts.append(self.name)
                raise RuntimeError("can't start new thread")

        def recording(py, px, n, seed):
            calls.append(threading.get_ident())
            return real(py, px, n, seed)

        monkeypatch.setattr(threading, "Thread", Unstartable)
        monkeypatch.setattr(harness, "mc_kl", recording)
        before = threading.active_count()
        assert _bits(check_c1(3, 2, 5, 10_000)) == paired
        assert starts == ["gausskl-mc_0"]
        assert calls == [threading.get_ident()] * 6
        assert threading.active_count() == before

    def test_both_threads_see_the_callers_errstate(self, monkeypatch):
        # A new thread starts with numpy's default error state on every numpy version.
        # Each campaign call starts its own pool thread, under its own caller's state.
        seen = []

        def recording(py, px, n, seed):
            seen.append((threading.current_thread().name, (np.geterr(), np.geterrcall())))
            return _estimate(py, px, n, seed)

        def callback(kind, flag):
            pass

        def other_callback(kind, flag):
            pass

        monkeypatch.setattr(harness, "mc_kl", recording)
        default, states = (np.geterr(), np.geterrcall()), []
        for errstate in (dict(divide="ignore", over="call", under="warn", invalid="ignore",
                              call=callback),
                         dict(divide="raise", over="ignore", under="ignore", invalid="call",
                              call=other_callback)):
            seen.clear()
            with np.errstate(**errstate):
                states.append((np.geterr(), np.geterrcall()))
                check_c1(2, 2, 3, 10_000)
            assert sorted(name for name, _ in seen) == sorted(
                ["gausskl-mc_0"] * 2 + [threading.current_thread().name] * 2)
            assert all(state == states[-1] for _, state in seen)
        assert states[0] != states[1]
        assert default not in states
        assert default == (np.geterr(), np.geterrcall())


class TestCallsPerChunk:
    # A chunk makes one stacked call per shape: one array derive_seed for its trial seeds
    # and one for their stream seeds, no derive_seed on Python ints, one hash of its
    # generators, and one _kl for p3; for p2 one _kl per distinct block size plus the joint one.
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"derive_seed": 0, "derive_seed on ints": 0, "_generators": 0, "_kl": 0}
        for name in ("derive_seed", "_generators", "_kl"):
            real = getattr(harness, name)

            def counting(*args, name=name, real=real):
                ints = name == "derive_seed" and not any(isinstance(a, np.ndarray) for a in args)
                counts[name + " on ints" if ints else name] += 1
                return real(*args)

            monkeypatch.setattr(harness, name, counting)
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 3 * 16)  # 3 trials per chunk at dim 4
        return counts

    def test_p3(self, calls):
        check_prop3(10, 4, 2, 100.0)  # 4 chunks
        assert calls == {"derive_seed": 8, "derive_seed on ints": 0, "_generators": 4, "_kl": 4}

    @pytest.mark.parametrize("dims, kls", [([2, 2], 2), ([1, 3], 3), ([1, 2, 1], 3),
                                           ([1, 1, 1, 1], 2)])
    def test_p2(self, calls, dims, kls):
        check_prop2(dims, 10, 2)  # total dim 4: 4 chunks
        assert calls == {"derive_seed": 8, "derive_seed on ints": 0, "_generators": 4,
                         "_kl": 4 * kls}


class TestDrawnInstances:
    # Reports of the parent commit of the single campaign driver, when each
    # proposition had its own trial loop.  Counts and digests are exact.  The
    # p1/c1 margins are Monte Carlo slacks of the drawn instances, pinned to
    # rel 1e-9 (not by hex: BLAS rounding may vary by CPU).  The p3/p2 margins
    # are equality-case roundoff of one ulp, so they also get an absolute
    # floor of 1e-12.
    CASES = {
        "p3": (lambda: check_prop3(20, 3, 7, 100.0), 20, -1.1368683772161603e-13,
               "prop=p3 trials=20 dim=3 condition_target=100 lx_range=[0.001,1000] "
               "tol=1e-10 master_seed=7 scheme=splitmix64"),
        "p2": (lambda: check_prop2([1, 2], 10, 4), 10, -3.552713678800501e-15,
               "prop=p2 blocks=1x2 trials=10 condition_target=100 tol=1e-10 "
               "master_seed=4 scheme=splitmix64"),
        "p1": (lambda: check_prop1(2, 2, 5, 10_000), 2, 0.2145443676142134,
               "prop=p1 trials=2 dim=2 n_samples=10000 family=matched-mixture "
               "w=[0.2,0.8] spread=[0.1,0.9] band=4se master_seed=5 scheme=splitmix64"),
        "c1": (lambda: check_c1(2, 2, 5, 10_000), 2, 0.02563379280388637,
               "prop=c1 trials=2 dim=2 n_samples=10000 family=matched-mixture "
               "w=[0.2,0.8] spread=[0.1,0.9] band=4se master_seed=5 scheme=splitmix64"),
    }

    @pytest.mark.parametrize("prop", sorted(CASES))
    def test_report_matches_pinned_values(self, prop):
        campaign, trials, worst, digest = self.CASES[prop]
        report = campaign()
        assert (report.proposition, report.trials, report.violations) == (prop, trials, 0)
        assert report.config_digest == digest
        floor = 1e-12 if prop in ("p2", "p3") else 0.0
        assert report.worst_margin == pytest.approx(worst, rel=1e-9, abs=floor)


class TestDrawsAreFactoredNotCertified:
    # The package's own draws are exactly symmetric and finite, so they are factored
    # without validate_spd: with it unusable, every campaign and random_spd give
    # the same bits.  A draw LAPACK rejects is still NotPositiveDefinite.
    CALLS = {
        "random_spd": lambda: random_spd(6, 3, 1e4),
        "p1": lambda: check_prop1(2, 2, 5, 10_000),
        "c1": lambda: check_c1(2, 2, 5, 10_000),
        "p2": lambda: check_prop2([2, 3], 20, 4),
        "p3": lambda: check_prop3(20, 3, 7, 100.0),
    }

    @staticmethod
    def _fingerprint(result):
        if isinstance(result, SpdMatrix):
            return result.entries.tobytes(), result.lower.tobytes(), result.log_det.hex()
        return _bits(result)

    def test_draws_skip_validate_spd(self, monkeypatch):
        plain = {name: self._fingerprint(call()) for name, call in self.CALLS.items()}

        def never(raw):
            raise AssertionError("a package draw went through validate_spd")

        for module in (linalg, harness):
            monkeypatch.setattr(module, "validate_spd", never, raising=False)
        assert {name: self._fingerprint(call()) for name, call in self.CALLS.items()} == plain

    @pytest.mark.parametrize("call", [lambda: random_spd(8, 1, 1e30),
                                      lambda: check_prop3(5, 8, 1, 1e30),
                                      lambda: check_prop2([4, 4], 5, 1, 1e30)],
                             ids=["random_spd", "p3", "p2"])
    def test_failed_factorization_is_not_positive_definite(self, call):
        # At condition target 1e30 a draw is symmetric and finite, but LAPACK rejects it.
        with pytest.raises(NotPositiveDefinite):
            call()


class TestComposition:
    def test_gaussian_slack_decomposes_into_bound_gap(self):
        # For Gaussian subjects the closed-form slack of the full bound equals
        # the pure matrix-inequality gap; the matched-covariance term is zero.
        for seed in range(200):
            dim = 1 + seed % 6
            lx = random_diag_spectrum(dim, derive_seed(seed, 0))
            sy = random_spd(dim, derive_seed(seed, 1), 100.0)
            c1_slack = kl_gaussian(lx.as_matrix(), sy) - diagonal_lower_bound(lx, sy)
            rep = kl_gap_diagonal(lx, sy)
            p1_slack = kl_gaussian(lx.as_matrix(), sy) - rep.kl_exact
            assert abs(c1_slack - (p1_slack + (rep.kl_exact - rep.bound))) <= 1e-9


class TestReportSerialization:
    def test_json_round_trip(self):
        report = check_prop3(50, 2, master_seed=7, condition_target=10.0)
        decoded = json.loads(report.to_json())
        assert set(decoded) == {
            "proposition", "trials", "violations", "worst_margin", "config_digest"}
        assert decoded["proposition"] == "p3"
        assert decoded["trials"] == 50
        assert decoded["violations"] == report.violations
        assert decoded["worst_margin"] == report.worst_margin

    def test_digest_mentions_settings(self):
        report = check_prop2([1, 1], 5, master_seed=42)
        assert "master_seed=42" in report.config_digest
        assert "blocks=1x1" in report.config_digest
