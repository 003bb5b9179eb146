import decimal
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lnvar import estimator
from lnvar.cli import _POW10
from lnvar.errors import DomainError, EmptySampleError, SampleTooSmallError
from lnvar.estimator import (
    ExactSum,
    SampleAccumulator,
    expected_k_n,
    kn_from_sums,
    large_sample_efficiency,
    measurement_cost,
    sd_k_hat,
    sd_k_n,
    two_product,
    var_k_hat,
    var_k_n,
)

from _properties import rel_diff


class TestAccumulate:
    def test_single_update(self):
        acc = SampleAccumulator()
        acc.extend(2.0)
        assert acc.n == 1
        assert acc.sum_x == 2.0
        assert acc.sum_inv_x == 0.5
        assert acc.sum_x2 == 4.0

    def test_two_values(self):
        acc = SampleAccumulator.from_values([1.0, 4.0])
        assert acc.n == 2
        assert acc.sum_x == 5.0
        assert acc.sum_inv_x == 1.25
        assert acc.sum_x2 == 17.0

    @pytest.mark.parametrize(
        "bad",
        [
            -1.0,
            0.0,
            math.inf,
            math.nan,
            # past the float range: no float64 array can hold them
            pytest.param(10**400, id="10**400"),
            pytest.param(Fraction(10) ** 400, id="Fraction(10)**400"),
        ],
    )
    def test_rejects_off_support(self, bad):
        acc = SampleAccumulator()
        for block in (bad, [bad], [1.0, bad]):
            with pytest.raises(DomainError, match="positive"):
                acc.extend(block)
        assert (acc.n, acc.sum_x, acc.sum_inv_x, acc.sum_x2) == (0, 0.0, 0.0, 0.0)
        for values in ([bad], iter([bad])):
            with pytest.raises(DomainError, match="positive"):
                SampleAccumulator.from_values(values)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-323, 2.0**-1024])
    def test_rejects_overflowing_reciprocal(self, tiny):
        acc = SampleAccumulator.from_values([2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="reciprocal overflows"):
                acc.extend(tiny)
            with pytest.raises(DomainError, match="reciprocal overflows"):
                acc.extend(np.array([1.0, tiny, 3.0]))
        assert (acc.n, acc.sum_x, acc.sum_inv_x, acc.sum_x2) == (1, 2.0, 0.5, 4.0)

    def test_rejected_block_names_first_bad_value(self):
        with pytest.raises(DomainError, match="got -2.0"):
            SampleAccumulator().extend(np.array([1.0, -2.0, math.nan]))

    def test_rejected_block_names_first_bad_value_not_its_extremes(self):
        # the smallest (-3) and largest (inf) values are off the support too,
        # but the message names the first one
        block = np.array([1.0, 5e-324, -3.0, math.inf, 2.0])
        with pytest.raises(DomainError, match=r"^5e-324 is too close to 0"):
            SampleAccumulator().extend(block)

    def test_from_values_accepts_list_array_and_generator(self):
        values = np.exp(np.random.default_rng(5).normal(0.0, 2.0, size=1000))
        accs = [
            SampleAccumulator.from_values(values.tolist()),
            SampleAccumulator.from_values(values),
            SampleAccumulator.from_values(float(x) for x in values),
        ]
        sums = {(a.n, a.sum_x, a.sum_inv_x, a.sum_x2) for a in accs}
        assert len(sums) == 1

    def test_blocks_match_per_value_reference(self):
        # all three sums are exact, so however the blocks fall sum_x and
        # sum_inv_x match math.fsum, and sum_x2 the correctly rounded sum of
        # the exact squares
        values = np.exp(np.random.default_rng(6).normal(0.0, 2.0, size=5000))
        acc = SampleAccumulator()
        for block in np.array_split(values, [1, 1, 2, 700, 701, 3000]):
            acc.extend(block)
        assert acc.n == values.size
        assert acc.sum_x2 == float(sum(Fraction(x) ** 2 for x in values.tolist()))
        assert acc.sum_x == math.fsum(values)
        assert acc.sum_inv_x == math.fsum(1.0 / values)

    def test_compensated_sums_track_exact_reference(self):
        # widely spread values at 1e5 observations, across several kernel blocks
        rng = np.random.default_rng(9)
        values = np.exp(rng.normal(0.0, math.sqrt(math.log(5.0)), size=10**5))
        acc = SampleAccumulator.from_values(values)
        assert acc.sum_x == math.fsum(values)
        assert acc.sum_inv_x == math.fsum(1.0 / values)

    def test_any_split_into_blocks_gives_the_same_repr(self):
        # all three sums are exact, so no split changes a reading
        rng = np.random.default_rng(12)
        values = np.exp(rng.normal(0.0, 3.0, size=3000))
        whole = repr(SampleAccumulator.from_values(values))
        for _ in range(20):
            cuts = np.sort(rng.integers(0, values.size, size=rng.integers(1, 8)))
            acc = SampleAccumulator()
            for block in np.split(values, cuts):
                acc.extend(block)
            assert repr(acc) == whole


class TestMerge:
    def test_merge_equals_joint_accumulation(self):
        merged = SampleAccumulator.from_values([1.0]).merge(
            SampleAccumulator.from_values([4.0])
        )
        joint = SampleAccumulator.from_values([1.0, 4.0])
        assert merged.n == joint.n
        assert merged.sum_x == joint.sum_x
        assert merged.sum_inv_x == joint.sum_inv_x
        assert merged.sum_x2 == joint.sum_x2

    def test_commutative_on_exact_sums(self):
        a = SampleAccumulator.from_values([1.0, 2.0])
        b = SampleAccumulator.from_values([4.0, 8.0])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.sum_x == ba.sum_x
        assert ab.sum_inv_x == ba.sum_inv_x
        assert ab.sum_x2 == ba.sum_x2

    @staticmethod
    def trees(parts):
        """Every merge tree over the accumulators in parts, in this order."""
        if len(parts) == 1:
            yield parts[0]
            return
        for i in range(1, len(parts)):
            for left in TestMerge.trees(parts[:i]):
                for right in TestMerge.trees(parts[i:]):
                    yield left.merge(right)

    def test_any_merge_tree_gives_the_same_repr(self):
        # Merging (1 + 2^-53) with 2^-110 first and then 2^-51 used to round
        # away the 2^-110 that breaks the final tie, so ((a+b)+c)+d and
        # a+(b+(c+d)) differed in sum_x; every sum_x2 here rounds to 1.0
        values = [1.0, 2.0**-53, 2.0**-110, 2.0**-51]
        whole = repr(SampleAccumulator.from_values(values))
        assert SampleAccumulator.from_values(values).sum_x == 1.0 + 3 * 2.0**-52
        singles = [SampleAccumulator.from_values([v]) for v in values]
        for order in itertools.permutations(singles):
            for merged in self.trees(list(order)):
                assert repr(merged) == whole

    def test_any_merge_tree_gives_the_same_sum_of_squares(self):
        # 1 + 4 * 2^-54: a float sum that adds the 2^-54 squares to 1 one at a
        # time rounds each away, one that adds them to each other first does not
        values = [1.0] + [2.0**-27] * 4
        whole = repr(SampleAccumulator.from_values(values))
        assert SampleAccumulator.from_values(values).sum_x2 == 1.0 + 2.0**-52
        singles = [SampleAccumulator.from_values([v]) for v in values]
        for order in itertools.permutations(singles):
            for merged in self.trees(list(order)):
                assert repr(merged) == whole

    def test_any_merge_tree_gives_the_same_sums(self):
        rng = np.random.default_rng(13)
        values = np.exp(rng.normal(0.0, 20.0, size=400))
        want = (values.size, math.fsum(values), math.fsum(1.0 / values))
        parts = [SampleAccumulator.from_values(b) for b in np.array_split(values, 5)]
        for order in itertools.permutations(parts):
            for merged in self.trees(list(order)):
                assert (merged.n, merged.sum_x, merged.sum_inv_x) == want

    def test_empty_identity(self):
        empty = SampleAccumulator().merge(SampleAccumulator())
        assert empty.n == 0
        assert (empty.sum_x, empty.sum_inv_x, empty.sum_x2) == (0.0, 0.0, 0.0)
        a = SampleAccumulator.from_values([3.0, 7.0])
        same = a.merge(SampleAccumulator())
        assert (same.n, same.sum_x, same.sum_inv_x) == (a.n, a.sum_x, a.sum_inv_x)


def _finite_floats(rng, size):
    """Floats from random bit patterns: both signs, every exponent, subnormals."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


class TestExactSum:
    @pytest.mark.parametrize(
        "size",
        [1, 2]
        + [blocks * estimator._BLOCK + d for blocks in (1, 2) for d in (-1, 0, 1)],
    )
    def test_equals_fsum_across_the_float_range(self, size):
        rng = np.random.default_rng(size)
        for _ in range(5):
            # below 2^1000 in magnitude, so that no sum leaves the float range
            values = _finite_floats(rng, size)
            values = values[np.abs(values) < 2.0**1000]
            assert repr(ExactSum.of(values).value()) == repr(math.fsum(values.tolist()))

    @pytest.mark.parametrize(
        "values",
        [
            [5e-324],
            [5e-324, 5e-324, -5e-324],
            [2.2250738585072014e-308, -5e-324],
            [1e100, 1.0, -1e100],
            [1.0, 2.0**-53],
            [1.0, 2.0**-53, 2.0**-110],
            [-0.0],
            [1e-300] * 1000 + [-1e-300] * 999,
            [],
        ],
    )
    def test_equals_fsum_on_edge_cases(self, values):
        assert repr(ExactSum.of(np.array(values)).value()) == repr(math.fsum(values))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_maximal_limbs_in_eight_adjacent_bins(self, sign):
        # a full block of all-ones mantissas at 8 consecutive exponents: 8 adjacent bins
        # of extreme low limbs, and 8 of extreme high limbs that straddle two groups of 8
        values = np.repeat(sign * (1.0 - 2.0**-53) * 2.0 ** np.arange(8), estimator._BLOCK // 8)
        assert values.size == estimator._BLOCK
        assert ExactSum.of(values).exact() == sum(map(Fraction, values.tolist()))

    def test_working_set_is_one_chunk(self):
        # the work of one _BLOCK-value chunk, 0.41 MiB traced at 2**14 values (numpy 2.4)
        values = np.random.default_rng(3).lognormal(size=10**6)
        tracemalloc.start()
        try:
            ExactSum.of(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2**20

    def test_partial_sums_may_leave_the_float_range(self):
        # math.fsum raises "intermediate overflow" here
        assert ExactSum.of(np.array([1e308, 1e308, -1e308])).value() == 1e308

    def test_overflow_names_the_quantity(self):
        big = np.array([1.7976931348623157e308, 1e292])
        with pytest.raises(OverflowError):
            math.fsum(big.tolist())
        with pytest.raises(OverflowError, match="^sum_x overflows a float"):
            ExactSum.of(big).value("sum_x")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_refuses_non_finite(self, bad):
        values = np.ones(estimator._BLOCK + 10)
        values[estimator._BLOCK + 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                ExactSum.of(values)

    def test_shift_scales_each_value_by_a_power_of_two(self):
        rng = np.random.default_rng(15)
        for size in (1, 7, estimator._BLOCK + 3):
            shift = rng.integers(-1100, 1000, size=size).astype(np.int32)
            # each value times 2**shift stays below 2**1003
            top = 1000 - np.maximum(shift, 0)
            values = rng.normal(size=size) * np.exp2(rng.integers(-1000, top))
            want = sum(Fraction(v) * Fraction(2) ** int(k) for v, k in zip(values, shift))
            got = ExactSum.of(values, shift)
            assert got.value() == float(want)
            # the exact sum, not only its rounding
            assert (got + ExactSum.of(-values, shift)).value() == 0.0

    def test_split_and_order_of_addition_do_not_matter(self):
        rng = np.random.default_rng(14)
        values = _finite_floats(rng, 5000)
        values = values[np.abs(values) < 2.0**1000]
        want = math.fsum(values.tolist())
        for _ in range(20):
            cuts = np.sort(rng.integers(0, values.size, size=rng.integers(1, 10)))
            parts = [ExactSum.of(block) for block in np.split(values, cuts)]
            rng.shuffle(parts)
            total = ExactSum()
            for part in parts:
                total = part + total if rng.random() < 0.5 else total + part
            assert total.value() == want

    def test_exact_is_the_rational_sum(self):
        rng = np.random.default_rng(23)
        for size in (1, 7, estimator._BLOCK + 3):
            values = _finite_floats(rng, size)
            ratios = [v.as_integer_ratio() for v in values.tolist()]
            for shift in (None, rng.integers(-1100, 1000, size=values.size).astype(np.int32)):
                ks = [0] * values.size if shift is None else shift.tolist()
                # each term times 2**2200 is an int, since q is a power of two up to 2**1074
                want = sum((p << (2200 + k)) // q for (p, q), k in zip(ratios, ks))
                assert ExactSum.of(values, shift).exact() == Fraction(want, 2**2200)
        # past the float range, where value() raises
        top = np.array([sys.float_info.max] * 3)
        with pytest.raises(OverflowError):
            ExactSum.of(top).value()
        assert ExactSum.of(top).exact() == 3 * Fraction(sys.float_info.max)

    def test_exact_of_a_sum_is_the_sum_of_the_exacts(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            a, b = (ExactSum.of(_finite_floats(rng, rng.integers(0, 50))) for _ in range(2))
            assert (a + b).exact() == a.exact() + b.exact()

    def test_value_is_the_exact_sum_rounded(self):
        rng = np.random.default_rng(25)
        edges = ([5e-324, 5e-324, -5e-324], [1.0, 2.0**-53], [sys.float_info.max] * 2)
        sums = [ExactSum.of(np.array(v)) for v in edges]
        for _ in range(200):
            values = _finite_floats(rng, rng.integers(1, 50))
            sums.append(ExactSum.of(values * 2.0 ** -int(rng.integers(0, 1000))))
        finite = 0
        for s in sums:
            try:
                value = s.value()
            except OverflowError:
                with pytest.raises(OverflowError):
                    float(s.exact())
                continue
            assert float(s.exact()) == value
            finite += 1
        assert finite > 100

    def test_sum_of_2_to_the_40_copies_is_exact(self):
        # x has the largest mantissa; doubling one copy 40 times stands for
        # 2^40 copies, more than int64 bins of mantissa limbs could hold
        x = 1.0 - 2.0**-53
        total = ExactSum.of(np.array([x]))
        for _ in range(40):
            total = total + total
        assert total.value() == float(Fraction(x) * 2**40)
        total = total + ExactSum.of(np.array([x]))
        assert total.value() == float(Fraction(x) * (2**40 + 1))


class TestTwoProduct:
    """hi == fl(a * b) and hi + lo == a * b exactly, checked with Fractions."""

    @staticmethod
    def check(a, b):
        hi, lo = two_product(a, b)
        assert np.array_equal(hi, a * b)
        for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
            assert Fraction(h) + Fraction(l) == Fraction(x) * Fraction(y), (x, y)

    def test_squares_of_frexp_mantissas(self):
        # the squares that SampleAccumulator.extend sums
        m, _ = np.frexp(np.exp(np.random.default_rng(16).normal(0.0, 20.0, 20_000)))
        self.check(m, m)

    def test_products_with_each_power_of_ten(self):
        # the products that cli._format_lines rounds to 17 digits
        y = np.exp(np.random.default_rng(17).normal(0.0, 10.0, 2000))
        for p in _POW10:
            self.check(y, np.full_like(y, p))

    @pytest.mark.parametrize(
        "ea, eb", [(500, 500), (500, -500), (-500, 500)], ids=["high-high", "high-low", "low-high"]
    )
    def test_operands_near_two_to_the_plus_minus_500(self, ea, eb):
        # (-500, -500) is left out: the low part of a product near 2**-1000 underflows
        rng = np.random.default_rng(ea - eb + 1000)
        a, b = np.ldexp(rng.uniform(-2.0, 2.0, (2, 5000)), [[ea], [eb]])
        self.check(a, b)


class TestMeans:
    def test_one_four(self):
        acc = SampleAccumulator.from_values([1.0, 4.0])
        assert acc.arithmetic_mean() == 2.5
        assert acc.harmonic_mean() == 1.6
        assert acc.arithmetic_mean() >= acc.harmonic_mean()

    def test_constant_sample(self):
        acc = SampleAccumulator.from_values([2.0, 2.0, 2.0])
        assert acc.arithmetic_mean() == 2.0
        assert acc.harmonic_mean() == 2.0

    def test_one_two_four(self):
        acc = SampleAccumulator.from_values([1.0, 2.0, 4.0])
        assert acc.arithmetic_mean() == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert acc.harmonic_mean() == pytest.approx(12.0 / 7.0, rel=1e-15)

    def test_empty_errors(self):
        acc = SampleAccumulator()
        with pytest.raises(EmptySampleError):
            acc.arithmetic_mean()
        with pytest.raises(EmptySampleError):
            acc.harmonic_mean()


class TestRelativeRatio:
    def test_one_four(self):
        assert type(SampleAccumulator.from_values([1.0, 4.0]).relative_ratio()) is float
        assert SampleAccumulator.from_values([1.0, 4.0]).relative_ratio() == 0.5625

    def test_kn_from_sums_into_one_of_the_sums(self):
        sum_x, sum_inv_x = np.array([5.0, 3.0, 7.25]), np.array([1.25, 3.0, 0.75])
        want = sum_x * sum_inv_x / 4 - 1.0
        got = kn_from_sums(sum_x, sum_inv_x, 2, out=sum_x)
        assert got is sum_x and got.tobytes() == want.tobytes()

    def test_constant_is_zero(self):
        assert SampleAccumulator.from_values([2.0] * 3).relative_ratio() == 0.0
        # 1/3 rounds low, leaving a negative fp residue that must clamp to 0
        assert SampleAccumulator.from_values([3.0] * 3).relative_ratio() == 0.0
        # 3 * fl(1/2.5) rounds high instead; the residue is one ulp, not clamped
        assert SampleAccumulator.from_values([2.5] * 3).relative_ratio() <= 5e-16

    def test_one_two_four(self):
        k = SampleAccumulator.from_values([1.0, 2.0, 4.0]).relative_ratio()
        assert k == pytest.approx(13.0 / 36.0, rel=1e-14)

    def test_single_value_allowed(self):
        assert SampleAccumulator.from_values([4.0]).relative_ratio() == 0.0


class TestKHat:
    def test_one_four(self):
        assert SampleAccumulator.from_values([1.0, 4.0]).k_hat() == 1.125

    def test_constant_pair(self):
        assert SampleAccumulator.from_values([7.0, 7.0]).k_hat() == 0.0

    def test_one_two_four(self):
        k = SampleAccumulator.from_values([1.0, 2.0, 4.0]).k_hat()
        assert k == pytest.approx(13.0 / 24.0, rel=1e-14)

    def test_needs_two_observations(self):
        with pytest.raises(SampleTooSmallError):
            SampleAccumulator.from_values([1.0]).k_hat()
        with pytest.raises(EmptySampleError):
            SampleAccumulator().k_hat()


class TestGHat:
    def test_pair_is_exact_geometric_mean(self):
        assert SampleAccumulator.from_values([1.0, 4.0]).g_hat() == 2.0

    def test_pair_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x1, x2 = np.exp(rng.normal(0, 1, size=2))
            g = SampleAccumulator.from_values([x1, x2]).g_hat()
            assert rel_diff(g, math.sqrt(x1 * x2)) <= 1e-14

    def test_constant(self):
        assert SampleAccumulator.from_values([2.0] * 4).g_hat() == 2.0

    def test_one_two_four(self):
        assert SampleAccumulator.from_values([1.0, 2.0, 4.0]).g_hat() == pytest.approx(
            2.0, rel=1e-15
        )


class TestCv2Conventional:
    def test_one_four(self):
        assert SampleAccumulator.from_values([1.0, 4.0]).cv2_conventional() == 0.72

    def test_constant_clamps_to_zero(self):
        assert SampleAccumulator.from_values([2.1] * 3).cv2_conventional() == 0.0

    def test_one_two_four(self):
        got = SampleAccumulator.from_values([1.0, 2.0, 4.0]).cv2_conventional()
        assert got == pytest.approx(3.0 / 7.0, rel=1e-14)

    def test_needs_two(self):
        with pytest.raises(SampleTooSmallError):
            SampleAccumulator.from_values([1.0]).cv2_conventional()

    @staticmethod
    def exact(values):
        n, s1 = len(values), sum(Fraction(x) for x in values)
        s2 = sum(Fraction(x) ** 2 for x in values)
        return float(n * (n * s2 - s1 * s1) / ((n - 1) * s1 * s1))

    def test_nearly_constant_pair_is_correctly_rounded(self):
        # a float sum_x2 - n*a*a leaves 4.44e-16 here, 1.8e16 times the true value
        values = [1.0, 1.0 + 2.0**-52]
        got = SampleAccumulator.from_values(values).cv2_conventional()
        assert got == self.exact(values) == 2.4651903288156613e-32

    def test_correctly_rounded_on_seeded_samples(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            sigma = rng.uniform(0.01, 3.0)
            values = np.exp(rng.normal(0.0, sigma, size=rng.integers(2, 61))).tolist()
            got = SampleAccumulator.from_values(values).cv2_conventional()
            assert got == self.exact(values), (sigma, len(values))


class TestReport:
    def test_fields(self):
        r = SampleAccumulator.from_values([1.0, 4.0]).report()
        assert r.n == 2
        assert (r.a_n, r.h_n) == (2.5, 1.6)
        assert (r.k_n, r.k_hat, r.g_hat) == (0.5625, 1.125, 2.0)
        assert r.cv2_conventional == 0.72
        assert r.predicted_sd_k_hat == sd_k_hat(2, 1.125)
        assert (r.cost_collective, r.cost_conventional) == (2, 2)

    def test_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = np.exp(rng.normal(0.0, 0.8, size=rng.integers(2, 30)))
            r = SampleAccumulator.from_values(values).report()
            assert r.k_n >= 0.0
            assert r.k_hat >= 0.0
            assert r.h_n <= r.g_hat <= r.a_n

    def test_needs_two(self):
        with pytest.raises(SampleTooSmallError):
            SampleAccumulator.from_values([1.0]).report()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        values = np.exp(rng.normal(0.0, 1.0, size=40))
        base = SampleAccumulator.from_values(values).report()
        for _ in range(5):
            shuffled = rng.permutation(values)
            r = SampleAccumulator.from_values(shuffled).report()
            assert rel_diff(r.k_hat, base.k_hat) <= 1e-10
            assert rel_diff(r.g_hat, base.g_hat) <= 1e-10
            assert rel_diff(r.cv2_conventional, base.cv2_conventional) <= 1e-10


class TestFloatRange:
    def test_g_hat_of_huge_and_tiny_values(self):
        # A_n * H_n overflows (underflows) here, but the geometric mean does not
        for scale in (1e155, 1e-170):
            acc = SampleAccumulator.from_values([scale, 2.0 * scale, 4.0 * scale])
            assert rel_diff(acc.g_hat(), 2.0 * scale) <= 1e-15

    def test_overflowing_sum_of_squares_reads_inf(self):
        # the exact sum of squares is beyond the float range, but
        # cv2_conventional never reads it as a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = SampleAccumulator.from_values([1e155, 2e155, 4e155])
            assert acc.k_hat() == pytest.approx(13.0 / 24.0, rel=1e-14)
            assert acc.sum_x2 == math.inf
            assert "sum_x2=inf" in repr(acc)
            assert acc.cv2_conventional() == 3.0 / 7.0
            assert acc.report().cv2_conventional == 3.0 / 7.0

    @pytest.mark.parametrize("power", [500, -500])
    def test_scaling_by_a_power_of_two_is_bit_identical(self, power):
        # squares of the scaled values leave the float range at 2^500 and
        # reach the subnormals at 2^-500
        values = np.exp(np.random.default_rng(23).normal(0.0, 3.0, size=1000))
        base = SampleAccumulator.from_values(values)
        scaled = SampleAccumulator.from_values(values * 2.0**power)
        for read in ("relative_ratio", "k_hat", "cv2_conventional"):
            assert getattr(scaled, read)() == getattr(base, read)(), read

    def test_overflowing_ratio_raises(self):
        acc = SampleAccumulator.from_values([1e-300, 1e300])
        with pytest.raises(OverflowError, match="relative_ratio"):
            acc.relative_ratio()
        with pytest.raises(OverflowError, match="relative_ratio"):
            acc.k_hat()

    def test_overflowing_predicted_sd_raises(self):
        # k_hat = 5e299 is a float, but k_hat^2 in its predicted sd is not
        acc = SampleAccumulator.from_values([1e-150, 1e150])
        assert acc.k_hat() == pytest.approx(5e299, rel=1e-15)
        with pytest.raises(OverflowError, match="predicted_sd_k_hat"):
            acc.report()

    @pytest.mark.parametrize("x, quantity", [(1e308, "sum_x"), (1e-308, "sum_inv_x")])
    def test_overflowing_running_sum_raises(self, x, quantity):
        acc = SampleAccumulator.from_values([x])
        before = repr(acc)  # n and all three sums
        with pytest.raises(OverflowError, match=f"^{quantity} overflows"):
            acc.extend([x])
        assert repr(acc) == before
        with pytest.raises(OverflowError, match=f"^{quantity} overflows"):
            acc.merge(SampleAccumulator.from_values([x]))
        # within a single block too
        with pytest.raises(OverflowError, match=f"^{quantity} overflows"):
            SampleAccumulator.from_values([x, x])


class TestPredictions:
    def test_expected_k_n(self):
        assert expected_k_n(2, 1.0) == 0.5
        assert expected_k_n(10**6, 1.0) == 0.999999
        assert expected_k_n(17, 0.0) == 0.0

    def test_var_k_n_values(self):
        assert var_k_n(2, 1.0) == 1.125
        assert var_k_n(4, 1.0) == 0.796875
        assert var_k_n(9, 0.0) == 0.0
        assert sd_k_n(2, 1.0) == math.sqrt(1.125)

    def test_var_k_n_keeps_float_bytes(self):
        # the Fraction factor that makes var_k_n exact on a Fraction k rounds, times a
        # float k, as the float literals did, for n below 2**26
        rng = np.random.default_rng(2015)
        ns = np.exp(rng.uniform(math.log(2), 26 * math.log(2), 10_000)).astype(np.int64)
        ks = np.exp(rng.uniform(-300.0, 170.0, 10_000))
        for n, k in zip(ns.tolist(), ks.tolist()):
            want = 2.0 * (n - 1) / (n * n) * k * k * (1.0 + k + k * k / (2.0 * n))
            assert var_k_n(n, k) == want, (n, k)

    def test_closed_forms_keep_float_bytes(self):
        # the range checks and float(k) leave every float result as it was
        rng = np.random.default_rng(2016)
        ns = np.exp(rng.uniform(math.log(2), 26 * math.log(2), 10_000)).astype(np.int64)
        ks = np.exp(rng.uniform(-300.0, 170.0, 10_000))
        for n, k in zip(ns.tolist(), ks.tolist()):
            assert expected_k_n(n, k) == (n - 1) / n * k, (n, k)
            var_hat = 2.0 / (n - 1) * k * k * (1.0 + k + k * k / (2.0 * n))
            assert var_k_hat(n, k) == var_hat, (n, k)
            assert sd_k_hat(n, k) == math.sqrt(var_hat), (n, k)

    @pytest.mark.parametrize("k", [0.1, 1.0, 5.0])
    def test_var_k_2_closed_form(self, k):
        assert rel_diff(var_k_n(2, k), k * k * (k + 2.0) ** 2 / 8.0) <= 1e-12

    def test_var_k_hat_values(self):
        assert var_k_hat(2, 1.0) == 4.5
        assert sd_k_hat(2, 1.0) == pytest.approx(2.1213203435596424, rel=1e-15)
        expected = 0.2 * 0.0625 * (1.25 + 0.0625 / 22.0)
        assert var_k_hat(11, 0.25) == pytest.approx(expected, rel=1e-14)
        assert var_k_hat(5, 0.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 11, 100, 10**6])
    @pytest.mark.parametrize("k", [0.01, 0.5, 1.0, 4.0])
    def test_corrected_uncorrected_consistency(self, n, k):
        assert rel_diff(var_k_hat(n, k), (n / (n - 1)) ** 2 * var_k_n(n, k)) <= 1e-12

    def test_var_k_n_is_exact_on_fractions_past_the_float_range(self):
        k = Fraction(10) ** 300
        assert var_k_n(3, k) == Fraction(4, 9) * k * k * (1 + k + k * k / 6)

    def test_k_past_the_float_range_is_a_domain_error_naming_k(self):
        big = Fraction(10) ** 400
        for fn, k in [
            (expected_k_n, big),
            (var_k_hat, 10**400),
            (sd_k_hat, 10**400),
            (var_k_n, big),
            (sd_k_n, 10**400),
        ]:
            with pytest.raises(DomainError, match="^k must be <= 1.7976931348623157e[+]308") as exc:
                fn(2, k)
            assert len(str(exc.value)) <= 200  # k is named without all of its 401 digits
        # a k inside the float range whose variance is not reads inf, as a float k does
        assert var_k_hat(2, 10**300) == sd_k_hat(2, 10**300) == sd_k_hat(2, 1e300) == math.inf
        assert var_k_n(2, 10**300) == math.inf
        # a Fraction k inside the float range gives an exact variance, past it here
        with pytest.raises(DomainError, match="^var_k_n overflows a float$"):
            sd_k_n(2, Fraction(10) ** 300)

    def test_n_past_the_float_range_is_a_domain_error_naming_n(self):
        for fn in (var_k_n, sd_k_n, var_k_hat, sd_k_hat):
            with pytest.raises(DomainError, match="^n must be <= 1.7976931348623157e[+]308") as exc:
                fn(10**400, 1.0)
            assert len(str(exc.value)) <= 200
        # an n whose 2n is past the float range still gives a float, inf where k*k overflows
        assert var_k_n(10**308, 1e200) == var_k_hat(10**308, 1e200) == math.inf
        assert 0.0 < var_k_n(10**308, 1.0) == pytest.approx(4e-308, rel=1e-15)

    def test_numpy_integer_n_gives_the_bytes_of_the_python_int(self):
        # n * n wraps in int64 from n = 3.04e9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 11, 3_037_000_500, 4_000_000_000, 2**62):
                for kind in (np.int64, np.uint64):
                    got = var_k_n(kind(n), 1.0)
                    assert type(got) is float and got == var_k_n(n, 1.0), (kind, n)

    def test_exact_variance_past_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^var_k_n overflows a float$"):
            sd_k_n(3, Fraction(10) ** 200)
        k = Fraction(10) ** 50
        assert sd_k_n(3, k) == math.sqrt(var_k_n(3, k)) < math.inf

    def test_domain_errors(self):
        for fn in (expected_k_n, var_k_n, var_k_hat):
            with pytest.raises(DomainError):
                fn(1, 1.0)
            with pytest.raises(DomainError):
                fn(4, -0.5)


class TestEfficiency:
    def test_limit_at_zero(self):
        # about 1 - sigma2 near 0, within 4 ulp of a 60-digit reference
        with decimal.localcontext(decimal.Context(prec=60)):
            for sigma2 in (1e-13, 1e-15, 1e-17):
                s = decimal.Decimal(sigma2)
                want = float((s / (s.exp() - 1)) ** 2)
                assert abs(large_sample_efficiency(sigma2) - want) <= 4 * math.ulp(want), sigma2

    def test_at_one(self):
        expected = 1.0 / (math.e - 1.0) ** 2
        assert large_sample_efficiency(1.0) == pytest.approx(expected, rel=1e-14)

    def test_at_two(self):
        expected = 4.0 / (math.exp(2.0) - 1.0) ** 2
        assert large_sample_efficiency(2.0) == pytest.approx(expected, rel=1e-14)

    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-6, 50.0, 200)
        values = [large_sample_efficiency(float(s2)) for s2 in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_zero_where_expm1_overflows(self):
        assert large_sample_efficiency(1000.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            large_sample_efficiency(0.0)
        with pytest.raises(DomainError):
            large_sample_efficiency(-1.0)


class TestMeasurementCost:
    def test_collective_is_two(self):
        assert measurement_cost(1000, "collective") == 2

    def test_conventional_is_n(self):
        assert measurement_cost(1000, "conventional") == 1000

    def test_modes_tie_at_two(self):
        assert measurement_cost(2, "collective") == measurement_cost(2, "conventional") == 2

    def test_errors(self):
        with pytest.raises(DomainError):
            measurement_cost(1, "collective")
        with pytest.raises(DomainError):
            measurement_cost(5, "psychic")
