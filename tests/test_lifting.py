"""Lifting-layer tests: family algebra, frame consistency, guards."""

import math

import numpy as np
import pytest

import safelift as sl
from safelift.errors import ConfigError, DomainViolation, NonFiniteInput

# High-precision reference values, computed independently with a 30-digit
# arbitrary-precision evaluation of the closed forms.
ATANH_HALF = 0.549306144334054846
ATANH_09 = 1.472219489583220230
LN3 = 1.098612288668109691
LOGCOSH_ATANH_09 = 0.830365603410825454


class TestSafeSet:
    def test_contains_is_strict(self):
        s = sl.SafeSet(2.0, 1.0)
        assert s.contains(1.999, -0.999)
        assert not s.contains(2.0, 0.0)
        assert not s.contains(0.0, -1.0)

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (1.0, -2.0), (-1.0, -1.0)])
    def test_rejects_nonpositive_bounds(self, bounds):
        with pytest.raises(ConfigError):
            sl.SafeSet(*bounds)

    @pytest.mark.parametrize("bounds", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0)])
    def test_rejects_nonfinite_bounds(self, bounds):
        with pytest.raises(ConfigError, match="finite"):
            sl.SafeSet(*bounds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["x1_max", "x2_max"])
    def test_names_the_refused_bound(self, name, bad):
        bounds = {"x1_max": 2.0, "x2_max": 1.0, name: bad}
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            sl.SafeSet(**bounds)


class TestTanhFamily:
    def test_fixed_points_and_reference_values(self, tanh_fam):
        assert tanh_fam.unsquash(0.0) == 0.0
        assert tanh_fam.squash(0.0) == 0.0
        assert tanh_fam.squash_integral(0.0) == 0.0
        assert tanh_fam.unsquash(0.5) == pytest.approx(ATANH_HALF, abs=1e-15)
        assert tanh_fam.unsquash_deriv(0.0) == 1.0
        assert tanh_fam.unsquash_deriv(0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_mutual_inverses(self, tanh_fam):
        rng = np.random.default_rng(1)
        for c in rng.uniform(-0.999, 0.999, size=500):
            assert tanh_fam.squash(tanh_fam.unsquash(c)) == pytest.approx(c, abs=1e-12)
        for z in rng.uniform(-8.0, 8.0, size=500):
            assert tanh_fam.unsquash(tanh_fam.squash(z)) == pytest.approx(z, rel=1e-10)

    def test_log_cosh_is_overflow_safe(self, tanh_fam):
        # Direct log(cosh(z)) overflows beyond z ~ 710.
        val = tanh_fam.squash_integral(1e3)
        assert math.isfinite(val)
        assert val == pytest.approx(1e3 - math.log(2.0), rel=1e-12)
        assert tanh_fam.squash_integral(-1e3) == pytest.approx(val, rel=1e-12)


class TestLogitFamily:
    def test_fixed_points_and_reference_values(self, logit_fam):
        assert logit_fam.unsquash(0.0) == 0.0
        assert logit_fam.squash(0.0) == 0.0
        assert logit_fam.squash_integral(0.0) == 0.0
        assert logit_fam.unsquash(0.5) == pytest.approx(LN3, rel=1e-15)
        # 2 log cosh(1), from the same high-precision evaluation.
        assert logit_fam.squash_integral(2.0) == pytest.approx(
            0.867561660966054374, rel=1e-14)

    def test_mutual_inverses(self, logit_fam):
        rng = np.random.default_rng(2)
        for c in rng.uniform(-0.999, 0.999, size=500):
            assert logit_fam.squash(logit_fam.unsquash(c)) == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("fam_name", ["tanh", "logit"])
class TestFamilyCalculus:
    """Derivative and integral identities every family must satisfy."""

    def test_unsquash_deriv_matches_central_difference(self, fam_name):
        fam = sl.get_family(fam_name)
        h = 1e-6
        for c in np.linspace(-0.99, 0.99, 81):
            fd = (fam.unsquash(c + h) - fam.unsquash(c - h)) / (2.0 * h)
            d = fam.unsquash_deriv(c)
            assert abs(d - fd) < 1e-6 * max(1.0, abs(d))

    def test_integral_derivative_is_squash(self, fam_name):
        fam = sl.get_family(fam_name)
        h = 1e-6
        for z in np.linspace(-5.0, 5.0, 101):
            fd = (fam.squash_integral(z + h) - fam.squash_integral(z - h)) / (2.0 * h)
            assert abs(fd - fam.squash(z)) < 1e-6

    def test_integral_matches_quadrature(self, fam_name):
        # Independent oracle: composite Simpson quadrature of squash 0 -> z.
        fam = sl.get_family(fam_name)
        for z in (0.5, 1.0, 2.5, -3.0):
            grid = np.linspace(0.0, z, 4001)
            vals = np.array([fam.squash(g) for g in grid])
            h = grid[1] - grid[0]
            simpson = h / 3.0 * (vals[0] + vals[-1]
                                 + 4.0 * vals[1:-1:2].sum()
                                 + 2.0 * vals[2:-1:2].sum())
            assert fam.squash_integral(z) == pytest.approx(simpson, abs=1e-10)

    def test_monotonicity(self, fam_name):
        fam = sl.get_family(fam_name)
        rng = np.random.default_rng(3)
        cs = np.sort(rng.uniform(-0.9999, 0.9999, size=400))
        vals = [fam.unsquash(c) for c in cs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # Strict where float64 can resolve the growth; never decreasing
        # out to deep saturation.
        zs = np.sort(rng.uniform(-15.0, 15.0, size=400))
        vals = [fam.squash(z) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        zs = np.sort(rng.uniform(-60.0, 60.0, size=400))
        vals = [fam.squash(z) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_deriv_positive_and_integral_nonnegative(self, fam_name):
        fam = sl.get_family(fam_name)
        for c in np.linspace(-0.999, 0.999, 101):
            assert fam.unsquash_deriv(c) > 0.0
        for z in np.linspace(-20.0, 20.0, 101):
            assert fam.squash_integral(z) >= 0.0


class TestFamilyRegistry:
    def test_lookup(self):
        assert sl.get_family("tanh").name == "tanh"
        assert sl.get_family("logit").name == "logit"

    def test_one_value_per_name(self):
        # A family is a value built once: every lookup returns it, so two
        # configs naming the same family compare equal.
        for name in ("tanh", "logit"):
            assert sl.get_family(name) is sl.get_family(name)
        assert sl.tanh_family() == sl.get_family("tanh")
        assert sl.logit_family() == sl.get_family("logit")

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match=r"unknown lifting family .*"
                                              r"available: \['logit', 'tanh'\]"):
            sl.get_family("sine")

    def test_family_pair_forms(self, tanh_fam, logit_fam):
        assert sl.family_pair(tanh_fam) == (tanh_fam, tanh_fam)
        assert sl.family_pair((tanh_fam, logit_fam)) == (tanh_fam, logit_fam)
        with pytest.raises(ConfigError):
            sl.family_pair((tanh_fam,))
        with pytest.raises(ConfigError):
            sl.family_pair((tanh_fam, "tanh"))


class TestLift:
    def test_origin(self, box, tanh_fam):
        frame = sl.lift((0.0, 0.0), box, tanh_fam)
        assert frame.z == (0.0, 0.0)
        assert frame.zn == (0.0, 0.0)

    def test_reference_points(self, box, tanh_fam):
        # x1 = 1 with bound 2 lifts to 2 atanh(1/2) = ln 3.
        frame = sl.lift((1.0, 0.0), box, tanh_fam)
        assert frame.z[0] == pytest.approx(LN3, rel=1e-15)
        # The benchmark start speed 0.9 with bound 1 lifts to atanh(0.9).
        frame = sl.lift((0.0, 0.9), box, tanh_fam)
        assert frame.z[1] == pytest.approx(ATANH_09, rel=1e-15)

    def test_frame_mutual_consistency(self, box, tanh_fam):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95))
            f = sl.lift(x, box, tanh_fam)
            assert f.xn[0] == pytest.approx(f.x[0] / box.x1_max, rel=1e-15)
            assert f.z[0] == pytest.approx(
                box.x1_max * tanh_fam.unsquash(f.xn[0]), rel=1e-14)
            assert f.zn[1] == pytest.approx(f.z[1] / box.x2_max, rel=1e-14)
            assert box.x2_max * tanh_fam.squash(f.zn[1]) == pytest.approx(
                f.x[1], abs=1e-13)

    def test_guard_band(self, box, tanh_fam):
        with pytest.raises(DomainViolation):
            sl.lift((2.0, 0.0), box, tanh_fam)
        with pytest.raises(DomainViolation):
            sl.lift((0.0, -1.0 + 1e-12), box, tanh_fam)
        # Just outside the guard band is accepted.
        sl.lift((2.0 * (1.0 - 2e-9), 0.0), box, tanh_fam)

    def test_non_finite(self, box, tanh_fam):
        with pytest.raises(NonFiniteInput):
            sl.lift((math.nan, 0.0), box, tanh_fam)
        with pytest.raises(NonFiniteInput):
            sl.lift((0.0, math.inf), box, tanh_fam)


class TestUnlift:
    def test_origin_and_reference_value(self, box, tanh_fam):
        assert sl.unlift((0.0, 0.0), box, tanh_fam).x == (0.0, 0.0)
        frame = sl.unlift((LN3, 0.0), box, tanh_fam)
        assert frame.x[0] == pytest.approx(1.0, rel=1e-14)

    def test_never_leaves_box(self, box, tanh_fam):
        rng = np.random.default_rng(5)
        zs = np.concatenate([rng.uniform(-1e3, 1e3, size=2000),
                             np.array([-1e3, 1e3, 0.0])])
        for z1 in zs[:50]:
            for z2 in (-1e3, -7.3, 0.1, 1e3):
                x1, x2 = sl.unlift((z1, z2), box, tanh_fam).x
                assert abs(x1) < box.x1_max
                assert abs(x2) < box.x2_max

    def test_subnormal_bounds_stay_strictly_inside(self, tanh_fam):
        # At or below the smallest normal double, xb * c rounds back onto xb
        # even for c one ulp below 1; unlift then steps one ulp inward.
        box = sl.SafeSet(1e-310, 3e-310)
        assert 1e-310 * math.nextafter(1.0, 0.0) == 1e-310
        x1, x2 = sl.unlift((1.0, 1.0), box, tanh_fam).x
        assert 0.0 < x1 < box.x1_max and 0.0 < x2 < box.x2_max

    def test_non_finite(self, box, tanh_fam):
        with pytest.raises(NonFiniteInput):
            sl.unlift((math.inf, 0.0), box, tanh_fam)
        with pytest.raises(NonFiniteInput):
            sl.unlift((0.0, math.nan), box, tanh_fam)


class TestRoundTrip:
    @pytest.mark.parametrize("fam_name", ["tanh", "logit"])
    def test_round_trip_accuracy(self, box, fam_name):
        fam = sl.get_family(fam_name)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(2000):
            x = (box.x1_max * rng.uniform(-1, 1) * (1 - 1e-8),
                 box.x2_max * rng.uniform(-1, 1) * (1 - 1e-8))
            back = sl.unlift(sl.lift(x, box, fam).z, box, fam).x
            worst = max(worst, abs(back[0] - x[0]), abs(back[1] - x[1]))
        assert worst < 1e-10

    def test_per_state_family_mix_round_trips(self, box, tanh_fam, logit_fam):
        pair = (tanh_fam, logit_fam)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95))
            back = sl.unlift(sl.lift(x, box, pair).z, box, pair).x
            assert back[0] == pytest.approx(x[0], abs=1e-11)
            assert back[1] == pytest.approx(x[1], abs=1e-11)


class TestSafeSetColumns:
    """contains is the one strict-box rule, on floats and on columns."""

    @staticmethod
    def inline_mask(box, x1, x2):
        return (np.abs(x1) < box.x1_max) & (np.abs(x2) < box.x2_max)

    def test_columns_match_the_inline_mask_on_a_run(self, run_plus, box):
        got = box.contains(run_plus.x1, run_plus.x2)
        assert got.dtype == bool and len(got) == len(run_plus)
        assert np.array_equal(got, self.inline_mask(box, run_plus.x1, run_plus.x2))
        assert np.array_equal(got, run_plus.in_safe_set)

    def test_columns_at_and_beyond_each_bound(self):
        box = sl.SafeSet(2.0, 1.0)
        below1, below2 = math.nextafter(2.0, 0.0), math.nextafter(1.0, 0.0)
        x1 = np.array([0.0, 2.0, -2.0, 2.5, -7.0, below1, -below1, 0.0, 0.0,
                       0.0, 0.0, 0.0, math.nan, 0.0, math.inf])
        x2 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 1.5,
                       below2, -below2, 0.0, math.nan, 0.0])
        got = box.contains(x1, x2)
        assert np.array_equal(got, self.inline_mask(box, x1, x2))
        assert got.tolist() == [True, False, False, False, False, True, True,
                                False, False, False, True, True, False, False, False]
        # The scalar rule agrees with the column rule point by point.
        assert [box.contains(a, b) for a, b in zip(x1.tolist(), x2.tolist())] == got.tolist()
