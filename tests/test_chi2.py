"""Chi-square survival function against quadrature and closed forms."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from sevlogit import chi_square_sf
from sevlogit.chi2 import chi_square_sf as chi_square_sf_by_module


def quadrature_sf(x, df):
    """Adaptive quadrature of the chi-square density; the independent oracle."""

    def density(t):
        return (
            t ** (df / 2.0 - 1.0)
            * math.exp(-t / 2.0)
            / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
        )

    value, _ = integrate.quad(density, x, np.inf, limit=300)
    return value


class TestChiSquareSF:
    def test_zero_statistic_is_one(self):
        for df in (1, 2, 5, 20, 100):
            assert chi_square_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in (0.001, 0.5, 1.0, 2.0, 3.841, 10.0, 50.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_df1_critical_value(self):
        # 3.841 is the familiar 5% critical value for one degree of freedom
        assert chi_square_sf(3.841, 1) == pytest.approx(quadrature_sf(3.841, 1), abs=1e-10)
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)

    def test_grid_against_quadrature(self):
        for df in (1, 2, 5, 20):
            for x in (0.001, 1.0, 3.841, 10.0, 50.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    quadrature_sf(x, df), abs=1e-10
                )

    def test_against_scipy_gammaincc(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            df = int(rng.integers(1, 60))
            x = float(rng.uniform(0, 120))
            assert chi_square_sf(x, df) == pytest.approx(
                float(special.gammaincc(df / 2.0, x / 2.0)), abs=1e-13
            )

    def test_monotone_decreasing_in_x(self):
        for df in (1, 3, 10):
            xs = np.linspace(0, 40, 81)
            values = [chi_square_sf(x, df) for x in xs]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_df_beyond_mean(self):
        x = 25.0
        values = [chi_square_sf(x, df) for df in range(1, 25)]  # df < x throughout
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi_square_sf(-0.5, 3)

    def test_bounds(self):
        for df in (1, 7, 30):
            for x in (1e-8, 1.0, 300.0):
                p = chi_square_sf(x, df)
                assert 0.0 <= p <= 1.0


class TestLargeDegreesOfFreedom:
    @pytest.mark.parametrize("df", [100, 1_000, 10_000])
    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.1, 2.0])
    def test_against_scipy_gammaincc(self, df, ratio):
        x = ratio * df
        assert chi_square_sf(x, df) == pytest.approx(
            float(special.gammaincc(df / 2.0, x / 2.0)), abs=1e-11
        )

    def test_far_upper_tail_relative(self):
        worst = 0.0
        for df in range(1, 201):
            for x in np.linspace(df, df + 400.0, 41):
                reference = float(special.gammaincc(df / 2.0, x / 2.0))
                worst = max(worst, abs(chi_square_sf(float(x), df) - reference) / reference)
        assert worst <= 1e-12


class TestInputRule:
    def test_nan_statistic_refused(self):
        with pytest.raises(ValueError, match="non-negative number"):
            chi_square_sf(float("nan"), 3)

    @pytest.mark.parametrize("df", [2.5, True, np.True_, float("nan"), float("inf"), -1, "3"])
    def test_df_not_a_positive_integer_refused(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_sf(2.0, df)

    @pytest.mark.parametrize("df", [3.0, np.int64(3), np.float64(3.0)])
    def test_integral_df_of_any_numeric_type(self, df):
        assert chi_square_sf(2.0, df) == chi_square_sf(2.0, 3)

    @pytest.mark.parametrize("df", [1, 2, 3, 50])
    def test_infinite_statistic_is_zero(self, df):
        assert chi_square_sf(float("inf"), df) == 0.0

    def test_module_path_is_the_package_function(self):
        assert chi_square_sf_by_module is chi_square_sf
