"""Marginal densities: normalization, moments, transforms, mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from spatecon import InvalidParameterError, transform_marginal
from spatecon.marginals import (
    combine_on_common_support,
    gaussian_marginal,
    gaussian_mixture_marginal,
    mixture_moments,
    probit_mixture_marginal,
)


def test_gaussian_marginal_integrates_to_one():
    m = gaussian_marginal(2.0, 0.7)
    assert abs(m.integral() - 1.0) < 1e-6
    assert np.all(np.diff(m.support) > 0)


def test_mixture_moments_match_grid_moments():
    # component means spread like hyper-grid conditionals: within ~half a sd
    rng = np.random.default_rng(0)
    for _ in range(10):
        base = rng.normal()
        means = base + rng.normal(scale=0.4, size=4)
        variances = rng.uniform(0.8, 1.5, size=4)
        w = rng.uniform(0.1, 1.0, size=4)
        w /= w.sum()
        m = gaussian_mixture_marginal(means, variances, w)
        mean_a, var_a = mixture_moments(means, variances, w)
        assert abs(m.mean() - mean_a) <= 1e-6 * max(1.0, abs(mean_a))
        assert abs(m.variance() - var_a) <= 1e-6 * var_a


def test_identical_components_reduce_to_single_gaussian():
    m = gaussian_mixture_marginal([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
    single = gaussian_marginal(0.0, 1.0)
    assert_allclose(m.density, single.density, atol=1e-12)


def test_single_component_is_that_gaussian():
    m = gaussian_mixture_marginal([1.5], [0.25], [1.0])
    x = m.support
    expected = np.exp(-0.5 * (x - 1.5) ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
    assert np.max(np.abs(m.density - expected / np.trapezoid(expected, x))) < 1e-12


def test_quantiles_of_standard_normal():
    m = gaussian_marginal(0.0, 1.0, n_points=2001)
    lo, hi = m.quantile([0.025, 0.975])
    assert abs(lo + 1.959964) < 1e-3
    assert abs(hi - 1.959964) < 1e-3


class TestProbitMixture:
    def test_mean_matches_closed_form(self):
        means, variances, weights = [-0.4, 0.3, 1.1], [0.5, 1.2, 0.8], [0.2, 0.5, 0.3]
        m = probit_mixture_marginal(means, variances, weights)
        want = np.dot(weights, norm.cdf(np.array(means) / np.sqrt(1.0 + np.array(variances))))
        assert abs(m.integral() - 1.0) < 1e-12
        assert abs(m.mean() - want) < 1e-4

    def test_mass_where_phi_rounds_to_one(self):
        # every component sits past eta = 8.3, where Phi(eta) == 1.0
        m = probit_mixture_marginal([20.0, 25.0], [1.0, 4.0], [0.5, 0.5])
        assert np.all(np.diff(m.support) > 0)
        assert m.support[-1] == 1.0
        assert m.mean() > 1.0 - 1e-12


class TestTransform:
    def test_identity(self):
        m = gaussian_marginal(0.3, 1.1)
        t = transform_marginal(m, lambda x: x, deriv=np.ones_like)
        assert_allclose(t.support, m.support, atol=1e-12)
        assert_allclose(t.density, m.density, atol=1e-9)

    def test_exp_gives_lognormal(self):
        # fine source grid so the renormalization quadrature on the
        # exponentially stretched image grid stays below the tolerance
        m = gaussian_marginal(0.0, 1.0, n_points=8001)
        t = transform_marginal(m, np.exp, deriv=np.exp)
        y = t.support
        lognorm = np.exp(-0.5 * np.log(y) ** 2) / (y * np.sqrt(2 * np.pi))
        assert np.max(np.abs(t.density - lognorm)) < 1e-6

    def test_affine_maps_support_into_target_interval(self):
        internal = gaussian_marginal(0.5, 0.08)
        lo, hi = -1.0, 1.0
        t = transform_marginal(
            internal, lambda r: lo + r * (hi - lo), deriv=lambda r: np.full_like(r, hi - lo)
        )
        assert t.support[0] > lo - 1e-9
        assert t.support[-1] < hi + 1e-9

    def test_decreasing_map(self):
        m = gaussian_marginal(1.0, 0.5)
        t = transform_marginal(m, lambda x: -x, deriv=lambda x: np.full_like(x, -1.0))
        assert abs(t.mean() + m.mean()) < 1e-9

    def test_non_monotone_rejected(self):
        m = gaussian_marginal(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            transform_marginal(m, lambda x: x**2, deriv=lambda x: 2.0 * x)

    @pytest.mark.parametrize("bad", [0.0, np.inf])
    def test_vanishing_or_infinite_derivative_rejected(self, bad):
        m = gaussian_marginal(0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="derivative"):
            transform_marginal(m, lambda x: x, deriv=lambda x: np.full_like(x, bad))

    def test_renormalized(self):
        m = gaussian_marginal(0.0, 1.0)
        t = transform_marginal(m, lambda x: 3.0 * x + 1.0, deriv=lambda x: np.full_like(x, 3.0))
        assert abs(t.integral() - 1.0) < 1e-6

    @given(scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_property_affine_moments(self, scale, shift):
        m = gaussian_marginal(0.7, 1.3)
        t = transform_marginal(
            m, lambda x: scale * x + shift, deriv=lambda x: np.full_like(x, scale)
        )
        assert abs(t.mean() - (scale * m.mean() + shift)) < 1e-6 * max(1, abs(shift) + scale)
        assert abs(t.sd() - scale * m.sd()) < 1e-6 * scale


class TestCombine:
    def test_single_component_unchanged(self):
        m = gaussian_marginal(0.0, 1.0)
        c = combine_on_common_support([m], [1.0], n_points=801)
        assert abs(c.mean() - m.mean()) < 1e-8
        assert abs(c.integral() - 1.0) < 1e-6

    def test_two_gaussians_mixture_mean_is_linear(self):
        a = gaussian_marginal(-1.0, 0.5)
        b = gaussian_marginal(2.0, 0.8)
        c = combine_on_common_support([a, b], [0.3, 0.7], n_points=1601)
        # means measured on the common grid for exact linearity
        x = c.support
        da = np.interp(x, a.support, a.density, left=0, right=0)
        da /= np.trapezoid(da, x)
        db = np.interp(x, b.support, b.density, left=0, right=0)
        db /= np.trapezoid(db, x)
        want = 0.3 * np.trapezoid(x * da, x) + 0.7 * np.trapezoid(x * db, x)
        assert abs(c.mean() - want) < 1e-8
        assert abs(c.integral() - 1.0) < 1e-6
