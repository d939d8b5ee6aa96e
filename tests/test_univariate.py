"""The in-package bounded Brent search and PCHIP interpolant, checked bit
for bit against the scipy routines they port, and the import footprint
that porting them buys."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

import spatecon
from spatecon.univariate import minimize_bounded, pchip


def assert_same_search(f, bounds, **options):
    want = minimize_scalar(f, bounds=bounds, method="bounded", options=options)
    got = minimize_bounded(f, bounds, **options)
    assert (got.status, got.success, got.message) == (want.status, want.success, want.message)
    assert got.nfev == want.nfev
    np.testing.assert_array_equal([got.x, got.fun], [want.x, want.fun])
    return got


def wavy(rng):
    """A seeded function with several local minima on most brackets."""
    c = rng.normal(size=5)
    freq = rng.uniform(0.5, 6.0)
    return lambda t: float(np.polyval(c, t) + c[0] * math.sin(freq * t))


class TestBoundedSearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 1.0)
        bounds = (lo, lo + rng.uniform(1e-3, 5.0))
        assert_same_search(wavy(rng), bounds, xatol=10.0 ** rng.uniform(-9, -1))

    def test_default_tolerance_and_a_minimum_on_an_edge(self):
        assert_same_search(lambda t: (t - 0.2) ** 2, (-1.0, 2.0))
        got = assert_same_search(lambda t: t, (0.5, 1.5), xatol=1e-6)
        assert got.x == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("maxiter", [1, 2, 5])
    def test_capped_run(self, maxiter):
        got = assert_same_search(wavy(np.random.default_rng(7)), (-2.0, 2.0), xatol=1e-10, maxiter=maxiter)
        # The cap is checked after the first step, so it allows two at least.
        assert not got.success and got.nfev == max(maxiter, 2)
        assert got.message.startswith("Maximum")

    @pytest.mark.parametrize(
        "f",
        [lambda t: math.nan, lambda t: math.nan if t > 0.3 else (t - 0.7) ** 2],
        ids=["everywhere", "past_0.3"],
    )
    def test_nan(self, f):
        got = assert_same_search(f, (0.0, 1.0))
        if math.isnan(f(0.0)):
            assert got.status == 2 and got.message == "NaN result encountered."


def knots_and_values(rng, n):
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) + rng.normal()
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    return x, y


def assert_same_pchip(x, y):
    between = (x[:-1] + x[1:]) / 2.0
    width = x[-1] - x[0]
    at = np.concatenate([x, between, np.linspace(x[0] - width, x[-1] + width, 41)])
    want = PchipInterpolator(x, y, extrapolate=True)(at)
    got = pchip(x, y, at)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestPchip:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        assert_same_pchip(*knots_and_values(rng, int(rng.integers(4, 25))))

    @pytest.mark.parametrize("seed", range(20))
    def test_flat_runs(self, seed):
        # Repeated values make zero slopes next to nonzero ones.
        rng = np.random.default_rng(100 + seed)
        x, y = knots_and_values(rng, 12)
        y[rng.integers(0, 12, 6)] = y[0]
        assert_same_pchip(x, np.round(y, 1))

    @pytest.mark.parametrize("seed", range(20))
    def test_slope_sign_changes(self, seed):
        # Alternating data: every interior slope pair changes sign, and the
        # end rule's sign and 3 m0 limits both come into play.
        rng = np.random.default_rng(200 + seed)
        x, y = knots_and_values(rng, 9)
        y = np.abs(y) * np.resize([1.0, -1.0], 9)
        assert_same_pchip(x, y)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_few_knots(self, n, seed):
        assert_same_pchip(*knots_and_values(np.random.default_rng(300 + seed), n))

    def test_log_density_shape(self):
        # The shape the hyperparameter marginals interpolate: a concave log
        # density floored 41 below its peak in the tails.
        x = np.linspace(-2.4, 2.4, 9)
        y = np.maximum(-0.5 * (3.0 * x) ** 2, -41.0)
        assert_same_pchip(x, y)


def test_spatecon_loads_neither_scipy_optimize_nor_interpolate():
    script = """
import sys
import scipy.sparse.linalg, scipy.special, scipy.spatial
heavy = ("scipy.optimize", "scipy.interpolate")
before = {m for m in heavy if m in sys.modules}
import spatecon, spatecon.cli
print(sorted({m for m in heavy if m in sys.modules} - before))
"""
    src = str(Path(spatecon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
