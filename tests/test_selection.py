"""Posterior model probabilities, neighbour scans, BMA, stepwise DIC."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import random_weights, simulate_slm

import spatecon as se
from spatecon import selection
from spatecon.marginals import gaussian_marginal


class TestPosteriorModelProbs:
    def test_equal_mliks_uniform_prior(self):
        assert_allclose(
            selection.posterior_model_probs([-10.0, -10.0]), [0.5, 0.5], atol=1e-15
        )

    def test_three_to_one_ratio(self):
        probs = selection.posterior_model_probs([0.0, -math.log(3.0)])
        assert_allclose(probs, [0.75, 0.25], atol=1e-14)

    def test_inverse_square_prior_hand_normalized(self):
        ks = np.array([5.0, 6.0, 7.0])
        prior = 1.0 / ks**2
        log_mliks = np.array([-3.0, -2.5, -4.0])
        probs = selection.posterior_model_probs(log_mliks, prior)
        want = np.exp(log_mliks) * prior
        want /= want.sum()
        assert np.max(np.abs(probs - want)) < 1e-12

    def test_all_neginf_rejected(self):
        with pytest.raises(se.InvalidInputError):
            selection.posterior_model_probs([-np.inf, -np.inf])

    def test_nonpositive_prior_rejected(self):
        with pytest.raises(se.InvalidInputError):
            selection.posterior_model_probs([0.0, 0.0], [0.5, 0.0])

    @given(
        shift=st.floats(-500, 500),
        mliks=st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_shift_invariance(self, shift, mliks):
        base = selection.posterior_model_probs(mliks)
        shifted = selection.posterior_model_probs([m + shift for m in mliks])
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_uniform_prior_ordering_matches_mlik_ordering(self):
        rng = np.random.default_rng(0)
        mliks = rng.normal(size=6) * 10
        probs = selection.posterior_model_probs(mliks)
        assert np.array_equal(np.argsort(probs), np.argsort(mliks))


class TestNeighborScan:
    def make_data(self, rng, n=35):
        coords = rng.uniform(size=(n, 2))
        w = se.row_standardize(se.knn_adjacency(coords, 4))
        y, x = simulate_slm(rng, w, [1.0, 0.8], 0.4, 0.5)
        return coords, y, x

    def test_singleton_k_range_has_probability_one(self):
        rng = np.random.default_rng(1)
        coords, y, x = self.make_data(rng)
        mset = selection.neighbor_scan(coords, y, x, "slm", [4])
        assert mset.posterior_probs.shape == (1,)
        assert abs(mset.posterior_probs[0] - 1.0) < 1e-12

    def test_scan_reports_per_k_rows(self):
        rng = np.random.default_rng(2)
        coords, y, x = self.make_data(rng)
        mset = selection.neighbor_scan(coords, y, x, "slm", [3, 4, 5])
        rows = selection.scan_table(mset)
        assert [r["k"] for r in rows] == ["3", "4", "5"]
        assert abs(sum(r["posterior_prob"] for r in rows) - 1.0) < 1e-12
        assert abs(mset.posterior_probs.sum() - 1.0) < 1e-12

    def test_inverse_square_prior_prefers_small_k_when_evidence_flat(self):
        rng = np.random.default_rng(3)
        coords, y, x = self.make_data(rng)
        mset = selection.neighbor_scan(coords, y, x, "slm", [3, 4], prior="inverse_square")
        assert mset.entries[0].prior_prob > mset.entries[1].prior_prob

    def test_failed_fit_dropped_with_warning(self, monkeypatch):
        rng = np.random.default_rng(4)
        coords, y, x = self.make_data(rng)
        real_fit = se.fit

        def flaky_fit(spec, settings=None):
            if spec.w.mat.nnz == 4 * len(y):  # fail the k = 4 fit only
                raise se.NumericFailureError("synthetic failure")
            return real_fit(spec, settings)

        monkeypatch.setattr(selection.models, "fit", flaky_fit)
        with pytest.warns(UserWarning, match="dropped"):
            mset = selection.neighbor_scan(coords, y, x, "slm", [3, 4, 5])
        assert [e.label for e in mset.entries] == ["k=3", "k=5"]
        assert abs(mset.posterior_probs.sum() - 1.0) < 1e-12
        assert abs(sum(e.prior_prob for e in mset.entries) - 1.0) < 1e-12

    def test_threaded_scan_matches_serial(self):
        rng = np.random.default_rng(5)
        coords, y, x = self.make_data(rng, n=30)
        serial = selection.neighbor_scan(coords, y, x, "sem", [3, 4], threads=1)
        threaded = selection.neighbor_scan(coords, y, x, "sem", [3, 4], threads=2)
        assert_allclose(serial.posterior_probs, threaded.posterior_probs, atol=0)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_fewer_than_one_thread_rejected(self, threads):
        coords, y, x = self.make_data(np.random.default_rng(5), n=30)
        with pytest.raises(se.InvalidParameterError, match="threads"):
            selection.neighbor_scan(coords, y, x, "sem", [3, 4], threads=threads)

    def test_each_scanned_graph_is_its_own_knn_adjacency(self, monkeypatch):
        # A lattice, where distances tie several ways, plus duplicate points;
        # the scan queries neighbours once, at the largest k.
        grid = np.array([[i, j] for i in range(6) for j in range(6)], dtype=float)
        coords = np.vstack([grid, [[2.0, 3.0], [2.0, 3.0]]])
        rng = np.random.default_rng(8)
        y, x = rng.normal(size=coords.shape[0]), rng.normal(size=(coords.shape[0], 1))
        seen = {}
        real_fit = se.fit

        def recording_fit(spec, settings=None):
            seen[spec.w.mat.nnz // len(y)] = spec.w
            return real_fit(spec, settings)

        monkeypatch.setattr(selection.models, "fit", recording_fit)
        queries = []
        real_order = se.weights._knn_order

        def counting_order(*args):
            queries.append(args[1])
            return real_order(*args)

        monkeypatch.setattr(se.weights, "_knn_order", counting_order)
        with pytest.warns(UserWarning, match="duplicate"):
            selection.neighbor_scan(coords, y, x, "sem", [5, 3, 8, 4])
        assert queries == [8]
        assert sorted(seen) == [3, 4, 5, 8]
        monkeypatch.undo()
        for k, got in seen.items():
            with pytest.warns(UserWarning, match="duplicate"):
                want = se.row_standardize(se.knn_adjacency(coords, k)).mat
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.mat, part), getattr(want, part)), (k, part)

    def test_bad_k_rejected(self):
        rng = np.random.default_rng(6)
        coords, y, x = self.make_data(rng, n=10)
        with pytest.raises(se.InvalidParameterError):
            selection.neighbor_scan(coords, y, x, "slm", [10])
        with pytest.raises(se.InvalidParameterError):
            selection.neighbor_scan(coords, y, x, "slm", [])


class TestBma:
    def test_single_model_is_unchanged(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.5)
        fit = se.fit(se.build("slm", y, x, w))
        mset = selection.model_set([("only", fit)])
        combined = selection.bma_combine(mset, "x1")
        single = fit.coef_marginal("x1")
        assert abs(combined.mean() - single.mean()) < 1e-8
        assert abs(combined.integral() - 1.0) < 1e-6

    def test_synthetic_two_component_mixture(self):
        a = gaussian_marginal(-1.0, 0.4)
        b = gaussian_marginal(1.5, 0.6)
        entries = [
            selection.ModelSetEntry("A", None, math.log(0.3), 0.0, 0.5),
            selection.ModelSetEntry("B", None, math.log(0.7), 0.0, 0.5),
        ]
        mset = selection.ModelSet(entries)
        assert_allclose(mset.posterior_probs, [0.3, 0.7], atol=1e-12)
        combined = selection.bma_combine(mset, lambda f: a if f is None else a)
        # weight-independent quantity: both models give marginal a
        assert abs(combined.mean() - a.mean()) < 1e-6

        per_model = {"A": a, "B": b}
        labels = iter(["A", "B"])
        combined = selection.bma_combine(mset, lambda f: per_model[next(labels)])
        x = combined.support
        da = np.interp(x, a.support, a.density, left=0, right=0)
        da /= np.trapezoid(da, x)
        db = np.interp(x, b.support, b.density, left=0, right=0)
        db /= np.trapezoid(db, x)
        want_mean = 0.3 * np.trapezoid(x * da, x) + 0.7 * np.trapezoid(x * db, x)
        assert abs(combined.mean() - want_mean) < 1e-8
        assert abs(combined.integral() - 1.0) < 1e-6

    def test_missing_quantity_rejected(self):
        rng = np.random.default_rng(8)
        w = random_weights(rng, 12, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.5)
        fit = se.fit(se.build("slm", y, x, w))
        mset = selection.model_set([("only", fit)])
        with pytest.raises(se.InvalidInputError):
            selection.bma_combine(mset, "not_a_coefficient")


class TestStepwise:
    def test_strong_predictor_selected(self):
        rng = np.random.default_rng(9)
        n = 80
        w = random_weights(rng, n, 3)
        x = rng.normal(size=(n, 3))
        eta = 0.2 + 2.5 * x[:, 0] + rng.normal(size=n)
        y = (eta > 0).astype(float)
        selected, history = selection.stepwise_select(
            y, x, w, "slx", likelihood="probit",
            covariate_names=["signal", "noise1", "noise2"],
            priors=se.ModelPriors(tau_iid_fixed=1e6),
        )
        assert "signal" in selected
        assert history[0]["action"] == "start"
        assert history[-1]["dic"] <= history[0]["dic"]
