"""Engine variances come from the selected inverse, never a dense inverse.

The probit reference is the same engine reading its variances and
coefficient columns off CholeskyHandle.inverse_dense, which is how the
engine worked before selected inversion. A Gaussian evidence eliminates
the observed residuals and factors a smaller matrix, so its reference is
the dense (n + p) system of tests/oracles.py, or, for a whole fit, the
fit's own evidence with each state read off the dense inverse of the
(n + p) matrix it stands for.
"""

import math

import numpy as np
import pytest

from spatecon import CholeskyHandle, build, engine, fit, log_conditional_evidence
from spatecon.engine import laplace_inner

from oracles import (
    random_weights,
    reference_gaussian_state,
    reference_gaussian_system,
    simulate_slm,
)


def dense_reference(monkeypatch):
    """Route variances and coefficient columns through the dense inverse."""
    monkeypatch.setattr(
        CholeskyHandle,
        "marginal_variances",
        lambda self, idx: np.diag(self.inverse_dense())[idx],
    )
    monkeypatch.setattr(
        CholeskyHandle, "inverse_columns", lambda self, idx: self.inverse_dense()[:, idx]
    )


def dense_gaussian_states(monkeypatch):
    """Read every Gaussian state off the dense inverse of the (n + p)
    matrix M = [[TAU_OBS I + A_uu, A_ur], [A_ru, A_rr]] that the reduced
    system stands for, assembled from the fit's terms."""

    def inverse(system):
        plan = system.model.assembly
        data = system.a @ plan.term_data
        data[plan.obs_pos] += engine.TAU_OBS
        return np.linalg.inv(plan.matrix(data).toarray())

    monkeypatch.setattr(
        engine._Reduced, "variances", lambda self: np.diag(inverse(self))[: self.model.n]
    )
    monkeypatch.setattr(engine._Reduced, "columns", lambda self: inverse(self)[:, self.model.n :])


def forbid_dense_inverse(monkeypatch):
    def refuse(self):
        raise AssertionError("the engine built a dense inverse")

    monkeypatch.setattr(CholeskyHandle, "inverse_dense", refuse)


def gaussian_model(kind, seed, n=45, missing=0):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.7, -0.4], 0.5, 0.6)
    y[rng.choice(n, size=missing, replace=False)] = np.nan
    return build(kind, y, x, w)


def probit_model(seed, n=50):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [0.2, 1.0, -0.8], 0.5, 1.0)
    return build("slm", (y > 0).astype(float), x, w, likelihood="probit")


MODELS = {
    "gaussian_slm": lambda: gaussian_model("slm", 1),
    "gaussian_sem_missing": lambda: gaussian_model("sem", 2, missing=6),
    "probit_slm": lambda: probit_model(3),
}
THETAS = {
    "gaussian_slm": {"rho_internal": 0.7, "log_tau": 1.2},
    "gaussian_sem_missing": {"rho_internal": 0.6, "log_tau": 0.8},
    "probit_slm": {"rho_internal": 0.65, "log_tau": 0.0},
}


def state_of(model, theta):
    return log_conditional_evidence(model, theta, want_state=True)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cov_c_owns_a_p_by_p_buffer(name):
    model = MODELS[name]()
    _, state = state_of(model, THETAS[name])
    p = model.compiled.p
    assert state.cov_c.shape == (p, p)
    assert state.cov_c.base is None
    assert state.cov_c.nbytes == 8 * p * p


@pytest.mark.parametrize("name", sorted(MODELS))
def test_state_matches_dense_inverse(name, monkeypatch):
    model = MODELS[name]()
    theta = THETAS[name]
    log_z, state = state_of(model, theta)
    if name.startswith("gaussian"):
        _, ref_log_z = reference_gaussian_system(model, theta)
        ref = reference_gaussian_state(model, theta)
    else:
        with monkeypatch.context() as m:
            dense_reference(m)
            ref_log_z, ref_state = state_of(model, theta)
        ref = vars(ref_state)
    assert abs(log_z - ref_log_z) <= 1e-10 * abs(ref_log_z)
    for field in ("var_x", "var_eta", "cov_c", "mean_x", "mean_c"):
        got, want = getattr(state, field), ref[field]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale, field


def test_probit_mode_search_evidence_reads_no_dense_inverse(monkeypatch):
    model = probit_model(4)
    theta = THETAS["probit_slm"]
    with monkeypatch.context() as m:
        dense_reference(m)
        ref, _ = laplace_inner(model.compiled, theta, want_state=False)
    forbid_dense_inverse(monkeypatch)
    got, state = laplace_inner(model.compiled, theta, want_state=False)
    assert state is None
    assert abs(got - ref) <= 1e-10 * abs(ref)


FITS = {
    "gaussian_slm": lambda: gaussian_model("slm", 5),
    "gaussian_sem": lambda: gaussian_model("sem", 6, missing=4),
    "gaussian_sdm": lambda: gaussian_model("sdm", 7),
    "gaussian_slx": lambda: gaussian_model("slx", 8),
    "probit_slm": lambda: probit_model(9),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_never_builds_a_dense_inverse(name, monkeypatch):
    # A Gaussian fit's grid moves with the round-off of its evidence (the
    # Hessian's differences of the gradient multiply it by about 1 / h),
    # so its reference keeps the fit's own evidence and reads each state
    # densely.
    with monkeypatch.context() as m:
        dense_reference(m)
        dense_gaussian_states(m)
        ref = fit(FITS[name]())
    forbid_dense_inverse(monkeypatch)
    got = fit(FITS[name]())
    assert math.isfinite(got.log_mlik)
    assert abs(got.log_mlik - ref.log_mlik) <= 1e-10 * abs(ref.log_mlik)
    assert got.grid.points.shape == ref.grid.points.shape
    np.testing.assert_allclose(got.coef_covs, ref.coef_covs, rtol=1e-8, atol=0.0)
