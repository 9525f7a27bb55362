import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from diffusionfa import (
    ModelSpec,
    ParamVector,
    RealisedCov,
    SamplePath,
    StartError,
    WeightMatrixError,
    contrast,
    contrast_grad,
    default_bounds,
    default_init,
    delta_jacobian,
    fit,
    pack,
    parameter_box,
    realised_cov,
    sigma_of_theta,
    simulate,
    unpack,
    vech,
    weight_matrix,
)
from diffusionfa.matrixcalc import duplication_pinv, unvec
from diffusionfa import estimator
from diffusionfa.estimator import _Contrast, information

from conftest import SIGMA_TRUE, make_sim_config, make_spec
from oracles import quasi_loglik_excess, sigma_gradient_stack

# (p, k) sizes on which the closed-form contrast is checked against the
# vech-scale Kronecker weight matrix
ORACLE_SIZES = [(3, 1), (6, 2), (12, 3), (20, 3)]
# (p, k) sizes on which the exact Hessian is checked
HESSIAN_SIZES = [(3, 1), (6, 2), (8, 3), (12, 2)]


def rcov_from_sigma(sigma, n=1000, h=1e-3):
    return RealisedCov(q=sigma, n=n, h=h)


def random_rcov(rng, p, n=500):
    m = rng.standard_normal((p, p))
    return RealisedCov(q=m @ m.T + p * np.eye(p), n=n, h=1e-3)


def random_params_for(rng, spec):
    a = rng.standard_normal((spec.p - spec.k, spec.k))
    s = rng.standard_normal((spec.k, spec.k))
    return ParamVector(a=a, sigma_ff=s @ s.T + 0.5 * np.eye(spec.k),
                       sigma_ee=rng.uniform(0.5, 3.0, spec.p))


def test_realised_cov_constant_path():
    x = np.tile([1.0, 2.0], (11, 1))
    path = SamplePath(times=np.arange(11) * 0.1, x=x)
    assert np.array_equal(realised_cov(path).q, np.zeros((2, 2)))


def test_realised_cov_hand_computed():
    x = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [2.0, 1.0]])
    h = 0.5
    path = SamplePath(times=np.arange(4) * h, x=x)
    dx = np.diff(x, axis=0)
    expected = sum(np.outer(d, d) for d in dx) / (3 * h)
    rc = realised_cov(path)
    assert np.allclose(rc.q, expected, rtol=0, atol=1e-15)
    assert rc.n == 3
    assert rc.T == pytest.approx(1.5)


def test_realised_cov_needs_two_observations():
    with pytest.raises(ValueError, match="2 observations"):
        realised_cov(SamplePath(times=np.array([0.0]), x=np.zeros((1, 2))))


def test_realised_cov_permutation_equivariance():
    path = simulate(make_sim_config(n=50, seed=15))
    perm = [3, 0, 5, 1, 4, 2]
    permuted = SamplePath(times=path.times, x=path.x[:, perm])
    q1 = realised_cov(path).q
    q2 = realised_cov(permuted).q
    assert np.allclose(q2, q1[np.ix_(perm, perm)], rtol=0, atol=1e-12)


def test_contrast_zero_iff_zero_residual(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    assert contrast(rc, truth) == 0.0


def test_contrast_matches_direct_solve():
    # the closed form against r' W^{-1} r with the Kronecker weight matrix
    rng = np.random.default_rng(2)
    for p, k in ORACLE_SIZES:
        params = random_params_for(rng, ModelSpec(p=p, k=k))
        rc = random_rcov(rng, p)
        sigma = sigma_of_theta(params)
        resid = vech(rc.q) - vech(sigma)
        expected = resid @ np.linalg.solve(weight_matrix(sigma), resid)
        assert contrast(rc, params) == pytest.approx(expected, rel=1e-12)
        assert contrast(rc, params) >= 0


@pytest.mark.parametrize("p,k", ORACLE_SIZES)
def test_contrast_grad_matches_kronecker_oracle(p, k):
    # two-term derivative of r' W(theta)^{-1} r: the residual term
    # -2 Delta^T u and -4 tr(V Sigma V E_i), u = W^{-1} r, V = unvec(pinv(D)^T u)
    rng = np.random.default_rng(60 + p)
    params = random_params_for(rng, ModelSpec(p=p, k=k))
    rc = random_rcov(rng, p)
    sigma = sigma_of_theta(params)
    resid = vech(rc.q) - vech(sigma)
    u = np.linalg.solve(weight_matrix(sigma), resid)
    stack = sigma_gradient_stack(params)
    v = unvec(duplication_pinv(p).T @ u, p)
    expected = (-2.0 * delta_jacobian(params).T @ u
                - 4.0 * np.einsum("ipq,pq->i", stack, v @ sigma @ v))
    grad = contrast_grad(rc, params)
    assert np.max(np.abs(grad - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_contrast_rejects_indefinite_sigma(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    params = ParamVector(a=truth.a, sigma_ff=truth.sigma_ff,
                         sigma_ee=truth.sigma_ee - [40.0, 0, 0, 0, 0, 0])
    assert np.linalg.eigvalsh(sigma_of_theta(params))[0] < 0
    with pytest.raises(WeightMatrixError):
        contrast(rc, params)
    with pytest.raises(WeightMatrixError):
        contrast_grad(rc, params)


def test_contrast_grad_zero_at_zero_residual(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    assert np.allclose(contrast_grad(rc, truth), np.zeros(17), rtol=0, atol=1e-10)


@pytest.mark.parametrize("p,k", [(3, 1), (6, 2)])
def test_contrast_grad_finite_differences(p, k):
    rng = np.random.default_rng(40 + p)
    spec = ModelSpec(p=p, k=k)
    for _ in range(20):
        rc = random_rcov(rng, p)
        params = random_params_for(rng, spec)
        theta = pack(params)
        grad = contrast_grad(rc, params)
        fd = np.zeros_like(grad)
        for j in range(spec.q):
            step = 1e-6 * (1 + abs(theta[j]))
            up = theta.copy()
            up[j] += step
            dn = theta.copy()
            dn[j] -= step
            fd[j] = (contrast(rc, unpack(up, spec))
                     - contrast(rc, unpack(dn, spec))) / (2 * step)
        assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) < 1e-5


@pytest.mark.parametrize("p,k", HESSIAN_SIZES)
def test_hessian_matches_central_differences(p, k):
    rng = np.random.default_rng(80 + p)
    spec = ModelSpec(p=p, k=k)
    params = random_params_for(rng, spec)
    objective = _Contrast(random_rcov(rng, p), spec)
    hess = objective.hessian(pack(params))
    theta = pack(params)
    fd = np.zeros_like(hess)
    for j in range(spec.q):
        step = 1e-5 * (1 + abs(theta[j]))
        up = theta.copy()
        up[j] += step
        dn = theta.copy()
        dn[j] -= step
        fd[:, j] = (objective.evaluate(up)[1]
                    - objective.evaluate(dn)[1]) / (2 * step)
    assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("p,k", HESSIAN_SIZES)
def test_hessian_is_information_at_zero_residual(p, k):
    # at Q = Sigma(theta) the curvature terms vanish and H = 2 Delta' W^-1 Delta
    rng = np.random.default_rng(90 + p)
    spec = ModelSpec(p=p, k=k)
    params = random_params_for(rng, spec)
    sigma = sigma_of_theta(params)
    hess = _Contrast(rcov_from_sigma(sigma), spec).hessian(pack(params))
    delta = delta_jacobian(params)
    expected = 2.0 * delta.T @ np.linalg.solve(weight_matrix(sigma), delta)
    assert np.max(np.abs(hess - expected)) <= 1e-10 * np.max(np.abs(expected))
    assert (np.max(np.abs(2.0 * information(params) - expected))
            <= 1e-12 * np.max(np.abs(expected)))


def test_fit_zero_residual_fixed_point(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    spec = make_spec()
    res = fit(rc, spec, init=truth)
    assert res.converged
    assert res.contrast <= 1e-12
    assert np.allclose(pack(res.theta_hat), pack(truth), rtol=0, atol=1e-6)


def test_fit_recovers_from_perturbed_start(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    spec = make_spec()
    rng = np.random.default_rng(8)
    start = unpack(pack(truth) + rng.normal(0, 0.3, 17), spec)
    res = fit(rc, spec, init=start)
    assert res.converged
    assert np.max(np.abs(pack(res.theta_hat) - pack(truth))) < 1e-4


def test_fit_simulated_data_close_to_truth(truth):
    path = simulate(make_sim_config(n=10000, h=1e-3, seed=77))
    rc = realised_cov(path)
    spec = make_spec(n=10000)
    res = fit(rc, spec, init=truth)
    assert res.converged
    err = np.abs(pack(res.theta_hat) - pack(truth))
    assert np.all(err < 5 * res.se + 1e-8)


def test_fit_default_init_reaches_truth_basin(truth):
    path = simulate(make_sim_config(n=10000, h=1e-3, seed=78))
    rc = realised_cov(path)
    res = fit(rc, make_spec(n=10000))
    assert res.converged
    err = np.abs(pack(res.theta_hat) - pack(truth))
    assert np.all(err < 5 * res.se + 1e-8)


def test_default_start_fit_counts_its_evaluations():
    path = simulate(make_sim_config(n=1000, seed=5))
    res = fit(realised_cov(path), make_spec(k=1))
    # the start and one accepted trial point per iteration at least
    assert res.evaluations >= res.iterations + 1


def test_fit_reports_standard_errors(truth):
    path = simulate(make_sim_config(n=1000, seed=5))
    rc = realised_cov(path)
    res = fit(rc, make_spec(), init=truth)
    assert res.se.shape == (17,)
    assert np.all(res.se > 0)
    # asymptotic scale: se of the first loading ~ 0.11 at n = 1000
    assert res.se[0] == pytest.approx(0.11, rel=0.3)


def test_fit_time_rescaling_equivariance(truth):
    path = simulate(make_sim_config(n=500, seed=6))
    x, times = path.x, path.times
    c = 4.0
    scaled = SamplePath(times=times * c, x=x * np.sqrt(c))
    rc1 = realised_cov(path)
    rc2 = realised_cov(scaled)
    assert np.allclose(rc1.q, rc2.q, rtol=0, atol=1e-12)
    r1 = fit(rc1, make_spec(n=500), init=truth)
    r2 = fit(rc2, make_spec(n=500, h=c * 1e-3), init=truth)
    assert np.allclose(pack(r1.theta_hat), pack(r2.theta_hat), rtol=0, atol=1e-8)


def test_fit_consistency_sweep(truth):
    # estimation error shrinks monotonically along (n, h) refinements
    medians = []
    for n, h in [(1000, 1e-2), (10000, 1e-3), (100000, 1e-4)]:
        errs = []
        for seed in (1, 2, 3):
            path = simulate(make_sim_config(n=n, h=h, seed=seed))
            res = fit(realised_cov(path), make_spec(n=n, h=h), init=truth)
            errs.append(np.max(np.abs(pack(res.theta_hat) - pack(truth))))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_fit_rejects_init_outside_box(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    box = parameter_box(make_spec(), loading=(-1.0, 1.0))
    with pytest.raises(ValueError, match="outside"):
        fit(rc, make_spec(), init=truth, bounds=box)


@pytest.mark.parametrize("defect,needle", [
    ("length", "start has 14 coordinates, the box 17"),
    ("not_pd", "start Sigma(theta) of fields 'a', 'sigma_ff' and 'sigma_ee' is not "
               "positive definite"),
    ("contrast", "start contrast is not finite"),
])
def test_fit_raises_start_error_for_an_unusable_start(truth, defect, needle):
    rc = rcov_from_sigma(SIGMA_TRUE * (1e300 if defect == "contrast" else 1.0))
    init = {
        "length": ParamVector(a=truth.a[1:], sigma_ff=truth.sigma_ff,
                              sigma_ee=truth.sigma_ee[1:]),
        "not_pd": ParamVector(a=truth.a, sigma_ff=[[13.0, 13.0], [13.0, 1.0]],
                              sigma_ee=truth.sigma_ee),
        "contrast": truth,
    }[defect]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StartError, match=re.escape(needle)):
            fit(rc, make_spec(), init=init, bounds=parameter_box(make_spec()))
    # an overflowing contrast is judged by the fit, so numpy stays quiet
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_fit_nonconvergence_returns_partial_result(truth, monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_ITER", 2)
    path = simulate(make_sim_config(n=1000, seed=44))
    rc = realised_cov(path)
    res = fit(rc, make_spec())
    assert not res.converged
    assert res.message == "max_iter"
    assert res.iterations <= 2
    assert np.isfinite(res.contrast)


def _clipped_default_start(rc, spec):
    # the start fit() takes for init=None, as an explicit init
    box = default_bounds(rc, spec)
    margin = 0.01 * (box[:, 1] - box[:, 0])
    x0 = np.clip(pack(default_init(rc, spec)), box[:, 0] + margin, box[:, 1] - margin)
    return unpack(x0, spec)


@pytest.mark.parametrize("seed", range(4))
def test_newton_misspecified_count_converges_at_or_below_bfgs(seed):
    # k=1 on the two-factor design: the default start runs projected Newton,
    # the same start passed as init runs projected BFGS
    rc = realised_cov(simulate(make_sim_config(n=1000, seed=seed)))
    spec = make_spec(k=1)
    newton = fit(rc, spec)
    assert newton.converged
    assert newton.message.startswith("decrement")
    bfgs = fit(rc, spec, init=_clipped_default_start(rc, spec))
    assert newton.contrast <= (1.0 + 1e-9) * bfgs.contrast


def test_fit_heywood_diagnostics_reported():
    # data with a tiny unique variance drives the estimate to the boundary
    rng = np.random.default_rng(10)
    sigma = SIGMA_TRUE.copy()
    spec = make_spec()
    box = parameter_box(spec)  # admits negative unique variances
    rc = rcov_from_sigma(sigma)
    res = fit(rc, spec, bounds=box)
    assert np.isfinite(res.min_unique_variance)
    assert np.isfinite(res.sigma_ff_min_eig)


def test_default_bounds_contain_default_init():
    rng = np.random.default_rng(31)
    rc = random_rcov(rng, 6)
    spec = make_spec()
    box = default_bounds(rc, spec)
    theta0 = pack(default_init(rc, spec))
    assert np.all(theta0 >= box[:, 0]) and np.all(theta0 <= box[:, 1])


def test_quasi_loglik_excess_zero_at_match(truth):
    rc = rcov_from_sigma(SIGMA_TRUE)
    assert quasi_loglik_excess(rc, truth) == pytest.approx(0.0, abs=1e-12)


def test_quasi_loglik_excess_closed_form_double(truth):
    # Q = Sigma(theta)/2 gives p (log 2 - 1 + 1/2)
    rc = rcov_from_sigma(SIGMA_TRUE / 2.0)
    expected = 6 * (np.log(2.0) - 0.5)
    assert quasi_loglik_excess(rc, truth) == pytest.approx(expected, abs=1e-12)


def test_quasi_loglik_excess_requires_pd_q(truth):
    rc = RealisedCov(q=np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]), n=10, h=0.1)
    with pytest.raises(ValueError, match="positive definite"):
        quasi_loglik_excess(rc, truth)


def test_quasi_loglik_minimizer_agrees_with_contrast_fit(truth):
    # the two objectives share their optimum to o(n^{-1/2}): compare the
    # minimizers on one long simulated path
    n = 10**6
    path = simulate(make_sim_config(n=n, h=1e-4, seed=2026))
    rc = realised_cov(path)
    spec = make_spec(n=n, h=1e-4)
    res_f = fit(rc, spec, init=truth)
    assert res_f.converged

    def m_objective(theta):
        return quasi_loglik_excess(rc, unpack(theta, spec))

    bounds = default_bounds(rc, spec)
    res_m = minimize(m_objective, pack(res_f.theta_hat), method="Nelder-Mead",
                     options=dict(maxiter=20000, xatol=1e-9, fatol=1e-14))
    gap = np.abs(res_m.x - pack(res_f.theta_hat))
    assert np.all(gap <= 0.1 * res_f.se)
