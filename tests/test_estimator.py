import re
import warnings
from dataclasses import replace

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
    fit,
    pack,
    parameter_box,
    realised_cov,
    select_k,
    sigma_of_theta,
    simulate,
    unpack,
    vech,
    weight_matrix,
)
from diffusionfa.config import (bundled_config_path, load_json, model_from_json,
                                sim_config_from_json)
from diffusionfa.matrixcalc import duplication_pinv, unvec
from diffusionfa.montecarlo import experiment_from_json, replication_seed
from diffusionfa import estimator
from diffusionfa.estimator import _Contrast, information

from conftest import SIGMA_TRUE, make_sim_config, make_spec
from oracles import delta_jacobian, quasi_loglik_excess, sigma_gradient_stack

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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(WeightMatrixError):
            contrast(rc, params)
        with pytest.raises(WeightMatrixError):
            contrast_grad(rc, params)
        with pytest.raises(WeightMatrixError):
            _Contrast(rc.q, make_spec()).evaluate(pack(params))
    # the failed factorisation is judged, not warned about
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


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
    objective = _Contrast(random_rcov(rng, p).q, spec)
    hess = objective.hessian(objective.evaluate(pack(params))[2])
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
    objective = _Contrast(sigma, spec)
    hess = objective.hessian(objective.evaluate(pack(params))[2])
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


@pytest.mark.parametrize("loading, sigma_ee, needle", [
    (0.0, [np.inf, 1, 1, 1, 1, 1], "start theta:12=inf is not finite"),
    (0.0, [1, 1, 1, np.nan, 1, 1], "start theta:15=nan is not finite"),
    (1e200, [1, 1, 1, 1, 1, 1],
     "start Sigma(theta) of fields 'a', 'sigma_ff' and 'sigma_ee' is not finite"),
], ids=["infinite", "nan", "overflowing"])
def test_check_start_refuses_a_non_finite_start(loading, sigma_ee, needle):
    # inverse_cholesky alone calls diag(inf, 1, 1) positive definite
    start = ParamVector(a=np.full((4, 2), loading), sigma_ff=np.eye(2), sigma_ee=sigma_ee)
    with pytest.raises(StartError, match=re.escape(needle)):
        estimator.check_start(start)


def test_fit_nonconvergence_returns_partial_result(truth, monkeypatch):
    # Newton from the default start and BFGS from the truth alike
    monkeypatch.setattr(estimator, "_MAX_ITER", 2)
    path = simulate(make_sim_config(n=1000, seed=44))
    rc = realised_cov(path)
    for init in (None, truth):
        res = fit(rc, make_spec(), init=init)
        assert not res.converged
        assert res.message == "max_iter"
        assert res.iterations == 2
        assert np.isfinite(res.contrast)


def test_evaluation_budget_ends_both_minimisers_unconverged(monkeypatch):
    # the driver ends either minimiser at the evaluation past the budget,
    # wherever it runs out: BFGS from the truth within its first search (two)
    # or its second (five), Newton from the default start in its arc search;
    # neither stops at a stationary point
    exp = experiment_from_json(load_json(bundled_config_path("table6_nonergodic")))
    assert exp.seed_base == 77
    rc = realised_cov(simulate(exp.sim.with_seed(replication_seed(exp.seed_base, 0))))
    for budget in (2, 5):
        monkeypatch.setattr(estimator, "_MAX_EVALS", budget)
        res = fit(rc, exp.spec, init=exp.truth,
                  bounds=parameter_box(exp.spec, **exp.bounds_blocks))
        assert (res.converged, res.message, res.evaluations) == (False, "max_evals", budget)
    res = fit(rc, replace(exp.spec, k=1))
    assert (res.converged, res.message, res.evaluations) == (False, "max_evals", 5)


def _one_search(d, accept):
    """A minimiser for :func:`estimator._drive` that runs one arc search along
    d from the start and returns what it found."""
    return lambda x, f, g, point, lo, hi: estimator._arc_search(x, d, lo, hi, 1.0, accept)


def test_drive_counts_the_start_and_answers_a_non_pd_trial_with_inf(truth):
    spec = make_spec()
    objective = _Contrast(SIGMA_TRUE, spec)
    box = parameter_box(spec)  # admits negative unique variances
    x = pack(truth)
    bad = x.copy()
    bad[-spec.p:] -= 1.5 * np.linalg.eigvalsh(SIGMA_TRUE)[0]
    with pytest.raises(WeightMatrixError):
        objective.value(bad)

    def asks_nothing(x, f, g, point, lo, hi):
        return f, g
        yield  # unreached: a generator that returns at once

    def asks_once(x, f, g, point, lo, hi):
        return (yield "f", bad)

    lo, hi = box[:, 0], box[:, 1]
    (*_, (f, g)), steps, evals = estimator._drive(asks_nothing, objective, x, lo, hi)
    assert (f, steps, evals) == (0.0, 0, 1)
    assert np.array_equal(g, objective.evaluate(x)[1])
    (*_, answer), steps, evals = estimator._drive(asks_once, objective, x, lo, hi)
    assert (answer, steps, evals) == ((np.inf, None), 0, 2)


class _Norm:
    """F = x'x with its point x, a stand-in objective for :func:`estimator._drive`."""

    def value(self, x):
        return float(x.dot(x)), x

    def gradient(self, x):
        return 2.0 * x

    def hessian(self, x):
        return 2.0 * np.eye(x.size)


class _Flat:
    """F = 0 everywhere with gradient 1 and Hessian I, an objective whose
    gradient promises a decrease that no step delivers."""

    def value(self, x):
        return 0.0, x

    def gradient(self, x):
        return np.ones_like(x)

    def hessian(self, x):
        return np.eye(x.size)


def test_newton_stops_at_line_search_where_no_step_decreases_f():
    # the decrement 1 fails the stationarity test, so Newton takes one step;
    # F never falls, so its Armijo search halves alpha from 1/2 below
    # _MIN_STEP_FRACTION, 43 trials after the start, and the fit stops there
    x0, lo, hi = np.zeros(1), np.full(1, -np.inf), np.full(1, np.inf)
    (x, f, g, point, converged, message), steps, evals = estimator._drive(
        estimator._projected_newton, _Flat(), x0, lo, hi)
    assert (message, converged, steps, evals) == ("line_search", False, 1, 44)
    assert (f, np.array_equal(x, x0)) == (0.0, True)


def _accept(x):
    """Evaluate x and ask for its gradient, as a search does at the trial it accepts."""
    f, point = yield "f", x
    yield "g", point


def test_drive_owns_both_caps_with_stand_in_minimisers():
    # a minimiser only steps and asks: the driver stops one that steps
    # forever at _MAX_ITER steps with the last point it accepted, and one
    # that asks for F forever at _MAX_EVALS with its last accepted point (the
    # start before any), never a trial it did not accept; either converges
    # only where Newton's test passes, at the minimum x = 0 of x'x
    x0, lo, hi = np.zeros(2), np.full(2, -np.inf), np.full(2, np.inf)

    def steps_forever(x, f, g, point, lo, hi):
        while True:
            x = x + 1.0
            yield from _accept(x)
            yield "step", None

    def asks_forever(steps):
        def minimize(x, f, g, point, lo, hi):
            for _ in range(steps):
                yield from _accept(x + 1.0)
                yield "step", None
            while True:
                yield "f", x + 2.0
        return minimize

    (x, f, g, point, converged, message), steps, evals = estimator._drive(
        steps_forever, _Norm(), x0, lo, hi)
    assert (steps, evals, converged, message) == (
        estimator._MAX_ITER, estimator._MAX_ITER + 2, False, "max_iter")
    assert np.array_equal(x, x0 + estimator._MAX_ITER + 1)
    assert np.array_equal(g, 2.0 * x)
    for n_steps in (0, 1):
        (x, f, *_, converged, message), steps, evals = estimator._drive(
            asks_forever(n_steps), _Norm(), x0, lo, hi)
        assert (steps, evals, converged, message) == (
            n_steps, estimator._MAX_EVALS, n_steps == 0, "max_evals")
        assert (f, np.array_equal(x, x0 + n_steps)) == (2 * n_steps, True)


def test_arc_search_returns_none_without_evaluating_an_arc_that_cannot_move(truth):
    objective = _Contrast(SIGMA_TRUE, make_spec())
    x = pack(truth)
    d = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
    # every coordinate sits on the bound that d pushes against
    lo, hi = np.where(d < 0, x, x - 1.0), np.where(d > 0, x, x + 1.0)
    (*_, found), steps, evals = estimator._drive(_one_search(d, lambda *_: True),
                                                 objective, x, lo, hi)
    assert found is None
    assert (steps, evals) == (0, 1)  # the start alone


def test_arc_search_rejects_a_trial_whose_sigma_is_not_positive_definite(truth):
    # the flat box admits negative unique variances: lowering every one by
    # 1.5 lambda_min(Sigma) leaves Sigma indefinite, half of that does not
    spec = make_spec()
    objective = _Contrast(SIGMA_TRUE, spec)
    box = parameter_box(spec)
    x = pack(truth)
    d = np.zeros_like(x)
    d[-spec.p:] = -1.5 * np.linalg.eigvalsh(SIGMA_TRUE)[0]
    with pytest.raises(WeightMatrixError):
        _Contrast(SIGMA_TRUE, spec).evaluate(x + d)
    (*_, found), _, evals = estimator._drive(_one_search(d, lambda *_: True), objective,
                                             x, box[:, 0], box[:, 1])
    assert np.array_equal(found[0], x + 0.5 * d)
    assert evals == 3  # the start and both trials


def test_arc_search_forms_the_gradient_only_at_the_accepted_trial(truth):
    # the full step is refused by the predicate, the half step accepted: two
    # counted evaluations and one gradient beside the start's, and it is the
    # accepted point's, as are the step and the point returned
    objective = _Contrast(SIGMA_TRUE, make_spec())
    gradients = []
    plain_gradient = objective.gradient
    objective.gradient = lambda point: gradients.append(None) or plain_gradient(point)
    x = pack(truth)
    d = np.full_like(x, 1e-3)
    box = parameter_box(make_spec())
    (x_end, f_end, _, point_end, _, (x_try, f_try, g_try, point, step)), _, evals = (
        estimator._drive(_one_search(d, lambda alpha, *_: alpha < 1.0), objective, x,
                         box[:, 0], box[:, 1]))
    # the driver's state is the accepted trial, never the refused full step
    assert (x_end is x_try, f_end == f_try, point_end is point) == (True, True, True)
    assert np.array_equal(x_try, x + 0.5 * d)
    assert np.array_equal(step, x_try - x)
    assert evals == 3
    assert len(gradients) == 2
    f_ref, g_ref, point_ref = _Contrast(SIGMA_TRUE, make_spec()).evaluate(x_try)
    assert f_try == f_ref
    assert np.array_equal(g_try, g_ref)
    # Lambda, Sigma_ff, S, S R and G
    assert len(point) == len(point_ref) == 5
    assert all(np.array_equal(a, b) for a, b in zip(point, point_ref))


def _stall_case():
    # the bundled system at seed 1, fit from the bundled model's parameters:
    # BFGS's search stalls short of its tolerance, at a stationary point
    doc = load_json(bundled_config_path("system_p6k2"))
    rc = realised_cov(simulate(sim_config_from_json(dict(doc, seed=1), path="")))
    spec, params = model_from_json(load_json(bundled_config_path("model_p6k2")))
    return rc, replace(spec, n=rc.n, h=rc.h), params


def _count_calls(monkeypatch, name):
    """A list that grows by one per call of the _Contrast method ``name``."""
    formed, real = [], getattr(estimator._Contrast, name)
    monkeypatch.setattr(estimator._Contrast, name,
                        lambda self, point: formed.append(None) or real(self, point))
    return formed


def test_bfgs_stall_at_a_stationary_point_is_converged(monkeypatch):
    # the driver's stationarity test, not the loop's own tolerance, decides
    # converged: the stall keeps its plain stop name
    rc, spec, params = _stall_case()
    formed = _count_calls(monkeypatch, "information")
    res = fit(rc, spec, init=params)
    assert res.converged
    assert res.message == "line_search"
    # the SEs read the one information fit forms
    assert len(formed) == 1
    assert np.array_equal(res.avar, np.linalg.inv(information(res.theta_hat)))


def test_one_stationarity_test_judges_every_stop(monkeypatch):
    rc, spec, params = _stall_case()
    box = default_bounds(rc, spec)
    # the loop only names its stall; the driver judges the point converged
    stop, _, _ = estimator._drive(estimator._bfgs, _Contrast(rc.q, spec), pack(params),
                                  box[:, 0], box[:, 1])
    assert stop[4:] == (True, "line_search")
    # an iteration cap away from a stationary point stays unconverged for
    # both minimisers; each fit forms one information
    formed = _count_calls(monkeypatch, "information")
    monkeypatch.setattr(estimator, "_MAX_ITER", 2)
    res = fit(rc, spec, init=params)
    assert (res.converged, res.message) == (False, "max_iter")
    res = fit(rc, spec)
    assert (res.converged, res.message) == (False, "max_iter")
    assert len(formed) == 2


def test_the_verdict_forms_one_hessian_for_bfgs_and_none_for_newton(monkeypatch):
    # BFGS forms no Hessian of its own, so the driver forms one at its stop;
    # Newton forms one at each loop head, the last at its stop, and the
    # driver reuses it
    rc, spec, params = _stall_case()
    formed = _count_calls(monkeypatch, "hessian")
    res = fit(rc, spec, init=params)
    assert (res.converged, len(formed)) == (True, 1)
    formed.clear()
    res = fit(rc, spec)
    assert res.converged and res.message.startswith("decrement")
    assert len(formed) == res.iterations + 1


def test_no_fit_builds_the_weight_matrix(monkeypatch):
    # the SEs read the objective's T(S, S) / 2: BFGS stalled at a stationary
    # point, Newton from the default start and every select count give the
    # same results with W unavailable
    from diffusionfa import model

    rc, spec, params = _stall_case()

    def runs():
        return [fit(rc, spec, init=params), fit(rc, spec),
                *(t.fit for t in select_k(rc, spec).trail)]

    expected = runs()
    for module in (estimator, model):
        monkeypatch.setattr(module, "weight_matrix", _no_weight_matrix)
    got = runs()
    assert len(got) == len(expected) > 3
    for a, b in zip(expected, got):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.se, b.se)
        assert (a.contrast, a.iterations, a.evaluations, a.converged, a.message) == (
            b.contrast, b.iterations, b.evaluations, b.converged, b.message)


def _no_weight_matrix(sigma):
    raise AssertionError("a fit built the weight matrix")


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


def test_default_bounds_name_the_variance_below_the_unique_variance_floor():
    # unique variances lie in [1e-8, 2 max diag Q]: that box is empty when the
    # largest variance is at most 5e-9, and the message says what to do
    spec = make_spec()
    with pytest.raises(ValueError, match=r"largest variance of the data, 4e-09, is at "
                                         r"most half the 1e-08 floor .*; rescale the data"):
        default_bounds(rcov_from_sigma(SIGMA_TRUE * (4e-9 / 794.0)), spec)
    box = default_bounds(rcov_from_sigma(SIGMA_TRUE * (6e-9 / 794.0)), spec)
    assert (box[:, 0] < box[:, 1]).all() and box[-1, 0] == 1e-8


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


# Fits recorded before the minimisers' loops were rewritten in ndarray.dot and
# in-place forms, which keep every floating-point operation: the searches must
# take the same path, to the same counts and message.  The 1e-12 tolerance
# leaves room for another BLAS; a transposed or re-associated product moves a
# converged theta by 1e-15 to 1e-12, so it need not show here.  Rows are
# (study, k, replication, iterations, evaluations, message, F, theta); k = 2
# is BFGS from the truth in the study box, k = 1 Newton from the default start.
# The rows pin fits given the simulated path: a change that moves the path at
# rounding level re-records theta and F where they move, never the counts or
# the message.
FIT_FINGERPRINT = [
    ('table6_nonergodic', 2, 0, 146, 150, 'projected gradient within tolerance',
     0.001700711248703225,
     [2.9984823859701635, 1.230895147001256, 6.805421164845673, -2.882309149133594,
      1.0729406462994435, 4.907149154652303, -3.929445213104988, 1.960126404018694,
      13.633957285317805, 13.816526193268649, 27.496482214932712, 3.923185476324864,
      16.593261583263022, 24.286206364009914, -0.04121302780726122, 9.194780884477607,
      3.8272055448039173]),
    ('table6_nonergodic', 2, 1, 144, 147, 'projected gradient within tolerance',
     0.007875538993049287,
     [2.884189867477115, 0.8693937790310224, 6.954991376521379, -2.9592143616200737,
      1.1165157314729197, 5.054004780193299, -3.9134294183721545, 1.94561453000953,
      12.33731195055591, 12.430926890277652, 26.119497270800565, 4.088200789011857,
      15.360945112906652, 22.936333348732987, 8.147355090631253, 8.551022137058965,
      3.572667694667067]),
    ('table6_nonergodic', 2, 2, 143, 146, 'projected gradient within tolerance',
     0.002138560958305159,
     [2.759370111610729, 0.7941459148728536, 6.989471174810445, -2.992916234239003,
      1.0616148505678045, 5.052077272444788, -4.092882746764576, 2.0393402891486323,
      13.229281128945424, 13.097623975024208, 25.966555822502237, 4.044624106113957,
      14.84676883658148, 23.582518203074482, 4.349006877931245, 8.754774757813289,
      4.137711454732124]),
    ('table6_nonergodic', 1, 0, 22, 26, 'decrement_at_bound (theta:9)',
     1.2137523777713484,
     [1.2639465101275194, 4.796668158002096, 7.473566767208878, 1.8026077681540247,
      -0.38391806609078144, 11.622191796500115, 6.403086028751354, 35.13688385582673,
      1e-08, 386.9229292699074, 1089.8969501917795, 472.2643057125135]),
    ('table6_nonergodic', 1, 1, 21, 25, 'decrement_at_bound (theta:9)',
     1.2268431735051786,
     [1.3312575021818065, 4.815181421640536, 7.513942211255757, 1.8058644463018003,
      -0.4077553525473525, 10.269611315817784, 6.692896185618541, 32.418373986928174,
      1e-08, 386.82049290308913, 1566.698406271983, 382.6801552958729]),
    ('table6_nonergodic', 1, 2, 20, 25, 'decrement_at_bound (theta:9)',
     1.2199192521978819,
     [1.2609042582594363, 4.559129307884162, 7.164487389815848, 1.8083734643604172,
      -0.41934211545308003, 11.079296227533161, 6.697252448237991, 32.19467320258369,
      1e-08, 410.0212141886265, 1542.7499629293118, 341.55457622216306]),
    ('ergodic_scaled', 2, 0, 119, 121, 'projected gradient within tolerance',
     0.00015279742778143062,
     [2.9628469550398524, 0.9096026688412913, 7.01503831624705, -3.0132476284922136,
      1.0132537807157875, 5.001254559417923, -3.941588122183633, 1.9767762010036187,
      13.194674283968672, 13.147885550715733, 26.48786380759665, 4.0715580577442845,
      16.615825638146774, 25.561231903715502, 1.232401325194534, 9.18433308621012,
      3.993029410813743]),
    ('ergodic_scaled', 2, 1, 147, 151, 'projected gradient within tolerance',
     0.000499946396703108,
     [2.9774840865765424, 1.0174464773799787, 6.909163669283826, -2.959029698406289,
      1.0340156178400834, 4.966626255308706, -3.9235550629278544, 1.9586999627038686,
      12.895694344364566, 12.867986652060715, 25.842844164793423, 4.047233001929717,
      16.002738875999327, 24.402982218506363, 2.712077568563658, 9.55077330487629,
      3.8745114236082197]),
    ('ergodic_scaled', 2, 2, 143, 146, 'projected gradient within tolerance',
     0.00043567804419998167,
     [2.990275156528271, 1.0050911432620422, 6.96983512171106, -2.9799615620907525,
      1.0256118072317002, 4.995949091508604, -3.9869638648341907, 1.9930841670170938,
      12.863267558744507, 12.830278147051954, 25.65555575029342, 4.094907666377134,
      16.684202824235197, 24.867578379611107, 1.630147043999345, 8.804920476732818,
      4.096401965504258]),

]


@pytest.mark.parametrize("study, k, r, iterations, evaluations, message, f, theta",
                         FIT_FINGERPRINT)
def test_fit_fingerprint_is_unchanged(study, k, r, iterations, evaluations, message,
                                      f, theta):
    exp = experiment_from_json(load_json(bundled_config_path(study)))
    rc = realised_cov(simulate(exp.sim.with_seed(replication_seed(exp.seed_base, r))))
    if k == exp.spec.k:
        res = fit(rc, exp.spec, init=exp.truth,
                  bounds=parameter_box(exp.spec, **exp.bounds_blocks))
    else:
        res = fit(rc, replace(exp.spec, k=k))
    assert (res.iterations, res.evaluations, res.message) == (iterations, evaluations,
                                                              message)
    assert res.contrast == pytest.approx(f, rel=1e-12, abs=0)
    assert np.allclose(res.theta, theta, rtol=1e-12, atol=0)
