"""Property tests over drawn dimensions and parameters (hypothesis).

Each test bounds its own example count and has no deadline, so the file
runs in a few seconds.
"""

from dataclasses import replace
from functools import lru_cache
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffusionfa import (
    ModelSpec,
    ParamVector,
    RealisedCov,
    contrast,
    default_bounds,
    duplication_pinv,
    pack,
    parameter_box,
    realised_cov,
    simulate,
    sigma_of_theta,
    unpack,
    vech,
)
from diffusionfa import estimator
from diffusionfa.config import (bundled_config_path, load_json, model_from_json,
                                sim_config_from_json)
from diffusionfa.montecarlo import experiment_from_json, replication_seed
from diffusionfa.estimator import _Contrast, _pg_norm, information
from diffusionfa.model import loading_matrix, sigma_derivative_factors

import oracles
from oracles import contrast_hessian, sigma_gradient_contract

BOUNDED = settings(max_examples=60, deadline=None)
# the same examples on every run
DERANDOMISED = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def specs(draw, max_p=7):
    p = draw(st.integers(2, max_p))
    return ModelSpec(p=p, k=draw(st.integers(1, p - 1)))


def matrices(shape, bound):
    return arrays(float, shape, elements=st.floats(-bound, bound))


@BOUNDED
@given(st.data())
def test_pack_unpack_roundtrip(data):
    spec = data.draw(specs())
    v = data.draw(matrices(spec.q, 1e6))
    # the last unique variance is non-positive in every example
    v[-1] = data.draw(st.floats(-1e6, 0.0))
    params = unpack(v, spec)
    assert (params.p, params.k) == (spec.p, spec.k)
    assert np.array_equal(pack(params), v)
    again = unpack(pack(params), spec)
    for block in ("a", "sigma_ff", "sigma_ee"):
        assert np.array_equal(getattr(again, block), getattr(params, block))


def positive_definite_params(data, spec):
    """Drawn parameters of ``spec`` with a positive-definite Sigma(theta)."""
    p, k = spec.p, spec.k
    chol = data.draw(matrices((k, k), 2.0))
    return ParamVector(a=data.draw(matrices((p - k, k), 2.0)),
                       sigma_ff=chol @ chol.T + 0.1 * np.eye(k),
                       sigma_ee=data.draw(arrays(float, p, elements=st.floats(0.5, 4.0))))


def positive_definite_problem(data, max_p):
    """A drawn spec with parameters and Q, both giving positive-definite
    matrices."""
    spec = data.draw(specs(max_p=max_p))
    p = spec.p
    params = positive_definite_params(data, spec)
    m = data.draw(matrices((p, p), 2.0))
    return spec, params, RealisedCov(q=m @ m.T + p * np.eye(p), n=1000, h=1e-3)


@BOUNDED
@given(st.data())
def test_contrast_equals_kronecker_duplication_oracle(data):
    # r' W^{-1} r with W = 2 pinv(D) (Sigma x Sigma) pinv(D)^T built from
    # np.kron, on positive-definite Sigma(theta) and Q
    spec, params, rcov = positive_definite_problem(data, max_p=6)
    sigma = sigma_of_theta(params)
    dp = duplication_pinv(spec.p)
    w = 2.0 * dp @ np.kron(sigma, sigma) @ dp.T
    r = vech(rcov.q) - vech(sigma)
    oracle = r @ np.linalg.solve(w, r)
    assert abs(contrast(rcov, params) - oracle) <= 1e-10 * abs(oracle)


@BOUNDED
@given(st.data())
def test_packed_evaluator_is_bit_identical_to_param_vector_composition(data):
    spec, params, rcov = positive_definite_problem(data, max_p=7)
    # the composition through ParamVector, written with @: Sigma(theta), one
    # Cholesky factor, the closed form and the chain rule
    lam = loading_matrix(params)
    sigma = lam @ params.sigma_ff @ lam.T
    sigma = (sigma + sigma.T) / 2.0 + np.diag(params.sigma_ee)
    assert np.array_equal(sigma, sigma_of_theta(params))
    chol_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    s = chol_inv.T @ chol_inv
    sr = s @ (rcov.q - sigma)
    srs = sr @ s
    f = 0.5 * float(np.sum(sr * sr.T))
    grad = sigma_gradient_contract(params, -(srs + sr @ srs))

    x = pack(params)
    objective = _Contrast(rcov.q, spec)
    f_x, grad_x, point = objective.evaluate(x)
    assert f_x == f
    assert np.array_equal(grad_x, grad)
    # the Hessian reads only the point it is given: a later evaluation leaves
    # it unchanged, and a fresh objective's point at x gives the same bits
    cached = objective.hessian(point)
    objective.evaluate(x + 1e-3)
    assert np.array_equal(cached, objective.hessian(point))
    fresh = _Contrast(rcov.q, spec)
    assert np.array_equal(cached, fresh.hessian(fresh.evaluate(x)[2]))


@DERANDOMISED
@given(st.data())
def test_rank2_hessian_and_delta_match_the_stack_oracle(data):
    # both consumers of sigma_derivative_factors against the dense
    # (q, p, p) stack of dSigma/dtheta: the Hessian, and the information
    # T(S, S) / 2 against Delta^T W^{-1} Delta with Delta from the stack, on
    # the fit's objective and on a fresh one at Q = Sigma(theta)
    spec, params, rcov = positive_definite_problem(data, max_p=12)
    objective = _Contrast(rcov.q, spec)
    point = objective.evaluate(pack(params))[2]
    hess = objective.hessian(point)
    oracle = contrast_hessian(rcov, params)
    assert np.max(np.abs(hess - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    oracle = oracles.information(params)
    for info in (objective.information(point), information(params)):
        assert np.max(np.abs(info - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@BOUNDED
@given(st.data())
def test_derivative_factors_from_the_template_equal_the_column_blocks(data):
    spec = data.draw(specs(max_p=9))
    params = positive_definite_params(data, spec)
    lam, sigma_ff = loading_matrix(params), params.sigma_ff
    reference = oracles.sigma_derivative_factors(lam, sigma_ff)
    got = sigma_derivative_factors(lam, sigma_ff)
    for a, b in zip(got, reference):
        assert np.array_equal(a, b)
    # u and v are the caller's own copies; w is the cached template's
    got[0][:] = np.nan
    got[1][:] = np.nan
    assert not got[2].flags.writeable
    for a, b in zip(sigma_derivative_factors(lam, sigma_ff), reference):
        assert np.array_equal(a, b)


@BOUNDED
@given(st.data())
def test_hessian_on_one_objective_equals_a_fresh_one_at_each_point(data):
    # one objective's points carry nothing from one to the next: the Hessian
    # and information of each, read after every later evaluation, equal a
    # fresh objective's at that point, and the objective itself changes no
    # attribute
    spec, params, rcov = positive_definite_problem(data, max_p=7)
    xs = [pack(params)] + [pack(positive_definite_params(data, spec))
                           for _ in range(data.draw(st.integers(1, 3)))]
    xs.append(xs[0])
    objective = _Contrast(rcov.q, spec)
    state = dict(vars(objective))
    points = [objective.evaluate(x)[2] for x in xs]
    for x, point in zip(xs, points):
        fresh = _Contrast(rcov.q, spec)
        at_x = fresh.evaluate(x)[2]
        assert np.array_equal(objective.hessian(point), fresh.hessian(at_x))
        assert np.array_equal(objective.information(point), fresh.information(at_x))
    assert vars(objective).keys() == state.keys()
    assert all(vars(objective)[key] is value for key, value in state.items())


@BOUNDED
@given(st.data())
def test_pg_norm_is_the_max_norm_of_the_projected_gradient(data):
    n = data.draw(st.integers(2, 12))
    lo = data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    hi = lo + data.draw(arrays(float, n, elements=st.floats(0.5, 10.0)))
    g = data.draw(matrices(n, 1e3))
    # each coordinate on its lower bound (0), its upper bound (1) or inside,
    # with both bounds in every example
    at = data.draw(arrays(np.int8, n, elements=st.integers(0, 2)))
    at[:2] = 0, 1
    x = np.select([at == 0, at == 1], [lo, hi], (lo + hi) / 2.0)
    expected = float(np.max(np.abs(oracles.projected_gradient(x, g, lo, hi))))
    assert _pg_norm(x, g, lo, hi) == expected


class _Quadratic:
    """A stand-in objective F = (1/2) sum_i a_i (x_i - c_i)^2 for the
    minimisers, with the point its x."""

    def __init__(self, a, c):
        self.a, self.c = a, c

    def value(self, x):
        r = x - self.c
        return 0.5 * float(np.sum(self.a * r * r)), x

    def gradient(self, x):
        return self.a * (x - self.c)

    def hessian(self, x):
        return np.diag(self.a)


@DERANDOMISED
@given(st.data())
def test_minimisers_reach_the_clipped_minimum_of_a_separable_quadratic(data):
    # both loops, run by the driver without the covariance model: each c_i
    # lies inside the box [-1, 1]^q or beyond one of its bounds, at 1.1 to 2
    # from 0, so the minimum is clip(c) and Newton's face is exactly the
    # coordinates outside
    q = data.draw(st.integers(1, 17))
    a = data.draw(arrays(float, q, elements=st.floats(0.1, 10.0)))
    outside = data.draw(arrays(np.int8, q, elements=st.integers(-1, 1)))
    c = np.where(outside == 0, data.draw(arrays(float, q, elements=st.floats(-0.9, 0.9))),
                 outside * data.draw(arrays(float, q, elements=st.floats(1.1, 2.0))))
    x0 = data.draw(arrays(float, q, elements=st.floats(-0.5, 0.5)))
    lo, hi = -np.ones(q), np.ones(q)
    target = np.clip(c, lo, hi)
    objective = _Quadratic(a, c)

    (x, *_, converged, message), _, _ = estimator._drive(
        estimator._bfgs, objective, x0, lo, hi)
    assert converged or message in ("max_iter", "max_evals", "line_search")
    assert np.max(np.abs(x - target)) <= 1e-6

    (x, *_, converged, message), _, _ = estimator._drive(
        estimator._projected_newton, objective, x0, lo, hi)
    assert converged
    assert np.max(np.abs(x - target)) <= 1e-4
    face = ", ".join(f"theta:{i + 1}" for i in np.flatnonzero(outside))
    assert message == (f"decrement_at_bound ({face})" if face else "decrement")


@lru_cache(maxsize=None)
def _fit_case(name, index):
    """(rcov, spec, truth, box) of replication ``index`` of a bundled study,
    or of seed ``index`` of the bundled system with the bundled model."""
    if name == "system_p6k2":
        doc = load_json(bundled_config_path(name))
        rcov = realised_cov(simulate(sim_config_from_json(dict(doc, seed=index), path="")))
        spec, truth = model_from_json(load_json(bundled_config_path("model_p6k2")))
        spec = replace(spec, n=rcov.n, h=rcov.h)
        return rcov, spec, truth, default_bounds(rcov, spec)
    exp = experiment_from_json(load_json(bundled_config_path(name)))
    seed = replication_seed(exp.seed_base, index)
    return (realised_cov(simulate(exp.sim.with_seed(seed))), exp.spec, exp.truth,
            parameter_box(exp.spec, **exp.bounds_blocks))


@DERANDOMISED
@given(st.data())
def test_no_nearby_feasible_point_lowers_a_converged_fit(data):
    # fits of both minimisers that the driver calls converged, as the studies
    # and the CLI run them (BFGS from the truth, Newton from the default
    # start at any other count), under the default iteration cap or a
    # smaller one: no feasible point along 20 random directions within a
    # small radius lowers F by more than the stationarity tolerance
    name = data.draw(st.sampled_from(["table6_nonergodic", "ergodic_scaled",
                                      "system_p6k2"]))
    rcov, spec, truth, box = _fit_case(name, data.draw(st.integers(0, 7)))
    k = data.draw(st.sampled_from([2, 1]))
    if k != spec.k:
        spec, truth = replace(spec, k=k), None
        box = default_bounds(rcov, spec)
    if truth is not None and data.draw(st.booleans()):
        truth = None  # Newton from the default start at the generating count
    cap = data.draw(st.sampled_from([estimator._MAX_ITER, 10, 3, 1]))
    with patch.object(estimator, "_MAX_ITER", cap):
        res = estimator.fit(rcov, spec, init=truth, bounds=box)
    if not res.converged:
        return
    x, f = res.theta, res.contrast
    objective = _Contrast(rcov.q, spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tol = (estimator._DECREMENT_TOL + 64 * np.finfo(float).eps) * (1.0 + abs(f))
    for u in rng.standard_normal((20, x.size)):
        u *= (1.0 + np.abs(x)) / np.linalg.norm(u)
        for radius in (1e-7, 1e-5, 1e-3):
            y = np.clip(x + radius * u, box[:, 0], box[:, 1])
            f_y = objective.value(y)[0]
            assert f_y >= f - tol, (name, k, cap, res.message, radius, f - f_y)
