"""Property tests over drawn dimensions and parameters (hypothesis).

Each test bounds its own example count and has no deadline, so the file
runs in a few seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffusionfa import (
    ModelSpec,
    ParamVector,
    RealisedCov,
    contrast,
    delta_jacobian,
    duplication_pinv,
    pack,
    sigma_of_theta,
    unpack,
    vech,
)
from diffusionfa.estimator import _Contrast, _pg_norm
from diffusionfa.matrixcalc import vech_indices
from diffusionfa.model import loading_matrix, sigma_derivative_factors

import oracles
from oracles import contrast_hessian, sigma_gradient_contract, sigma_gradient_stack

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
    # the composition through ParamVector: Sigma(theta), one Cholesky
    # factor, the closed form and the chain rule
    sigma = sigma_of_theta(params)
    chol_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    s = chol_inv.T @ chol_inv
    sr = s @ (rcov.q - sigma)
    srs = sr @ s
    f = 0.5 * float(np.sum(sr * sr.T))
    grad = sigma_gradient_contract(params, -(srs + sr @ srs))

    x = pack(params)
    objective = _Contrast(rcov, spec)
    f_x, grad_x = objective(x)
    assert f_x == f
    assert np.array_equal(grad_x, grad)
    # the Hessian reuses the factorisation of the last point evaluated only
    # when that point is x
    cached = objective.hessian(x)
    objective(x + 1e-3)
    assert np.array_equal(cached, objective.hessian(x))
    assert np.array_equal(cached, _Contrast(rcov, spec).hessian(x))


@DERANDOMISED
@given(st.data())
def test_rank2_hessian_and_delta_match_the_stack_oracle(data):
    # both consumers of sigma_derivative_factors against the dense
    # (q, p, p) stack of dSigma/dtheta
    spec, params, rcov = positive_definite_problem(data, max_p=12)
    hess = _Contrast(rcov, spec).hessian(pack(params))
    oracle = contrast_hessian(rcov, params)
    assert np.max(np.abs(hess - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    rows, cols = vech_indices(spec.p)
    assert np.array_equal(delta_jacobian(params),
                          sigma_gradient_stack(params)[:, rows, cols].T)


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
    # the cached S, G and index maps of one objective carry nothing from one
    # point to the next, whichever point it evaluated last
    spec, params, rcov = positive_definite_problem(data, max_p=7)
    points = [pack(params)] + [pack(positive_definite_params(data, spec))
                               for _ in range(data.draw(st.integers(1, 3)))]
    objective = _Contrast(rcov, spec)
    for x in points + points[:1]:
        assert np.array_equal(objective.hessian(x), _Contrast(rcov, spec).hessian(x))
        objective(points[-1])


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
