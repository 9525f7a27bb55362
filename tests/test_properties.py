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
    duplication_pinv,
    pack,
    sigma_of_theta,
    unpack,
    vech,
)
from diffusionfa.estimator import _Contrast
from diffusionfa.model import sigma_gradient_contract

BOUNDED = settings(max_examples=60, deadline=None)


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


def positive_definite_problem(data, max_p):
    """A drawn spec with parameters and Q, both giving positive-definite
    matrices."""
    spec = data.draw(specs(max_p=max_p))
    p, k = spec.p, spec.k
    chol = data.draw(matrices((k, k), 2.0))
    params = ParamVector(a=data.draw(matrices((p - k, k), 2.0)),
                         sigma_ff=chol @ chol.T + 0.1 * np.eye(k),
                         sigma_ee=data.draw(arrays(float, p,
                                                   elements=st.floats(0.5, 4.0))))
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
