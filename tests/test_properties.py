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


@BOUNDED
@given(st.data())
def test_contrast_equals_kronecker_duplication_oracle(data):
    # r' W^{-1} r with W = 2 pinv(D) (Sigma x Sigma) pinv(D)^T built from
    # np.kron, on positive-definite Sigma(theta) and Q
    spec = data.draw(specs(max_p=6))
    p, k = spec.p, spec.k
    chol = data.draw(matrices((k, k), 2.0))
    params = ParamVector(a=data.draw(matrices((p - k, k), 2.0)),
                         sigma_ff=chol @ chol.T + 0.1 * np.eye(k),
                         sigma_ee=data.draw(arrays(float, p,
                                                   elements=st.floats(0.5, 4.0))))
    m = data.draw(matrices((p, p), 2.0))
    rcov = RealisedCov(q=m @ m.T + p * np.eye(p), n=1000, h=1e-3)
    sigma = sigma_of_theta(params)
    dp = duplication_pinv(p)
    w = 2.0 * dp @ np.kron(sigma, sigma) @ dp.T
    r = vech(rcov.q) - vech(sigma)
    oracle = r @ np.linalg.solve(w, r)
    assert abs(contrast(rcov, params) - oracle) <= 1e-10 * abs(oracle)
