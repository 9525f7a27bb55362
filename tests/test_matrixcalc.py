import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from diffusionfa import duplication, duplication_pinv, unvech, vec, vech
from diffusionfa.matrixcalc import eigh, inverse_cholesky, require_symmetric, unvec

from conftest import SIGMA_FF_TRUE, SIGMA_TRUE


def random_symmetric(rng, p):
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def test_vec_column_stacking():
    assert np.array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])
    assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])
    assert np.array_equal(vec(SIGMA_FF_TRUE), [13, 13, 13, 26])


def test_unvec_roundtrip():
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(unvec(vec(m), 3, 4), m)


def test_vech_lower_triangle_column_order():
    assert np.array_equal(vech(SIGMA_FF_TRUE), [13, 13, 26])
    assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])
    assert np.array_equal(vech(np.zeros((4, 4))), np.zeros(10))


def test_vech_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        vech([[1.0, 2.0], [0.0, 1.0]])


def test_symmetrize_within_tolerance():
    a = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    out = require_symmetric(a)
    assert np.array_equal(out, out.T)


def test_vech_unvech_roundtrip_exact():
    rng = np.random.default_rng(3)
    for p in range(1, 7):
        a = random_symmetric(rng, p)
        assert np.array_equal(unvech(vech(a)), a)


def test_duplication_small_cases():
    assert np.array_equal(duplication(1), [[1.0]])
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.array_equal(duplication(2), expected)


def test_duplication_is_zero_one_with_single_unit_rows():
    for p in (2, 4, 6):
        d = duplication(p)
        assert set(np.unique(d)) <= {0.0, 1.0}
        assert np.array_equal(d.sum(axis=1), np.ones(p * p))


def test_duplication_defining_equation_randomized():
    rng = np.random.default_rng(11)
    d = duplication(6)
    for _ in range(100):
        a = random_symmetric(rng, 6)
        assert np.allclose(d @ vech(a), vec(a), rtol=0, atol=1e-12)


def test_duplication_refuses_a_dimension_below_one():
    for p in (0, -1):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            duplication(p)


def test_duplication_pinv_small_cases():
    assert np.array_equal(duplication_pinv(1), [[1.0]])
    expected = np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]])
    assert np.allclose(duplication_pinv(2), expected, rtol=0, atol=1e-15)


def test_duplication_pinv_recovers_vech_of_benchmark_sigma():
    assert np.allclose(duplication_pinv(6) @ vec(SIGMA_TRUE), vech(SIGMA_TRUE),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", range(1, 9))
def test_duplication_identities_all_dims(p):
    rng = np.random.default_rng(100 + p)
    d = duplication(p)
    pinv = duplication_pinv(p)
    assert np.allclose(pinv @ d, np.eye(p * (p + 1) // 2), rtol=0, atol=1e-12)
    for _ in range(100):
        a = random_symmetric(rng, p)
        assert np.allclose(d @ vech(a), vec(a), rtol=0, atol=1e-12)
        assert np.allclose(pinv @ vec(a), vech(a), rtol=0, atol=1e-12)


# matrixcalc calls numpy.linalg's private LAPACK gufuncs; these hold each
# direct call to the bits of its public function, so a numpy upgrade that
# changed them fails here instead of moving a fit
@pytest.mark.parametrize("p", [6, 20, 40])
def test_direct_lapack_calls_equal_numpy_linalg(p):
    m = np.random.default_rng(500 + p).standard_normal((p, p))
    a = m @ m.T + p * np.eye(p)
    chol = _umath_linalg.cholesky_lo(a, signature="d->d")
    assert np.array_equal(chol, np.linalg.cholesky(a))
    assert np.array_equal(_umath_linalg.inv(chol, signature="d->d"), np.linalg.inv(chol))
    assert np.array_equal(inverse_cholesky(a), np.linalg.inv(np.linalg.cholesky(a)))


@pytest.mark.parametrize("q", [13, 17])
def test_direct_eigh_equals_numpy_linalg(q):
    h = random_symmetric(np.random.default_rng(600 + q), q)  # indefinite, as a Hessian
    w, v = eigh(h)
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("entry", [(0, 0), (3, 3), (5, 0), (0, 5)])
@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_inverse_cholesky_is_none_exactly_where_numpy_raises(entry, value):
    a = SIGMA_TRUE.copy()
    a[entry] = value
    try:
        expected = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        expected = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = inverse_cholesky(a)
    assert caught == []
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(got, expected, equal_nan=True)


def test_inverse_cholesky_leaves_the_caller_error_state():
    # the decorator's error state holds inside the call alone, whatever the
    # caller's, and a failure is still None under a caller that raises on all
    indefinite = SIGMA_TRUE.copy()
    indefinite[0, 0] = -1.0
    before = np.geterr()
    assert inverse_cholesky(SIGMA_TRUE) is not None
    assert np.geterr() == before
    assert inverse_cholesky(indefinite) is None
    assert np.geterr() == before
    with np.errstate(all="raise"):
        raising = np.geterr()
        assert inverse_cholesky(indefinite) is None
        assert np.geterr() == raising
        assert inverse_cholesky(SIGMA_TRUE) is not None
        assert np.geterr() == raising
    assert np.geterr() == before
