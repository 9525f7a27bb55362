import numpy as np
import pytest

from diffusionfa import (
    ModelSpec,
    ParamVector,
    WeightMatrixError,
    loading_matrix,
    pack,
    sigma_of_theta,
    unpack,
    vech,
    weight_matrix,
)
from diffusionfa.estimator import RealisedCov, fit
from diffusionfa.matrixcalc import duplication_pinv

from conftest import SIGMA_TRUE, THETA_TRUE, make_spec
from oracles import delta_jacobian, sigma_gradient_contract, sigma_gradient_stack


def random_params(rng, p, k):
    a = rng.standard_normal((p - k, k))
    s = rng.standard_normal((k, k))
    return ParamVector(a=a, sigma_ff=s @ s.T + 0.5 * np.eye(k),
                       sigma_ee=rng.uniform(0.5, 3.0, p))


def test_model_spec_dimensions():
    spec = make_spec()
    assert spec.q == 17
    assert spec.pbar == 21
    assert spec.df == 4
    assert ModelSpec(p=6, k=1).q == 12
    assert ModelSpec(p=6, k=1).df == 9
    assert not ModelSpec(p=6, k=3).testable


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(p=6, k=0)
    with pytest.raises(ValueError):
        ModelSpec(p=6, k=6)


def test_pack_benchmark_order(truth):
    assert np.array_equal(pack(truth), THETA_TRUE)


def test_pack_minimal_case():
    params = ParamVector(a=[[0.0]], sigma_ff=[[1.0]], sigma_ee=[1.0, 1.0])
    assert np.array_equal(pack(params), [0, 1, 1, 1])


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.integers(2, 8)
        k = rng.integers(1, p)
        spec = ModelSpec(p=int(p), k=int(k))
        v = rng.standard_normal(spec.q)
        v[-p:] = np.abs(v[-p:]) + 0.1
        assert np.array_equal(pack(unpack(v, spec)), v)
        params = random_params(rng, int(p), int(k))
        out = unpack(pack(params), spec)
        assert np.array_equal(out.a, params.a)
        assert np.array_equal(out.sigma_ff, params.sigma_ff)
        assert np.array_equal(out.sigma_ee, params.sigma_ee)


def test_unpack_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        unpack(np.zeros(5), make_spec())


def test_param_vector_accepts_non_positive_unique_variances():
    # only shapes are checked; fits report the Heywood case instead
    params = ParamVector(a=[[0.0]], sigma_ff=[[1.0]], sigma_ee=[0.0, -2.0])
    assert list(params.sigma_ee) == [0.0, -2.0]
    with pytest.raises(ValueError, match="length"):
        ParamVector(a=[[0.0]], sigma_ff=[[1.0]], sigma_ee=[1.0])


def test_loading_matrix_structure(truth):
    lam = loading_matrix(truth)
    expected = np.vstack([np.eye(2),
                          [[3, 1], [1, 5], [7, -4], [-3, 2]]])
    assert np.array_equal(lam, expected)


def test_loading_matrix_near_full_rank_case():
    params = ParamVector(a=np.zeros((1, 3)), sigma_ff=np.eye(3),
                         sigma_ee=np.ones(4))
    assert np.array_equal(loading_matrix(params),
                          np.vstack([np.eye(3), np.zeros((1, 3))]))


def test_loading_matrix_block_roundtrip():
    rng = np.random.default_rng(9)
    params = random_params(rng, 5, 2)
    lam = loading_matrix(params)
    assert np.array_equal(lam[:2], np.eye(2))
    assert np.array_equal(lam[2:], params.a)


def test_sigma_of_theta_benchmark_exact(truth):
    assert np.array_equal(sigma_of_theta(truth), SIGMA_TRUE)


def test_sigma_of_theta_block_structure():
    params = ParamVector(a=np.zeros((3, 2)), sigma_ff=np.eye(2),
                         sigma_ee=np.ones(5))
    sigma = sigma_of_theta(params)
    expected = np.eye(5)
    expected[0, 0] = expected[1, 1] = 2.0
    assert np.array_equal(sigma, expected)


def test_sigma_of_theta_matches_triple_loop():
    rng = np.random.default_rng(4)
    params = random_params(rng, 5, 2)
    lam = loading_matrix(params)
    p, k = 5, 2
    expected = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            for u in range(k):
                for v in range(k):
                    expected[i, j] += lam[i, u] * params.sigma_ff[u, v] * lam[j, v]
    expected += np.diag(params.sigma_ee)
    assert np.allclose(sigma_of_theta(params), expected, rtol=0, atol=1e-12)


def test_sigma_positive_definite_for_valid_params():
    rng = np.random.default_rng(17)
    for _ in range(25):
        params = random_params(rng, 6, 2)
        assert np.linalg.eigvalsh(sigma_of_theta(params))[0] > 0


def test_weight_matrix_identity_case():
    assert np.allclose(weight_matrix(np.eye(2)), np.diag([2.0, 1.0, 2.0]),
                       rtol=0, atol=1e-14)


def test_weight_matrix_scaling():
    w1 = weight_matrix(np.eye(4))
    w3 = weight_matrix(3.0 * np.eye(4))
    assert np.allclose(w3, 9.0 * w1, rtol=0, atol=1e-12)


def test_weight_matrix_entry_formula_random():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = int(rng.integers(2, 6))
        m = rng.standard_normal((p, p))
        sigma = m @ m.T + p * np.eye(p)
        w = weight_matrix(sigma)
        pairs = [(i, j) for j in range(p) for i in range(j, p)]
        for r, (i, j) in enumerate(pairs):
            for c, (k, l) in enumerate(pairs):
                expected = sigma[i, k] * sigma[j, l] + sigma[i, l] * sigma[j, k]
                assert w[r, c] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("p", list(range(1, 9)) + [20])
def test_weight_matrix_matches_kronecker_definition(p):
    # the entry formula against 2 pinv(D) (Sigma x Sigma) pinv(D)^T, bit for bit
    rng = np.random.default_rng(100 + p)
    m = rng.standard_normal((p, p))
    sigma = m @ m.T + p * np.eye(p)
    sigma = (sigma + sigma.T) / 2.0
    dp = duplication_pinv(p)
    w = weight_matrix(sigma)
    assert np.array_equal(w, 2.0 * dp @ np.kron(sigma, sigma) @ dp.T)
    assert np.array_equal(w, w.T)


def test_weight_matrix_benchmark_leading_entry(truth):
    w = weight_matrix(sigma_of_theta(truth))
    assert w[0, 0] == pytest.approx(2 * 17.0**2, abs=1e-9)
    assert np.sqrt(w[0, 0] / 1e6) == pytest.approx(0.024, abs=5e-4)


def test_weight_matrix_rejects_non_pd():
    with pytest.raises(WeightMatrixError):
        weight_matrix(np.diag([1.0, -1.0]))


def test_delta_jacobian_unique_variance_columns(truth):
    spec = make_spec()
    delta = delta_jacobian(truth)
    sigma = sigma_of_theta(truth)
    for i in range(6):
        e = np.zeros((6, 6))
        e[i, i] = 1.0
        col = delta[:, 11 + i]
        assert np.array_equal(col, vech(e))
    assert delta.shape == (spec.pbar, spec.q)


def test_delta_jacobian_matches_finite_differences(truth):
    spec = make_spec()
    theta = pack(truth)
    delta = delta_jacobian(truth)
    fd = np.zeros_like(delta)
    for j in range(spec.q):
        step = 1e-6 * (1 + abs(theta[j]))
        up = theta.copy()
        up[j] += step
        dn = theta.copy()
        dn[j] -= step
        fd[:, j] = (vech(sigma_of_theta(unpack(up, spec)))
                    - vech(sigma_of_theta(unpack(dn, spec)))) / (2 * step)
    scale = 1.0 + np.abs(fd)
    assert np.max(np.abs(delta - fd) / scale) < 1e-6


def test_delta_jacobian_fd_random_points():
    rng = np.random.default_rng(23)
    for p, k in [(3, 1), (6, 2)]:
        spec = ModelSpec(p=p, k=k)
        for _ in range(10):
            params = random_params(rng, p, k)
            theta = pack(params)
            delta = delta_jacobian(params)
            fd = np.zeros_like(delta)
            for j in range(spec.q):
                step = 1e-6 * (1 + abs(theta[j]))
                up = theta.copy()
                up[j] += step
                dn = theta.copy()
                dn[j] -= step
                fd[:, j] = (vech(sigma_of_theta(unpack(up, spec)))
                            - vech(sigma_of_theta(unpack(dn, spec)))) / (2 * step)
            assert np.max(np.abs(delta - fd) / (1.0 + np.abs(fd))) < 1e-5


def test_delta_jacobian_full_rank_at_benchmark(truth):
    assert np.linalg.matrix_rank(delta_jacobian(truth)) == 17


def test_sigma_gradient_contract_matches_stack():
    # the dense (q, p, p) stack is the reference for the O(p^2 k) chain rule
    rng = np.random.default_rng(24)
    for p, k in [(2, 1), (3, 1), (6, 2), (12, 3), (20, 3)]:
        params = random_params(rng, p, k)
        g = rng.standard_normal((p, p))
        expected = np.einsum("ipq,pq->i", sigma_gradient_stack(params), g)
        got = sigma_gradient_contract(params, g)
        assert got.shape == (ModelSpec(p=p, k=k).q,)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_sigma_ff_heywood_diagnostic():
    # an indefinite Sigma_ff with Sigma(theta) PD: a fit started there stays
    # there (zero residual) and reports the negative eigenvalue
    params = ParamVector(a=np.zeros((3, 2)),
                         sigma_ff=[[1.0, 2.0], [2.0, 1.0]],
                         sigma_ee=2.0 * np.ones(5))
    rcov = RealisedCov(q=sigma_of_theta(params), n=1000, h=1e-3)
    res = fit(rcov, ModelSpec(p=5, k=2, n=1000, h=1e-3), init=params,
              bounds=np.tile([-30.0, 30.0], (14, 1)))
    assert res.contrast == 0.0
    assert res.sigma_ff_min_eig == pytest.approx(-1.0)
