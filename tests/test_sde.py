import io
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from diffusionfa import (
    DriftSpec,
    SimConfig,
    SimulationError,
    implied_params,
    loading_matrix,
    path_from_binary,
    path_from_csv,
    path_to_binary,
    path_to_csv,
    realised_cov,
    sigma_of_theta,
    simulate,
)
from diffusionfa import sde
from diffusionfa.sde import _affine_scan, _rng_streams

from conftest import (
    A_TRUE,
    FACTOR_B,
    FACTOR_MU,
    FACTOR_S,
    UNIQUE_B,
    UNIQUE_SIGMA,
    make_sim_config,
    make_spec,
)
from oracles import exact_ou_transition


def series_expm(a, terms=60):
    # scaling-and-squaring Taylor oracle, independent of scipy
    a = np.asarray(a, dtype=float)
    s = 0
    norm = np.max(np.abs(a))
    while norm > 0.25:
        a = a / 2.0
        norm /= 2.0
        s += 1
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ a / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_degenerate_diffusion_constant_path():
    cfg = SimConfig(
        spec=make_spec(n=50),
        a=A_TRUE,
        factor_drift=DriftSpec.linear_ou(np.zeros((2, 2)), np.zeros(2)),
        factor_dispersion=np.zeros((2, 2)),
        unique_drifts=tuple(DriftSpec.linear_ou(0.0, 0.0) for _ in range(6)),
        unique_dispersions=np.zeros(6),
        f0=[3.0, 5.0],
        e0=np.ones(6),
        seed=1,
    )
    path = simulate(cfg, keep_latent=True)
    expected = loading_matrix(implied_params(cfg)) @ np.array([3.0, 5.0]) + 1.0
    assert np.array_equal(path.x, np.tile(expected, (51, 1)))


def test_latent_identity_holds_exactly(sim_config):
    path = simulate(sim_config.with_seed(5), keep_latent=True)
    lam = loading_matrix(implied_params(sim_config))
    assert np.array_equal(path.x, path.f @ lam.T + path.e)


def test_seed_determinism(sim_config):
    a = simulate(sim_config.with_seed(9))
    b = simulate(sim_config.with_seed(9))
    assert np.array_equal(a.x, b.x)
    c = simulate(sim_config.with_seed(10))
    assert not np.allclose(a.x[1], c.x[1])


def test_factor_stream_independent_of_p():
    # same seed, system extended by one observed coordinate: the factor
    # path must not move (disjoint named substreams)
    base = make_sim_config(n=100, seed=33)
    spec7 = type(base.spec)(p=7, k=2, n=100, h=1e-3)
    bigger = SimConfig(
        spec=spec7,
        a=np.vstack([A_TRUE, [1.0, 1.0]]),
        factor_drift=base.factor_drift,
        factor_dispersion=base.factor_dispersion,
        unique_drifts=base.unique_drifts + (DriftSpec.linear_ou(1.0, 0.0),),
        unique_dispersions=np.append(UNIQUE_SIGMA, 1.0),
        f0=base.f0,
        e0=np.zeros(7),
        seed=33,
    )
    small = simulate(base, keep_latent=True)
    large = simulate(bigger, keep_latent=True)
    assert np.array_equal(small.f, large.f)
    assert np.array_equal(small.e, large.e[:, :6])


@pytest.mark.parametrize("seed", [0, 77, 2**63 + 5])
def test_rng_streams_are_the_named_substreams(seed):
    # bitwise the streams spawned from a root SeedSequence's entropy
    entropy = np.random.SeedSequence(seed).entropy
    factor, uniques = _rng_streams(seed, 3)
    for g, key in zip((factor, *uniques), [(0,), (1, 0), (1, 1), (1, 2)]):
        named = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy, spawn_key=key)))
        assert np.array_equal(g.standard_normal(1000), named.standard_normal(1000))


def test_increment_covariance_approaches_structure(truth):
    cfg = make_sim_config(n=20000, h=1e-4, seed=7)
    path = simulate(cfg)
    rc = realised_cov(path)
    sigma = sigma_of_theta(truth)
    rel = np.linalg.norm(rc.q - sigma) / np.linalg.norm(sigma)
    assert rel < 0.1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulation_explosion_reports_step():
    cfg = make_sim_config(n=100, seed=2)
    bad = SimConfig(
        spec=cfg.spec,
        a=cfg.a,
        factor_drift=cfg.factor_drift,
        factor_dispersion=cfg.factor_dispersion,
        unique_drifts=(DriftSpec.custom(lambda e: 1e160 * (e + 1.0)),)
        + cfg.unique_drifts[1:],
        unique_dispersions=cfg.unique_dispersions,
        f0=cfg.f0,
        e0=cfg.e0,
        seed=2,
    )
    with pytest.raises(SimulationError) as err:
        simulate(bad)
    assert err.value.step >= 1


def test_simulation_error_pickles_with_step_and_message():
    # worker processes send it back to the parent of a parallel study
    err = pickle.loads(pickle.dumps(SimulationError(7, "replication 3: boom")))
    assert err.step == 7 and str(err) == "replication 3: boom"


def test_custom_drift_requires_callable():
    with pytest.raises(ValueError, match="callable"):
        DriftSpec.custom(2.0)
    with pytest.raises(ValueError, match="callable"):
        DriftSpec(kind="custom")


def _custom_twin(cfg):
    # the same linear drifts as callables, so simulate takes the Euler loop
    fb, fmu = cfg.factor_drift.b, cfg.factor_drift.mu
    return replace(
        cfg,
        factor_drift=DriftSpec.custom(lambda f: fmu - fb @ f),
        unique_drifts=tuple(
            DriftSpec.custom((lambda b: lambda e: -b * e)(float(d.b)))
            for d in cfg.unique_drifts))


def test_custom_drift_matches_linear_equivalent():
    cfg = make_sim_config(n=200, seed=12)
    custom = _custom_twin(cfg)
    assert np.allclose(simulate(cfg).x, simulate(custom).x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("substeps", [1, 3])
def test_mixed_custom_and_linear_drifts_match_linear_config(substeps):
    # one unique drift as a callable equal to its linear drift: the loop
    # overrides that block of mu - B z and must reproduce the linear path
    cfg = make_sim_config(n=500, seed=21, substeps=substeps)
    b = float(cfg.unique_drifts[2].b)
    mixed = replace(cfg, unique_drifts=cfg.unique_drifts[:2]
                    + (DriftSpec.custom(lambda e: -b * e),)
                    + cfg.unique_drifts[3:])
    linear, loop = simulate(cfg), simulate(mixed)
    assert np.max(np.abs(loop.x - linear.x)) <= 1e-12 * np.max(np.abs(linear.x))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 16, 17, 101, 4097, 10000])
def test_affine_scan_matches_recursion(m):
    # 4097 and 10000 recurse four levels, down to a block run directly.  I + step
    # can have an eigenvalue above 1 (1.026 at m = 10000), so the shifted step,
    # contracting like a simulated one, is checked too
    rng = np.random.default_rng(m)
    step = -0.1 * rng.uniform(size=(4, 4))
    z0 = rng.standard_normal(4)
    u = rng.standard_normal((m, 4))

    def fill(out):
        out[...] = u.T

    for a in (step, step - 0.2 * np.eye(4)):
        z, expected = z0, []
        for ut in u:
            z = z + a @ z + ut
            expected.append(z)
        assert np.allclose(_affine_scan(a, z0, m, fill).T, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("substeps", [1, 3])
def test_linear_ou_scan_matches_euler_loop(n, substeps):
    cfg = make_sim_config(n=n, seed=n + substeps, substeps=substeps)
    fast = simulate(cfg, keep_latent=True)
    loop = simulate(_custom_twin(cfg), keep_latent=True)
    tol = 1e-12 * np.max(np.abs(loop.x))
    for name in ("x", "f", "e"):
        assert np.max(np.abs(getattr(fast, name) - getattr(loop, name))) <= tol
    again = simulate(cfg, keep_latent=True)
    for name in ("x", "f", "e"):
        assert np.array_equal(getattr(fast, name), getattr(again, name))


def test_scan_across_noise_chunks_matches_euler_loop(monkeypatch):
    # 15,000 substeps in chunks of 3,999, the last one partial: each chunk
    # starts from the state the previous one left, on the same noise
    cfg = make_sim_config(n=5000, seed=41, substeps=3)
    whole = simulate(cfg, keep_latent=True)
    monkeypatch.setattr(sde, "_NOISE_CHUNK", 4000)
    fast = simulate(cfg, keep_latent=True)
    loop = simulate(_custom_twin(cfg), keep_latent=True)
    tol = 1e-12 * np.max(np.abs(loop.x))
    for name in ("x", "f", "e"):
        assert np.max(np.abs(getattr(fast, name) - getattr(loop, name))) <= tol
        assert np.max(np.abs(getattr(fast, name) - getattr(whole, name))) <= tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("substeps", [1, 3])
def test_explosive_linear_ou_reports_loop_step(substeps):
    # e1 grows by 1 + 1e4 delta per substep.  Near the float limit the
    # loop's b*e overflows a few steps before e itself would, so a path
    # that ends at the loop's failing step must still raise there
    cfg = make_sim_config(n=400, seed=8, substeps=substeps)
    cfg = replace(cfg, unique_drifts=(DriftSpec.linear_ou(-1e4, 0.0),)
                  + cfg.unique_drifts[1:])
    with pytest.raises(SimulationError) as err:
        simulate(_custom_twin(cfg))
    step = err.value.step
    assert 1 < step < 400
    cfg = replace(cfg, spec=replace(cfg.spec, n=step))
    for c in (cfg, _custom_twin(cfg)):
        with pytest.raises(SimulationError) as err:
            simulate(c)
        assert err.value.step == step


def test_exact_ou_transition_mean_matches_series_expm():
    h = 0.37
    phi, const, cov = exact_ou_transition(FACTOR_B, FACTOR_MU, FACTOR_S, h)
    phi_oracle = series_expm(-FACTOR_B * h)
    assert np.allclose(phi, phi_oracle, rtol=0, atol=1e-10)
    const_oracle = (np.eye(2) - phi_oracle) @ np.linalg.solve(FACTOR_B, FACTOR_MU)
    assert np.allclose(const, const_oracle, rtol=0, atol=1e-10)
    # covariance against brute-force quadrature of e^{-Bu} Q e^{-B'u}
    q = FACTOR_S @ FACTOR_S.T
    grid = np.linspace(0, h, 20001)
    acc = np.zeros((2, 2))
    for u0, u1 in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (u0 + u1)
        e = expm(-FACTOR_B * mid)
        acc += e @ q @ e.T * (u1 - u0)
    assert np.allclose(cov, acc, rtol=1e-6, atol=1e-8)


def test_exact_ou_transition_singular_drift_matrix():
    phi, const, cov = exact_ou_transition(np.zeros((2, 2)), [1.0, -2.0],
                                          np.eye(2), 0.5)
    assert np.allclose(phi, np.eye(2), rtol=0, atol=1e-14)
    assert np.allclose(const, [0.5, -1.0], rtol=0, atol=1e-12)
    assert np.allclose(cov, 0.5 * np.eye(2), rtol=0, atol=1e-12)


def test_exact_ou_transition_stiff_drift_matches_eigen_reference():
    # symmetric stiff B = V diag(l) V': cov = V [(V'QV)_ij (1 - e^{-(l_i+l_j)h})
    # / (l_i+l_j)] V'; a block exponential growing like e^{Bh} loses it
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = 20.0 * a @ a.T + np.diag([90.0, 5.0, 60.0])
    s = rng.standard_normal((3, 3))
    lam, v = np.linalg.eigh(b)
    for h in (1e-3, 0.5, 2.0):
        _, _, cov = exact_ou_transition(b, np.zeros(3), s, h)
        rates = lam[:, None] + lam[None, :]
        ref = v @ (v.T @ s @ s.T @ v * -np.expm1(-rates * h) / rates) @ v.T
        assert np.max(np.abs(cov - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_euler_with_substeps_tracks_exact_transition(truth):
    # same driving noise: Euler(substeps=10) vs the exact OU transitions
    # fed with per-observation aggregated normals; realised covariances
    # must agree to 1% relative
    n, h, sub = 10000, 1e-3, 10
    cfg = make_sim_config(n=n, h=h, seed=99, substeps=sub)
    path = simulate(cfg)
    rc_euler = realised_cov(path).q

    rng_f, rng_e = _rng_streams(99, 6)
    xi_f = rng_f.standard_normal((n * sub, 2)).reshape(n, sub, 2)
    xi_e = np.stack([g.standard_normal(n * sub).reshape(n, sub) for g in rng_e],
                    axis=2)
    zf = xi_f.sum(axis=1) / np.sqrt(sub)
    ze = xi_e.sum(axis=1) / np.sqrt(sub)

    phi_f, c_f, cov_f = exact_ou_transition(FACTOR_B, FACTOR_MU, FACTOR_S, h)
    lf = np.linalg.cholesky(cov_f)
    phis = np.exp(-UNIQUE_B * h)
    sds = np.sqrt(UNIQUE_SIGMA**2 * (1 - np.exp(-2 * UNIQUE_B * h)) / (2 * UNIQUE_B))
    f = np.array([3.0, 5.0])
    e = np.zeros(6)
    lam = loading_matrix(truth)
    x = np.empty((n + 1, 6))
    x[0] = lam @ f + e
    for i in range(n):
        f = phi_f @ f + c_f + lf @ zf[i]
        e = phis * e + sds * ze[i]
        x[i + 1] = lam @ f + e
    rc_exact = np.diff(x, axis=0).T @ np.diff(x, axis=0) / (n * h)
    rel = np.linalg.norm(rc_euler - rc_exact) / np.linalg.norm(rc_exact)
    assert rel < 1e-2


def test_csv_roundtrip(sim_config):
    path = simulate(make_sim_config(n=20, seed=3), keep_latent=True)
    buf = io.StringIO()
    path_to_csv(path, buf)
    buf.seek(0)
    header = buf.readline().strip()
    assert header == ("t," + ",".join(f"x{i}" for i in range(1, 7))
                      + ",f1,f2," + ",".join(f"e{i}" for i in range(1, 7)))
    buf.seek(0)
    back = path_from_csv(buf)
    assert np.array_equal(back.x, path.x)
    assert np.array_equal(back.f, path.f)
    assert np.array_equal(back.e, path.e)


def test_binary_roundtrip_bitwise(sim_config):
    path = simulate(make_sim_config(n=17, seed=4), keep_latent=True)
    buf = io.BytesIO()
    path_to_binary(path, buf)
    buf.seek(0)
    back = path_from_binary(buf)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.x, path.x)
    assert np.array_equal(back.f, path.f)
    assert np.array_equal(back.e, path.e)
    buf2 = io.BytesIO()
    path_to_binary(back, buf2)
    assert buf.getvalue() == buf2.getvalue()


@pytest.mark.parametrize("keep, name", [(20, "header"), (28 + 8 * 16, "times"),
                                        (28 + 8 * 17 * 2, "x"),
                                        (28 + 8 * 17 * 7 + 8, "f"),
                                        (28 + 8 * 17 * 9 + 8, "e")])
def test_binary_truncation_names_the_array(keep, name):
    path = simulate(make_sim_config(n=16, seed=4), keep_latent=True)
    buf = io.BytesIO()
    path_to_binary(path, buf)
    with pytest.raises(ValueError, match=f"truncated sample-path container: {name} "):
        path_from_binary(io.BytesIO(buf.getvalue()[:keep]))


def test_binary_rejects_foreign_data():
    with pytest.raises(ValueError, match="container"):
        path_from_binary(io.BytesIO(b"nope" + b"\0" * 64))
