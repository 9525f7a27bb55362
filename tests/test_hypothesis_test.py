from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from diffusionfa import (
    ModelSpec,
    ParamVector,
    RealisedCov,
    UntestableError,
    chi2_quantile,
    chi2_sf,
    max_testable_k,
    select_k,
    sigma_of_theta,
)
from diffusionfa.config import bundled_config_path, load_json
from diffusionfa.estimator import realised_cov
from diffusionfa.hypothesis_test import test_k as run_count_test
from diffusionfa.montecarlo import experiment_from_json
from diffusionfa.sde import simulate

from conftest import SIGMA_TRUE, make_spec


def test_chi2_quantile_reference_points():
    assert chi2_quantile(10, 0.05) == pytest.approx(18.307, abs=1e-3)
    assert chi2_quantile(4, 0.05) == pytest.approx(9.488, abs=1e-3)


def test_chi2_sf_boundary():
    for df in (1, 3, 10):
        assert chi2_sf(df, 0.0) == 1.0


def test_chi2_against_scipy_oracle():
    for df in (1, 2, 3, 4, 9, 10, 21, 50):
        for x in (0.1, 0.5, 1.0, 4.0, 9.5, 25.0, 80.0, 200.0):
            ours = chi2_sf(df, x)
            ref = stats.chi2.sf(x, df)
            if ref > 1e-290:
                assert ours == pytest.approx(ref, rel=1e-9)
        for alpha in (0.9, 0.5, 0.1, 0.05, 0.01, 1e-4):
            assert chi2_quantile(df, alpha) == pytest.approx(
                stats.chi2.isf(alpha, df), rel=1e-9)


def test_chi2_domain_errors():
    with pytest.raises(ValueError):
        chi2_quantile(0, 0.05)
    with pytest.raises(ValueError):
        chi2_quantile(4, 0.0)
    with pytest.raises(ValueError):
        chi2_sf(4, -1.0)


def test_degrees_of_freedom_by_count():
    rc = RealisedCov(q=SIGMA_TRUE, n=10**6, h=1e-4)
    spec = make_spec(n=10**6, h=1e-4)
    t2 = run_count_test(rc, spec, 2)
    assert t2.df == 4
    t1 = run_count_test(rc, spec, 1)
    assert t1.df == 9  # p(p+1)/2 - q_1 from the counting formula


def test_statistic_is_n_times_contrast(truth):
    rc = RealisedCov(q=SIGMA_TRUE + np.diag(np.full(6, 0.5)), n=2000, h=1e-3)
    out = run_count_test(rc, make_spec(n=2000), 2, init=truth)
    from diffusionfa import contrast

    assert out.statistic == rc.n * out.fit.contrast
    assert out.statistic == pytest.approx(
        rc.n * contrast(rc, out.fit.theta_hat), rel=1e-12)


def test_exact_structure_never_rejects(truth):
    rc = RealisedCov(q=SIGMA_TRUE, n=10**6, h=1e-4)
    out = run_count_test(rc, make_spec(n=10**6, h=1e-4), 2, init=truth)
    assert out.statistic == pytest.approx(0.0, abs=1e-6)
    assert not out.reject
    assert out.p_value == pytest.approx(1.0, abs=1e-9)


def test_untestable_count_raises():
    rc = RealisedCov(q=SIGMA_TRUE, n=1000, h=1e-3)
    with pytest.raises(UntestableError):
        run_count_test(rc, make_spec(), 3)


def test_max_testable_k():
    assert max_testable_k(6) == 2
    assert max_testable_k(4) == 1


def test_select_on_two_factor_structure(truth):
    # exact two-factor covariance: k=1 rejected, k=2 accepted
    rc = RealisedCov(q=SIGMA_TRUE, n=10**6, h=1e-4)
    sel = select_k(rc, make_spec(n=10**6, h=1e-4))
    assert sel.chosen_k == 2
    assert [t.k_star for t in sel.trail] == [1, 2]
    assert sel.trail[0].reject
    assert not sel.trail[1].reject
    assert sel.trail[0].statistic > 1000


def test_select_on_one_factor_structure():
    params = ParamVector(a=np.array([[2.0], [1.0], [-1.0], [0.5], [3.0]]),
                         sigma_ff=[[4.0]],
                         sigma_ee=np.array([1.0, 2.0, 1.5, 0.5, 1.0, 2.5]))
    sigma = sigma_of_theta(params)
    rc = RealisedCov(q=sigma, n=10**6, h=1e-4)
    sel = select_k(rc, ModelSpec(p=6, k=1, n=10**6, h=1e-4))
    assert sel.chosen_k == 1
    assert len(sel.trail) == 1


def test_select_exhaustion_means_no_structure():
    # a generic PD matrix fits no low-rank-plus-diagonal structure: at large
    # n every testable count is rejected
    rng = np.random.default_rng(14)
    m = rng.standard_normal((6, 6))
    q = m @ m.T + 6 * np.eye(6)
    rc = RealisedCov(q=q, n=10**7, h=1e-5)
    sel = select_k(rc, ModelSpec(p=6, k=1, n=10**7, h=1e-5))
    assert sel.chosen_k is None
    assert [t.k_star for t in sel.trail] == [1, 2]
    assert all(t.reject for t in sel.trail)


def test_selection_never_tests_untestable_counts():
    rc = RealisedCov(q=np.eye(4), n=1000, h=1e-3)
    sel = select_k(rc, ModelSpec(p=4, k=1, n=1000, h=1e-3))
    assert all(t.k_star <= max_testable_k(4) for t in sel.trail)


def test_start_of_another_count_is_ignored(truth):
    # the truth has two factors, so the k=1 fit takes the default start in
    # the default box; a box of the wrong shape would make fit() raise
    rc = RealisedCov(q=SIGMA_TRUE + np.diag(np.full(6, 0.5)), n=2000, h=1e-3)
    plain = run_count_test(rc, make_spec(n=2000), 1)
    started = run_count_test(rc, make_spec(n=2000), 1, init=truth,
                             bounds=np.zeros((3, 2)))
    assert started.statistic == plain.statistic
    assert np.array_equal(started.fit.theta, plain.fit.theta)
    assert started.fit.iterations == plain.fit.iterations
    assert started.fit.message == plain.fit.message


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_statistic_is_equivariant_under_non_anchor_permutations(seed):
    # relabelling the coordinates k..p-1 relabels the parameters of the
    # k-factor model, so T from the default start must not move
    sim = experiment_from_json(load_json(bundled_config_path("table6_nonergodic"))).sim
    rc = realised_cov(simulate(replace(sim, seed=seed)))
    rng = np.random.default_rng(seed)
    for k in (1, sim.spec.k):
        order = np.concatenate([np.arange(k), k + rng.permutation(rc.p - k)])
        permuted = RealisedCov(q=rc.q[np.ix_(order, order)], n=rc.n, h=rc.h)
        plain = run_count_test(rc, sim.spec, k).statistic
        assert run_count_test(permuted, sim.spec, k).statistic == pytest.approx(
            plain, rel=1e-8)
