"""Acceptance suite: each test exercises one numbered criterion at its
stated tolerance and prints a single PASS line when it holds.

The two replication studies (non-ergodic n=1000 with both factor counts,
scaled long-horizon n=10000) are executed once per session and shared.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest
from scipy import stats

from diffusionfa import (
    ModelSpec,
    contrast,
    contrast_grad,
    duplication,
    duplication_pinv,
    pack,
    run,
    sigma_of_theta,
    theoretical_sd_table,
    unpack,
    vec,
    vech,
    write_outputs,
)
from diffusionfa.config import bundled_config_path, load_json
from diffusionfa.estimator import RealisedCov
from diffusionfa.montecarlo import Experiment, experiment_from_json
from diffusionfa.sde import implied_params

from conftest import SIGMA_TRUE, make_sim_config, make_spec

# Reference values for the vech entries of the increment covariance at
# n = 10^6 (theoretical column, 3 printed decimals), in lower-triangle
# column-major order.
RCOV_SD_REFERENCE = np.array([
    0.024, 0.030, 0.083, 0.140, 0.085, 0.037,
    0.059, 0.121, 0.232, 0.119, 0.055,
    0.348, 0.581, 0.305, 0.133,
    1.123, 0.516, 0.240,
    0.472, 0.209,
    0.098,
])


@pytest.fixture(scope="module")
def nonergodic_run():
    doc = load_json(bundled_config_path("table6_nonergodic"))
    exp = experiment_from_json(doc)
    assert exp.replications == 1000
    return run(exp, n_jobs=2)


@pytest.fixture(scope="module")
def ergodic_scaled_run():
    doc = load_json(bundled_config_path("ergodic_scaled"))
    exp = experiment_from_json(doc)
    assert exp.replications == 500
    return run(exp, n_jobs=2)


def _rows(agg):
    return {r.name: r for r in agg.rcov_rows + agg.theta_rows + agg.tstat_rows}


def test_criterion_01_matrix_calculus_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for p in range(1, 9):
        d = duplication(p)
        pinv = duplication_pinv(p)
        assert np.max(np.abs(pinv @ d - np.eye(p * (p + 1) // 2))) <= 1e-12
        for _ in range(100):
            m = rng.standard_normal((p, p))
            a = (m + m.T) / 2.0
            assert np.max(np.abs(d @ vech(a) - vec(a))) <= 1e-12
            assert np.max(np.abs(pinv @ vec(a) - vech(a))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: duplication identities p<=8, 100 draws each, "
          f"tol 1e-12, {elapsed:.2f}s")


def test_criterion_02_sigma_structure_golden(truth):
    sigma = sigma_of_theta(truth)
    assert np.max(np.abs(sigma - SIGMA_TRUE)) <= 1e-12
    print("\nPASS criterion 2: implied covariance matches the benchmark "
          "6x6 matrix exactly")


def test_criterion_03_theoretical_sd_table(truth):
    spec = make_spec(n=10**6, h=1e-4)
    rows = theoretical_sd_table(truth, spec)
    sds = np.array([sd for name, _, sd in rows if name.startswith("rcov:")])
    assert sds.shape == (21,)
    assert abs(sds[0] - 0.024) < 5.1e-4
    assert abs(sds[1] - 0.030) < 5.1e-4
    worst = np.max(np.abs(sds - RCOV_SD_REFERENCE))
    assert worst < 5.1e-4  # within printing resolution of the reference
    print(f"\nPASS criterion 3: all 21 theoretical SDs match the reference "
          f"column (max gap {worst:.2e})")


def test_criterion_04_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    from diffusionfa import ParamVector

    for p, k in [(3, 1), (6, 2)]:
        spec = ModelSpec(p=p, k=k)
        for _ in range(20):
            m = rng.standard_normal((p, p))
            rc = RealisedCov(q=m @ m.T + p * np.eye(p), n=500, h=1e-3)
            s = rng.standard_normal((k, k))
            params = ParamVector(a=rng.standard_normal((p - k, k)),
                                 sigma_ff=s @ s.T + 0.5 * np.eye(k),
                                 sigma_ee=rng.uniform(0.5, 3.0, p))
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
            rel = np.max(np.abs(grad - fd) / (1.0 + np.abs(fd)))
            assert rel <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: analytic gradient vs central differences at "
          f"20 points for (3,1) and (6,2), {elapsed:.2f}s")


def test_criterion_05_nonergodic_table_replication(nonergodic_run):
    agg = nonergodic_run
    rows = _rows(agg)
    R = agg.included[2]
    q11 = rows["rcov:1,1"]
    th1 = rows["theta:1"]
    mc_se_q = q11.sample_sd / np.sqrt(agg.replications)
    mc_se_t = th1.sample_sd / np.sqrt(R)
    assert abs(q11.sample_mean - 17.0) <= 3 * mc_se_q
    assert abs(th1.sample_mean - 3.0) <= 3 * mc_se_t
    assert abs(q11.sample_sd - 0.760) <= 0.1 * 0.760
    assert abs(th1.sample_sd - 0.109) <= 0.1 * 0.109
    print(f"\nPASS criterion 5: Q11 mean {q11.sample_mean:.3f} "
          f"(SD {q11.sample_sd:.3f} vs 0.760), theta1 mean {th1.sample_mean:.4f} "
          f"(SD {th1.sample_sd:.4f} vs 0.109), R={agg.replications}, "
          f"excluded {agg.exclusions[2]}")


def test_criterion_06_test_calibration(nonergodic_run):
    agg = nonergodic_run
    rows = _rows(agg)
    t2 = rows["tstat:2"]
    rate = agg.rejections[(2, 0.05)] / agg.replications
    assert abs(t2.sample_mean - 4.0) <= 0.27
    assert abs(t2.sample_sd - 2.828) <= 0.3
    assert 0.03 <= rate <= 0.07
    print(f"\nPASS criterion 6: mean T {t2.sample_mean:.3f}, SD {t2.sample_sd:.3f}, "
          f"rejection rate {rate:.3f} at alpha 0.05")


def test_criterion_07_test_consistency(nonergodic_run):
    agg = nonergodic_run
    assert agg.rejections[(1, 0.05)] == agg.replications == 1000
    median = agg.quartiles[1][2]
    assert median > 1000
    print(f"\nPASS criterion 7: H0 k=1 rejected in 1000/1000 replications, "
          f"median statistic {median:.0f}")


def test_criterion_08_distributional_shape(nonergodic_run):
    agg = nonergodic_run
    rows = _rows(agg)
    th1 = rows["theta:1"]
    draws = agg.draws["theta:1"]
    standardized = (draws - 3.0) / th1.theoretical_sd
    ks = stats.kstest(standardized, "norm").statistic
    band = 1.63 / np.sqrt(draws.size)
    assert ks < band
    t_draws = np.sort(agg.draws["tstat:2"])
    probs = (np.arange(1, t_draws.size + 1) - 0.5) / t_draws.size
    ref = stats.chi2.ppf(probs, 4)
    slope = np.sum(ref * t_draws) / np.sum(ref * ref)
    assert 0.9 <= slope <= 1.1
    print(f"\nPASS criterion 8: KS {ks:.4f} < {band:.4f}; "
          f"QQ slope vs chi2_4 {slope:.3f}")


def test_criterion_09_sqrt_n_shrinkage(nonergodic_run, ergodic_scaled_run):
    rows3 = _rows(nonergodic_run)
    rows4 = _rows(ergodic_scaled_run)
    sd3 = rows3["theta:1"].sample_sd
    sd4 = rows4["theta:1"].sample_sd
    theo4 = rows4["theta:1"].theoretical_sd
    assert sd4 < sd3  # monotone shrinkage with n
    ratio = (sd4 * np.sqrt(10000.0)) / (sd3 * np.sqrt(1000.0))
    assert abs(ratio - 1.0) <= 0.2
    assert abs(sd4 / theo4 - 1.0) <= 0.2
    print(f"\nPASS criterion 9: SD shrinks {sd3:.4f} -> {sd4:.4f}; "
          f"sqrt(n)-scaled ratio {ratio:.3f}; vs theory {sd4 / theo4:.3f}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    sim = make_sim_config(n=250, seed=0)
    exp = Experiment(sim=sim, replications=6,
                     k_grid=(1, 2), keep_draws=("theta:1", "tstat:2"),
                     seed_base=31337)
    outputs = []
    for tag, jobs in (("serial1", 1), ("serial2", 1), ("parallel", 2)):
        agg = run(exp, n_jobs=jobs)
        outputs.append(write_outputs(agg, str(tmp_path / tag), exp))
    names = [[f.split("/")[-1] for f in files] for files in outputs]
    assert names[0] == names[1] == names[2]
    for f1, f2, f3 in zip(*outputs):
        b1 = open(f1, "rb").read()
        assert b1 == open(f2, "rb").read()
        assert b1 == open(f3, "rb").read()
    print(f"\nPASS criterion 10: {len(outputs[0])} output files byte-identical "
          "across serial and parallel reruns")
