"""Layer microbenchmarks through the public API, inputs drawn from the seed.

Each figure is the median over repeats of one call (or one batch of calls
for sub-microsecond work), so a noisy neighbour inflates a few samples and
not the reported value.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from workloads import generated_system

# (p, k, repeats) for the contrast + gradient evaluation
CONTRAST_SIZES = ((6, 2, 60), (20, 3, 12), (40, 3, 4))


def _median_s(fn, repeats, batch=1):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def weight_bytes(p):
    """Computed bytes of the Kronecker product and W that one
    contrast + contrast_grad evaluation materialises (two of each)."""
    pbar = p * (p + 1) // 2
    return 2 * 8 * (p ** 4 + pbar ** 2)


def run(seed, sim_config):
    from diffusionfa import (RealisedCov, chi2_quantile, contrast, contrast_grad,
                             realised_cov, sigma_of_theta, simulate, vech)
    from diffusionfa.config import params_from_json

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    out = {}
    for p, k, repeats in CONTRAST_SIZES:
        _, _, truth = generated_system(p, k, 2000, 0.001, rng)
        params = params_from_json(truth)
        sigma = sigma_of_theta(params)
        x = rng.multivariate_normal(np.zeros(p), sigma, size=2000)
        rcov = RealisedCov(q=x.T @ x / 2000, n=2000, h=0.001)

        def evaluate():
            contrast(rcov, params)
            contrast_grad(rcov, params)

        evaluate()
        out[f"model.contrast_grad_ms.p{p}"] = (_median_s(evaluate, repeats) * 1e3,
                                               "ms")
        out[f"model.weight_bytes.p{p}"] = (weight_bytes(p), "bytes")

    for df in (3, 133):
        alpha = rng.uniform(0.01, 0.1)
        out[f"hypothesis_test.chi2_quantile_us.df{df}"] = (
            _median_s(lambda: chi2_quantile(df, alpha), 15, batch=10) * 1e6, "us")

    a = rng.standard_normal((6, 6))
    a = a + a.T
    out["matrixcalc.vech_us.p6"] = (_median_s(lambda: vech(a), 9, batch=500) * 1e6,
                                    "us")

    for n, repeats in ((1000, 5), (10000, 3)):
        config = replace(sim_config, spec=replace(sim_config.spec, n=n),
                         seed=int(rng.integers(2 ** 62)))
        out[f"sde.simulate_ms.n{n}"] = (
            _median_s(lambda: simulate(config), repeats) * 1e3, "ms")
    path = simulate(config)
    out["estimator.realised_cov_us.n10000"] = (
        _median_s(lambda: realised_cov(path), 9, batch=5) * 1e6, "us")
    return out
