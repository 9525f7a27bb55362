"""Minimum-contrast estimation of the factor structure with standard errors.

The estimator minimizes the weighted distance between vech(Q) and
vech(Sigma(theta)), evaluated in closed form as (1/2) tr[(Sigma^{-1} (Q -
Sigma))^2]; reported standard errors come from the inverse information
(Delta' W^{-1} Delta)^{-1} at the estimate.
"""

from diffusionfa import fit, implied_params, pack, realised_cov, simulate
from diffusionfa.config import bundled_config_path, load_json, sim_config_from_json

config = sim_config_from_json(load_json(bundled_config_path("system_p6k2")), path="")
truth = implied_params(config)

path = simulate(config.with_seed(7))
rc = realised_cov(path)

result = fit(rc, config.spec)  # default initializer and data-scaled box
theta0 = pack(truth)
theta = pack(result.theta_hat)

print(f"converged: {result.converged} ({result.message}, "
      f"{result.iterations} iterations)")
print(f"contrast at optimum: {result.contrast:.4e} -> n*F = {rc.n * result.contrast:.2f}")
print(f"\n{'coord':>5} {'truth':>8} {'estimate':>9} {'se':>7} {'z':>7}")
for j in range(theta.size):
    z = (theta[j] - theta0[j]) / result.se[j]
    print(f"{j + 1:>5} {theta0[j]:>8.2f} {theta[j]:>9.3f} {result.se[j]:>7.3f} {z:>7.2f}")

if result.min_unique_variance <= 0 or result.sigma_ff_min_eig < 0:
    print("\nboundary diagnostic: the fit touched the edge of the valid region")
