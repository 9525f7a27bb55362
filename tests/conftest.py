import numpy as np
import pytest

from diffusionfa import DriftSpec, ModelSpec, ParamVector, SimConfig

# Two-factor, six-coordinate benchmark design used throughout the suite:
# loadings, factor covariance and unique variances with known implied
# increment covariance, driven by linear OU dynamics.
A_TRUE = np.array([[3.0, 1.0], [1.0, 5.0], [7.0, -4.0], [-3.0, 2.0]])
SIGMA_FF_TRUE = np.array([[13.0, 13.0], [13.0, 26.0]])
SIGMA_EE_TRUE = np.array([4.0, 16.0, 25.0, 1.0, 9.0, 4.0])
THETA_TRUE = np.array(
    [3, 1, 7, -3, 1, 5, -4, 2, 13, 13, 26, 4, 16, 25, 1, 9, 4], dtype=float)
SIGMA_TRUE = np.array([
    [17, 13, 52, 78, 39, -13],
    [13, 42, 65, 143, -13, 13],
    [52, 65, 246, 377, 104, -26],
    [78, 143, 377, 794, -26, 52],
    [39, -13, 104, -26, 334, -143],
    [-13, 13, -26, 52, -143, 69],
], dtype=float)

FACTOR_B = np.array([[0.5, 0.3], [0.2, 0.4]])
FACTOR_MU = np.array([2.0, 4.0])
FACTOR_S = np.array([[2.0, 3.0], [5.0, 1.0]])
UNIQUE_B = np.array([3.0, 2.0, 3.0, 2.0, 6.0, 2.0])
UNIQUE_SIGMA = np.array([2.0, 4.0, 5.0, 1.0, 3.0, 2.0])
F0 = np.array([3.0, 5.0])


@pytest.fixture(scope="session")
def truth():
    return ParamVector(a=A_TRUE, sigma_ff=SIGMA_FF_TRUE, sigma_ee=SIGMA_EE_TRUE)


def make_spec(n=1000, h=1e-3, k=2):
    return ModelSpec(p=6, k=k, n=n, h=h)


def make_sim_config(n=1000, h=1e-3, seed=0, substeps=1):
    return SimConfig(
        spec=make_spec(n=n, h=h),
        a=A_TRUE,
        factor_drift=DriftSpec.linear_ou(FACTOR_B, FACTOR_MU),
        factor_dispersion=FACTOR_S,
        unique_drifts=tuple(DriftSpec.linear_ou(b, 0.0) for b in UNIQUE_B),
        unique_dispersions=UNIQUE_SIGMA,
        f0=F0,
        e0=np.zeros(6),
        seed=seed,
        substeps=substeps,
    )


@pytest.fixture(scope="session")
def sim_config():
    return make_sim_config()
