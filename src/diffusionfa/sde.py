"""Simulation of the latent factor system on a uniform observation grid.

The k-dimensional common factor follows df = b_f(f) dt + S dW and each of
the p unique coordinates follows de_i = b_i(e_i) dt + sigma_i dB_i, with W
and all B_i mutually independent.  The observed path is X = Lambda f + e
at times t_i = i*h.

Scheme: Euler-Maruyama with an optional number of substeps per observation
interval (default 1) on the joint state z = (f, e), whose drift is mu - B z
with B = blockdiag(B_f, diag(b_i)) for linear (Ornstein-Uhlenbeck) drifts;
a custom drift overrides its block of mu - B z.  Each noise chunk is drawn
once as (S xi_f, sigma xi_e) sqrt(delta).  With linear drifts only, the
step z + (mu - B z) delta + noise is affine in z and is evaluated as a
blocked scan (Blelloch 1990): each chunk is cut into about sqrt(chunk)
blocks, the in-block steps run vectorised across blocks from zero, and one
short loop carries (I - B delta)^{j+1} z_start into each block.  That is
about 3 sqrt(n * substeps) Python iterations instead of n * substeps, and
agrees with the step-by-step loop to rounding (ulp level).  A custom
drift, or a chunk whose state grows large enough that a step might
overflow, takes that loop, so a drift explosion is reported at the grid
step the loop reports.

Randomness contract
-------------------
All noise derives from a single 64-bit ``seed`` through the counter-based
Philox (4x64) bit generator with fixed named substreams:

* factor driving noise:   SeedSequence(seed, spawn_key=(0,))
* unique coordinate i:    SeedSequence(seed, spawn_key=(1, i))

Identical configs therefore produce bitwise-identical paths, and changing
p never perturbs the factor path under the same seed.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelSpec, ParamVector, loading_matrix

_BIN_MAGIC = b"DFA0"
_BIN_VERSION = 1
_NOISE_CHUNK = 65536  # substeps buffered per RNG draw; bounds memory at long n


class SimulationError(RuntimeError):
    """A non-finite state or observation in integration (drift explosion)."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state at grid step {step}")

    def __reduce__(self):  # survives the trip back from a worker process
        return type(self), (self.step, str(self))


@dataclass(frozen=True)
class DriftSpec:
    """Drift of one diffusion component.

    ``linear_ou`` drifts are x -> -(B x - mu); ``custom`` drifts carry only
    a callable, which :func:`simulate` evaluates in its Euler loop.
    """

    kind: str
    b: np.ndarray | float | None = None
    mu: np.ndarray | float | None = None
    func: object = None

    @staticmethod
    def linear_ou(b, mu):
        return DriftSpec(kind="linear_ou", b=np.asarray(b, dtype=float),
                         mu=np.asarray(mu, dtype=float))

    @staticmethod
    def custom(func):
        return DriftSpec(kind="custom", func=func)

    def __post_init__(self):
        if self.kind not in ("linear_ou", "custom"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "custom" and not callable(self.func):
            raise ValueError("custom drift requires a callable")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated system.

    ``a`` is the free (p-k) x k loading block (the top k x k block of
    Lambda is the identity), so the generating parameter vector is
    recoverable via :func:`implied_params`.
    """

    spec: ModelSpec
    a: np.ndarray
    factor_drift: DriftSpec
    factor_dispersion: np.ndarray  # k x r
    unique_drifts: tuple  # p scalar DriftSpecs
    unique_dispersions: np.ndarray  # p positive std-devs
    f0: np.ndarray
    e0: np.ndarray
    seed: int
    substeps: int = 1

    def __post_init__(self):
        p, k = self.spec.p, self.spec.k
        a = np.atleast_2d(np.array(self.a, dtype=float))
        s = np.atleast_2d(np.array(self.factor_dispersion, dtype=float))
        disp = np.array(self.unique_dispersions, dtype=float).ravel()
        f0 = np.array(self.f0, dtype=float).ravel()
        e0 = np.array(self.e0, dtype=float).ravel()
        if a.shape != (p - k, k):
            raise ValueError(f"loading block must be {(p - k, k)}, got {a.shape}")
        if s.shape[0] != k:
            raise ValueError(f"factor dispersion must have {k} rows, got {s.shape}")
        if len(self.unique_drifts) != p:
            raise ValueError(f"need {p} unique drifts, got {len(self.unique_drifts)}")
        drifts = [("factor_drift", self.factor_drift, (k, k), (k,))] + [
            (f"unique_drifts[{i}]", d, (), ()) for i, d in enumerate(self.unique_drifts)]
        for where, drift, b_shape, mu_shape in drifts:
            for name, shape in (("b", b_shape), ("mu", mu_shape)):
                got = np.shape(getattr(drift, name))
                if drift.kind == "linear_ou" and got != shape:
                    raise ValueError(f"{where}.{name} has shape {got}, "
                                     f"expected {shape or 'a scalar'}")
        if disp.size != p or np.any(disp < 0):
            raise ValueError("unique dispersions must be p non-negative std-devs")
        if f0.size != k or e0.size != p:
            raise ValueError("initial vectors must have lengths k and p")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.spec.n < 1:
            raise ValueError(f"spec.n must be >= 1 for simulation, got {self.spec.n}")
        if not (math.isfinite(self.spec.h) and self.spec.h > 0):
            raise ValueError(
                f"spec.h must be finite and > 0 for simulation, got {self.spec.h}")
        for name, val in (("a", a), ("factor_dispersion", s),
                          ("unique_dispersions", disp), ("f0", f0), ("e0", e0)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "unique_drifts", tuple(self.unique_drifts))

    @property
    def r(self):
        return self.factor_dispersion.shape[1]

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class SamplePath:
    """Observations x on the grid times, with latent f and e when retained."""

    times: np.ndarray
    x: np.ndarray
    f: np.ndarray | None = None
    e: np.ndarray | None = None

    @property
    def n(self):
        return self.x.shape[0] - 1

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def h(self):
        return float(self.times[1] - self.times[0])


def implied_params(config):
    """Generating ParamVector of a config: Sigma_ff = S S^T, sigma^2 = disp^2."""
    s = config.factor_dispersion
    return ParamVector(a=config.a, sigma_ff=s @ s.T,
                       sigma_ee=config.unique_dispersions ** 2)


def _rng_streams(seed, p):
    root = np.random.SeedSequence(int(seed))
    factor = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(root.entropy, spawn_key=(0,))))
    uniques = [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(root.entropy, spawn_key=(1, i))))
        for i in range(p)
    ]
    return factor, uniques


def _joint_drift(config):
    """Drift mu - B z of the joint state z = (f, e) as (B, mu, custom):
    linear-OU drifts fill B and mu; each custom drift leaves its block at
    zero and is listed as (index, func), func(z[index]) replacing it."""
    k, p = config.spec.k, config.spec.p
    b = np.zeros((k + p, k + p))
    mu = np.zeros(k + p)
    custom = []
    fd = config.factor_drift
    if fd.kind == "custom":
        custom.append((slice(0, k), lambda f: np.reshape(fd.func(f), k)))
    else:
        b[:k, :k] = np.reshape(fd.b, (k, k))
        mu[:k] = np.reshape(fd.mu, k)
    for i, d in enumerate(config.unique_drifts, start=k):
        if d.kind == "custom":
            custom.append((i, d.func))
        else:
            b[i, i], mu[i] = float(d.b), float(d.mu)
    return b, mu, custom


def _affine_scan(step, z0, u):
    """Rows z_1..z_m of z_t = z_{t-1} + step @ z_{t-1} + u_t from z_0, as a
    blocked scan.

    The m steps are cut into blocks of L = ceil(sqrt(m)).  L - 1 vectorised
    steps run every block from zero; one loop over the blocks carries each
    block's start state c_b, and ``(I + step)^{j+1} c_b`` adds it to step j
    of block b in one product.  That is about 3 sqrt(m) Python iterations.
    Powers are kept as ``(I + step)^j - I`` and states are updated by
    increments, as the Euler loop does, so no ``1 - b delta`` is rounded.
    """
    m, d = u.shape
    size = math.isqrt(m - 1) + 1
    blocks = -(-m // size)
    full = m // size
    y = np.zeros((size, blocks, d))  # y[j, b] is step b * size + j
    y[:, :full] = u[:full * size].reshape(full, size, d).transpose(1, 0, 2)
    y[:m - full * size, full:] = u[full * size:, None]
    powers = np.empty((size, d, d))
    powers[0] = step
    for j in range(1, size):
        y[j] += y[j - 1] + y[j - 1] @ step.T
        powers[j] = powers[j - 1] + (step + step @ powers[j - 1])
    starts = np.empty((blocks, d))
    starts[0] = z0
    for b in range(1, blocks):
        starts[b] = starts[b - 1] + (powers[-1] @ starts[b - 1] + y[-1, b - 1])
    y += starts @ powers.transpose(0, 2, 1)
    y += starts
    return y.transpose(1, 0, 2).reshape(blocks * size, d)[:m]


def simulate(config, keep_latent=False):
    """Integrate the latent system and return the observed SamplePath.

    Deterministic given ``config.seed``.  Raises SimulationError with the
    offending grid index if the state, or the observation X = Lambda f + e
    formed from it, leaves the finite range.
    """
    spec = config.spec
    p, k, n, h = spec.p, spec.k, spec.n, spec.h
    sub = config.substeps
    delta = h / sub
    b, mu, custom = _joint_drift(config)
    step = -b * delta
    # |z| <= guard keeps every intermediate of an Euler step inside the
    # float range, so a chunk the loop could overflow in goes back to it
    guard = np.finfo(float).max / (
        4.0 * (1.0 + np.abs(b).sum(axis=1).max()) * max(1.0, delta))

    rng_f, rng_e = _rng_streams(config.seed, p)
    z = np.empty((n + 1, k + p))
    z[0] = np.concatenate([config.f0, config.e0])

    def scan(row, noise):
        with np.errstate(over="ignore", invalid="ignore"):  # judged by guard
            path = _affine_scan(step, z[row], mu * delta + noise)
        if not -guard <= path.min() <= path.max() <= guard:  # False on NaN too
            return False
        z[row + 1:row + 1 + len(path) // sub] = path[sub - 1::sub]
        return True

    def euler(row, noise):
        state = z[row]
        # a non-finite state is reported below, so its warnings are not
        with np.errstate(over="ignore", invalid="ignore"):
            for i, block in enumerate(noise.reshape(-1, sub, k + p), start=row + 1):
                for w in block:
                    drift = mu - b @ state
                    for index, func in custom:
                        drift[index] = func(state[index])
                    state = state + drift * delta + w
                z[i] = state
                if not np.all(np.isfinite(state)):
                    raise SimulationError(i)

    total = n * sub
    chunk = max(sub, (_NOISE_CHUNK // sub) * sub) if sub <= _NOISE_CHUNK else sub
    for start in range(0, total, chunk):
        m = min(chunk, total - start)
        noise = np.hstack([
            rng_f.standard_normal((m, config.r)) @ config.factor_dispersion.T,
            config.unique_dispersions
            * np.column_stack([g.standard_normal(m) for g in rng_e]),
        ]) * np.sqrt(delta)
        if custom or not scan(start // sub, noise):
            euler(start // sub, noise)

    f, e = z[:, :k], z[:, k:]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        x = f @ loading_matrix(implied_params(config)).T + e
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise SimulationError(bad[0], f"non-finite observation at grid step {bad[0]}")
    times = np.arange(n + 1) * h
    if keep_latent:
        return SamplePath(times=times, x=x, f=f, e=e)
    return SamplePath(times=times, x=x)


def path_to_csv(path, fileobj):
    """Write a SamplePath as CSV with header t,x1..xp[,f1..fk,e1..ep]."""
    p = path.p
    header = ["t"] + [f"x{i + 1}" for i in range(p)]
    blocks = [path.times[:, None], path.x]
    if path.f is not None and path.e is not None:
        k = path.f.shape[1]
        header += [f"f{i + 1}" for i in range(k)] + [f"e{i + 1}" for i in range(p)]
        blocks += [path.f, path.e]
    data = np.hstack(blocks)
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    for row in data:
        writer.writerow([repr(float(v)) for v in row])


def path_from_csv(fileobj):
    """Read a SamplePath written by :func:`path_to_csv`."""
    header = fileobj.readline().strip().split(",")
    if not header or header[0] != "t":
        raise ValueError("not a sample-path CSV: first column must be t")
    data = np.loadtxt(fileobj, delimiter=",", ndmin=2)
    p = sum(1 for c in header if c.startswith("x"))
    k = sum(1 for c in header if c.startswith("f"))
    times = data[:, 0]
    x = data[:, 1 : 1 + p]
    f = e = None
    if k:
        f = data[:, 1 + p : 1 + p + k]
        e = data[:, 1 + p + k : 1 + 2 * p + k]
    return SamplePath(times=times, x=x, f=f, e=e)


def path_to_binary(path, fileobj):
    """Compact binary container, little-endian throughout:

    magic ``DFA0`` (4 bytes), uint32 version=1, uint32 flags (bit 0 set when
    latent paths are present), uint64 row count, uint32 p, uint32 k, then
    float64 arrays in row-major order: times (rows), x (rows*p), and when
    flagged f (rows*k) and e (rows*p).
    """
    rows = path.x.shape[0]
    has_latent = path.f is not None and path.e is not None
    k = path.f.shape[1] if has_latent else 0
    fileobj.write(_BIN_MAGIC)
    fileobj.write(struct.pack("<IIQII", _BIN_VERSION, 1 if has_latent else 0,
                              rows, path.p, k))
    fileobj.write(np.ascontiguousarray(path.times, dtype="<f8").tobytes())
    fileobj.write(np.ascontiguousarray(path.x, dtype="<f8").tobytes())
    if has_latent:
        fileobj.write(np.ascontiguousarray(path.f, dtype="<f8").tobytes())
        fileobj.write(np.ascontiguousarray(path.e, dtype="<f8").tobytes())


def path_from_binary(fileobj):
    """Read a SamplePath written by :func:`path_to_binary`."""
    magic = fileobj.read(4)
    if magic != _BIN_MAGIC:
        raise ValueError("not a sample-path binary container")
    header = _read_exact(fileobj, 24, "header")
    version, flags, rows, p, k = struct.unpack("<IIQII", header)
    if version != _BIN_VERSION:
        raise ValueError(f"unsupported container version {version}")

    def read_array(name, *shape):
        buf = _read_exact(fileobj, 8 * int(np.prod(shape)), name)
        return np.frombuffer(buf, dtype="<f8").reshape(shape).astype(float)

    times = read_array("times", rows)
    x = read_array("x", rows, p)
    f = e = None
    if flags & 1:
        f = read_array("f", rows, k)
        e = read_array("e", rows, p)
    return SamplePath(times=times, x=x, f=f, e=e)


def _read_exact(fileobj, nbytes, name):
    buf = fileobj.read(nbytes)
    if len(buf) != nbytes:
        raise ValueError(f"truncated sample-path container: {name} needs "
                         f"{nbytes} bytes, {len(buf)} remain")
    return buf
