"""Simulation of the latent factor system on a uniform observation grid.

The k-dimensional common factor follows df = b_f(f) dt + S dW and each of
the p unique coordinates follows de_i = b_i(e_i) dt + sigma_i dB_i, with W
and all B_i mutually independent.  The observed path is X = Lambda f + e
at times t_i = i*h.

Scheme: Euler-Maruyama with an optional number of substeps per observation
interval (default 1) on the joint state z = (f, e), whose drift is mu - B z
with B = blockdiag(B_f, diag(b_i)) for linear (Ornstein-Uhlenbeck) drifts;
a custom drift overrides its block of mu - B z.  Each noise chunk is drawn
as (S xi_f, sigma xi_e) sqrt(delta).  With linear drifts only, the step
z + (mu - B z) delta + noise is affine in z and is evaluated as a
recursively blocked scan (Blelloch 1990) in one coordinate-major array that
each Philox stream draws straight into, one row per coordinate.  A chunk of
m substeps is cut into blocks of about m^(1/3); one stacked product gives
each block's end from zero, the block starts follow the same affine
recursion at a coarser step and are scanned by the same function, and the
in-block steps run vectorised across blocks from them, so the Python loops
run a few times m^(1/3) iterations instead of m.  The scan agrees with the
step-by-step loop within 1e-12 of max|x|
(``tests/test_sde.py::test_linear_ou_scan_matches_euler_loop``).  A custom
drift, or a chunk whose state grows large enough that a step might
overflow, takes that loop (drawing the chunk again from the same generator
states), so a drift explosion is reported at the grid step the loop
reports.

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

import io
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
    s, disp = config.factor_dispersion, config.unique_dispersions
    with np.errstate(over="ignore"):  # judged where the parameters are used
        return ParamVector(a=config.a, sigma_ff=s @ s.T, sigma_ee=disp ** 2)


def _rng_streams(seed, p):
    factor = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=(0,))))
    uniques = [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=(1, i))))
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


def _affine_scan(step, z0, m, fill):
    """Columns z_1..z_m of z_t = z_{t-1} + step @ z_{t-1} + u_t from z_0, as a
    recursively blocked scan; ``fill(out)`` writes u into the (d, m) ``out``.

    The steps are cut into blocks of L = round(m^(1/3)) (one block when
    m <= 8), held as (d, blocks, L) so each coordinate's steps lie in order
    in one row.  One stacked product with the powers ``(I + step)^j - I``,
    built by doubling, gives each block's end from zero; the block starts
    follow the same recursion with step ``(I + step)^L - I``, a recursive
    call on blocks - 1 steps; then L vectorised steps run every block from
    its start, in place.  States are updated by increments, as the Euler
    loop does, so no ``1 - b delta`` is rounded.
    """
    d = len(z0)
    size = m if m <= 8 else round(m ** (1 / 3))
    blocks = -(-m // size)
    y = np.zeros((d, blocks, size))  # y[:, b, j] is step b * size + j
    path = y.reshape(d, blocks * size)[:, :m]
    fill(path)
    starts = z0[:, None]
    if blocks > 1:
        powers = np.zeros((size + 1, d, d))  # powers[j] = (I + step)^j - I
        powers[1] = step
        h = 1
        while h < size:  # powers[h + i] = powers[h] + powers[i] + powers[h] @ powers[i]
            w = min(h, size - h)
            powers[h + 1:h + w + 1] = powers[h] + powers[1:w + 1] + powers[h] @ powers[1:w + 1]
            h += w
        u = y[:, :-1]  # each block's end from zero: sum_j u_j + powers[L-1-j] u_j
        ends = ((powers[size - 1::-1].transpose(2, 1, 0) @ u.transpose(0, 2, 1)).sum(axis=0)
                + u @ np.ones(size))
        carried = _affine_scan(powers[size], z0, blocks - 1, lambda out: np.copyto(out, ends))
        starts = np.concatenate([starts, carried], axis=1)
    y[:, :, 0] += starts + step @ starts
    for j in range(1, size):
        y[:, :, j] += y[:, :, j - 1] + step @ y[:, :, j - 1]
    return path


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
    # |z| <= guard keeps every Euler step inside the float range, so a chunk the
    # loop could overflow in goes back to it (every chunk, if this overflows)
    with np.errstate(over="ignore"):
        step = -b * delta
        guard = np.finfo(float).max / (
            4.0 * (1.0 + np.abs(b).sum(axis=1).max()) * max(1.0, delta))

    rng_f, rng_e = _rng_streams(config.seed, p)
    z = np.empty((n + 1, k + p))
    z[0] = np.concatenate([config.f0, config.e0])

    def draw(out):  # the noise (S xi_f, sigma xi_e) sqrt(delta), one row per coordinate
        out[:k] = (rng_f.standard_normal((out.shape[1], config.r))
                   @ config.factor_dispersion.T).T
        for row, g, sd in zip(out[k:], rng_e, config.unique_dispersions):
            g.standard_normal(out=row)
            row *= sd
        out *= math.sqrt(delta)
        return out

    def scan(row, m):
        with np.errstate(over="ignore", invalid="ignore"):  # judged by guard
            path = _affine_scan(step, z[row], m,
                                lambda u: np.add(draw(u), (mu * delta)[:, None], out=u))
        if not -guard <= path.min() <= path.max() <= guard:  # False on NaN too
            return False
        z[row + 1:row + 1 + m // sub] = path[:, sub - 1::sub].T
        return True

    def euler(row, m):
        state = z[row]
        # a non-finite state is reported below, so its warnings are not
        with np.errstate(over="ignore", invalid="ignore"):
            noise = draw(np.empty((k + p, m))).T
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
        m, row = min(chunk, total - start), start // sub
        states = [g.bit_generator.state for g in (rng_f, *rng_e)]
        if custom or not scan(row, m):
            for g, state in zip((rng_f, *rng_e), states):  # the loop redraws the noise
                g.bit_generator.state = state
            euler(row, m)

    f, e = z[:, :k], z[:, k:]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        x = f @ loading_matrix(implied_params(config)).T
        x += e
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
        raise SimulationError(bad, f"non-finite observation at grid step {bad}")
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
    write_csv(fileobj, [header, *np.hstack(blocks)])


def write_csv(fileobj, rows):
    """Write rows as comma-separated lines: a float (numpy's too) in
    shortest round-trip form, anything else by ``str``; nothing is quoted."""
    for row in rows:
        fileobj.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row) + "\n")


def path_from_csv(fileobj):
    """Read a SamplePath written by :func:`path_to_csv`; a header other than
    t,x1..xp or t,x1..xp,f1..fk,e1..ep, a file without rows, a cut last row
    and rows not as wide as the header are refused."""
    header = fileobj.readline().strip().split(",")
    p, k = _csv_header_counts(header)
    rows = fileobj.read()
    if not rows.strip():
        raise ValueError("no rows after the header")
    if not rows.endswith("\n"):
        raise ValueError("the last row has no final newline: the file is cut short")
    data = np.loadtxt(io.StringIO(rows), delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"the rows have {data.shape[1]} columns, the header {len(header)}")
    times = data[:, 0]
    x = data[:, 1 : 1 + p]
    f = e = None
    if k:
        f = data[:, 1 + p : 1 + p + k]
        e = data[:, 1 + p + k : 1 + 2 * p + k]
    return SamplePath(times=times, x=x, f=f, e=e)


def _csv_header_counts(header):
    """(p, k) of a path CSV header t,x1..xp (k = 0) or t,x1..xp,f1..fk,e1..ep;
    any other header raises ValueError naming its first bad column."""

    def run(prefix, start, most=len(header)):
        names = header[start:start + most]
        return next((n for n, c in enumerate(names) if c != f"{prefix}{n + 1}"), len(names))

    p = run("x", 1) if header[0] == "t" else 0
    k = run("f", 1 + p) if p else 0
    e = run("e", 1 + p + k, p) if k else 0
    end = 1 + p + k + e
    if p and e == (p if k else 0) and end == len(header):
        return p, k
    if header[0] != "t":
        end, want = 0, "t"
    elif not p:
        want = "x1"
    elif not k:
        want = f"x{p + 1} or f1"
    elif e < p:
        want = f"e{e + 1}" if e else f"f{k + 1} or e1"
    else:
        want = f"nothing after e{p}"
    got = repr(header[end]) if end < len(header) else "the end of the header"
    column = "first column" if end == 0 else f"column {end + 1}"
    raise ValueError(f"not a sample-path CSV: {column} must be {want}, got {got}")


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
