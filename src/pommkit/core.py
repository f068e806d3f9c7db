"""Core model interface: bivariate Markov chains observed through one component.

A model here is a Markov chain ``Z_k = (X_k, Y_k)`` on a product space,
specified by a one-step transition log-density with respect to a fixed
product dominating measure, together with samplers. Only the ``Y``
component is observable; observations are indexed from 1, the initial
state ``Z_0`` from an arbitrary initial distribution is never seen.

States and observations are either real vectors (continuous families) or
small non-negative integers (finite-alphabet families). All densities are
handled in the log domain; ``-inf`` encodes zero density.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod

Z = tuple  # a state-observation pair (x, y)

# float64 entries per block of a dense kernel built in row blocks (512 KB,
# a quarter of a 2 MB L2 cache): audit.sv_marginal_y_logpdf and the
# quadrature's transition kernel
_BLOCK_FLOATS = 1 << 16


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on an evenly spaced node grid."""
    h = grid[1] - grid[0]
    w = np.full(len(grid), h)
    w[0] = w[-1] = h / 2.0
    return w


class NoStationarySamplerError(ValueError):
    """Stationary initialization requested from a model without one."""


class UnsupportedInitError(ValueError):
    """The chosen evaluator cannot handle this initial distribution."""


class DegeneratePosteriorError(ArithmeticError):
    """Every candidate parameter received zero posterior mass."""


# ---------------------------------------------------------------------------
# Initial distributions on the full state-observation space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stationary:
    """Start the chain from its stationary law (when available)."""


@dataclass(frozen=True)
class PointMass:
    """Start exactly at ``z = (x, y)``."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x, y = np.atleast_1d(np.asarray(x)), np.atleast_1d(np.asarray(y))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"point mass must be finite, got x={x} and y={y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class GaussianOnZ:
    """Gaussian initial law on the stacked vector ``(x, y)``."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {mean.size}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("Gaussian init mean and cov must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        # Positive semi-definite is enough: a point mass is cov = 0.
        eigmin = float(np.linalg.eigvalsh(cov).min()) if mean.size else 0.0
        if eigmin < -1e-10:
            raise ValueError("cov must be positive semi-definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class CustomInit:
    """A user-supplied sampler of z = (x, y); only simulation can start from it."""

    sampler: Callable[[np.random.Generator], Z]


InitialDist = object  # Stationary | PointMass | GaussianOnZ | CustomInit


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HmmFactorization:
    """Factorized transition ``q(z, z') = qx(x, x') * g(x', y')``.

    ``qx`` is the hidden-chain transition density on X x X and ``g`` the
    emission density on X x Y; both in the log domain. Every hook
    broadcasts: it takes one state or an array of states and gives one
    value (or draw) per state, the same value either way, and an array
    draw consumes the generator as the scalar draws in turn would. A
    scalar state is a plain number; a vector state of dimension ``p``
    keeps a trailing axis of length ``p``. ``stationary_x_sample(n, rng)``
    draws ``n`` states from the stationary hidden-state law.
    """

    qx_logpdf: Callable[[object, object], object]
    qx_sample: Callable[[object, np.random.Generator], object]
    g_logpdf: Callable[[object, object], object]
    g_sample: Callable[[object, np.random.Generator], object]
    stationary_x_sample: Callable[[int, np.random.Generator], np.ndarray]

    def __init__(self, qx_logpdf, qx_sample, g_logpdf, g_sample, stationary_x_sample):
        # one update of the instance dictionary, not one frozen-dataclass setter per field (see ModelSpec)
        vars(self).update(qx_logpdf=qx_logpdf, qx_sample=qx_sample, g_logpdf=g_logpdf, g_sample=g_sample,
                          stationary_x_sample=stationary_x_sample)


@dataclass(frozen=True)
class ModelSpec:
    """A fully dominated partially observed Markov model, parameters bound.

    The transition log-density, sampler and (when available in closed
    form) stationary sampler fully determine the model. ``trans_logpdf``
    broadcasts over pairs ``(x, y)`` of shapes ``(..., state_dim)`` and
    ``(..., obs_dim)`` with the per-pair bits (one pair gives a float).
    So does every family's ``sample_step``: a linear family draws as the
    pairs would in turn, an HMM draws every ``x'`` and then every ``y'``.
    ``sample_stationary(n, rng)`` draws ``n`` stationary pairs as blocks
    ``(x, y)`` of shapes ``(n, state_dim)`` and ``(n, obs_dim)``; one pair
    is a block of one.
    Concrete families attach their structured parameters (``glm``,
    ``ssm``, ``sv``, ``finite``) so that exact evaluators can use them;
    generic code must only rely on the callables.
    """

    state_dim: int
    obs_dim: int
    trans_logpdf: Callable[[Z, Z], float]
    sample_step: Callable[[Z, np.random.Generator], Z]
    sample_stationary: Optional[Callable[[int, np.random.Generator], Z]] = None
    hmm: Optional[HmmFactorization] = None
    glm: Optional[object] = None
    ssm: Optional[object] = None
    sv: Optional[object] = None
    finite: Optional[object] = None

    def __init__(self, state_dim, obs_dim, trans_logpdf, sample_step, sample_stationary=None, hmm=None, glm=None,
                 ssm=None, sv=None, finite=None):
        # The generated frozen-dataclass __init__ sets each field through
        # object.__setattr__; one update of the instance dictionary sets the
        # same fields at under half the cost, and a Metropolis step builds a
        # spec. The record stays frozen: __setattr__ still raises.
        vars(self).update(state_dim=state_dim, obs_dim=obs_dim, trans_logpdf=trans_logpdf, sample_step=sample_step,
                          sample_stationary=sample_stationary, hmm=hmm, glm=glm, ssm=ssm, sv=sv, finite=finite)


@dataclass(frozen=True)
class Trajectory:
    """A complete path ``z_0, ..., z_n`` of the bivariate chain.

    ``x`` has shape (n+1, state_dim) and ``y`` shape (n+1, obs_dim);
    finite-alphabet models store integer codes.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")
        if len(self.x) < 1:
            raise ValueError("a trajectory holds at least z_0")

    def __len__(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _check_init_dim(init, p: int, q: int) -> None:
    """Reject a point mass or Gaussian initial law whose (x, y) dimensions are not ``(p, q)``."""
    if isinstance(init, PointMass) and (init.x.size, init.y.size) != (p, q):
        raise ValueError(f"point mass has dimensions ({init.x.size}, {init.y.size}), expected ({p}, {q})")
    if isinstance(init, GaussianOnZ) and init.mean.size != p + q:
        raise ValueError(f"Gaussian init has dimension {init.mean.size}, expected {p + q}")


def _check_init(spec: ModelSpec, init) -> None:
    """``_check_init_dim`` on the dimensions of ``spec``, and on a finite chain its point mass.

    A finite chain's point mass must sit on a state, an integer in
    ``0..K-1``, and on a symbol, an integer in ``0..L-1``; a cast would
    read 1.7 as 1 and an index would wrap -1 to the last state. A finite
    chain takes no Gaussian law, whose draws are not states.
    """
    _check_init_dim(init, spec.state_dim, spec.obs_dim)
    if spec.finite is not None and isinstance(init, GaussianOnZ):
        raise UnsupportedInitError(
            "finite models take Stationary, PointMass or an explicit state distribution, got GaussianOnZ"
        )
    if spec.finite is not None and isinstance(init, PointMass):
        for name, v, k in (("state", init.x[0], spec.finite.n_states), ("symbol", init.y[0], spec.finite.n_symbols)):
            if not (float(v).is_integer() and 0 <= v < k):
                raise ValueError(f"point-mass {name} must be an integer in 0..{k - 1}, got {v}")


def _draw_initial(spec: ModelSpec, init: InitialDist, rng: np.random.Generator) -> Z:
    _check_init(spec, init)
    if isinstance(init, Stationary):
        if spec.sample_stationary is None:
            raise NoStationarySamplerError(
                "no stationary sampler: this model does not expose its stationary law"
            )
        x, y = spec.sample_stationary(1, rng)
        return (x[0], y[0])
    if isinstance(init, PointMass):
        return (init.x.copy(), init.y.copy())
    if isinstance(init, GaussianOnZ):
        d = spec.state_dim + spec.obs_dim
        z = init.mean + _chol_psd(init.cov) @ rng.standard_normal(d)
        return (z[: spec.state_dim], z[spec.state_dim :])
    if isinstance(init, CustomInit):
        try:
            draw = PointMass(*init.sampler(rng))  # rejects a non-finite draw
            _check_init(spec, draw)
        except ValueError as err:
            raise ValueError(f"CustomInit drew an invalid initial pair: {err}") from err
        return (draw.x, draw.y)
    raise TypeError(f"unknown initial distribution {init!r}")


def _check_size(name: str, value, least: int = 2) -> None:
    """Reject a size or count that is not an integer >= ``least`` (2 for node, particle and draw counts)."""
    if not rngmod._is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    """Cholesky-like factor for a positive semi-definite matrix."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def simulate_complete(spec: ModelSpec, init: InitialDist, n: int, seed: int, stream: int = 0) -> Trajectory:
    """Simulate ``z_0, ..., z_n`` with ``z_0 ~ init`` and one-step kernel moves.

    Deterministic given ``(seed, stream)``. A linear spec whose ``Phi``
    is 2 x 2 with a zero y column (``models._float_phi``: every scalar
    state-space embedding) draws its whole path with
    ``models._linear_path``, which runs the recursion on Python floats;
    every other spec calls ``sample_step`` once per step. Both give the
    same bytes from the same stream.
    """
    _check_size("n", n, 1)
    rng = rngmod.substream(seed, rngmod.SIMULATE, stream)
    z = _draw_initial(spec, init, rng)
    if spec.glm is not None:
        from .models import _float_phi, _linear_path  # models imports this module

        phi = _float_phi(spec.glm)
        if phi is not None:
            return Trajectory(*_linear_path(phi, spec.glm.R, z, n, rng))
    xs = [np.atleast_1d(np.asarray(z[0]))]
    ys = [np.atleast_1d(np.asarray(z[1]))]
    for _ in range(n):
        z = spec.sample_step(z, rng)
        xs.append(np.atleast_1d(np.asarray(z[0])))
        ys.append(np.atleast_1d(np.asarray(z[1])))
    return Trajectory(x=np.stack(xs), y=np.stack(ys))


def project_observations(traj: Trajectory) -> np.ndarray:
    """Return ``(y_1, ..., y_n)``, dropping the unobserved ``z_0`` entirely."""
    if len(traj) < 2:
        raise ValueError("cannot project observations from a length-1 trajectory: no y_1 exists")
    return traj.y[1:].copy()
