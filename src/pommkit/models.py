"""Concrete model families.

Four families are provided:

* ``glm_spec`` -- the partially observed Gaussian linear Markov model
  ``Z_{k+1} = Phi Z_k + eps_{k+1}`` with ``eps ~ N(0, R)`` on
  ``R^p x R^q``; the noise may correlate the state and observation
  components, so this family is not an HMM in general.
* ``ssm_spec`` -- the linear Gaussian state-space model
  ``X_{k+1} = A X_k + zeta``, ``Y_k = B X_k + xi``, which embeds into the
  linear family via ``ssm_embed`` and, having independent noises, also
  factorizes as an HMM.
* ``sv_spec`` -- the stochastic volatility model: a Gaussian AR(1)
  log-volatility ``X`` with observation ``Y = beta * exp(X/2) * U``.
* ``finite_hmm_spec`` -- a finite state/alphabet HMM given by stochastic
  matrices; everything about it can be computed by exact enumeration, so
  it serves as the brute-force oracle for the continuous families.

The HMM families (``sv_spec``, ``finite_hmm_spec`` and the i.i.d.
specialization ``iid_gaussian_spec``) declare only their factorization,
an ``HmmFactorization`` of five transition and emission hooks, each
written once and broadcasting over states: a float and an array give
the same value per state, and an array draw consumes the generator as
the scalar draws in turn would. Their joint-chain callables are derived
from the factorization in one place: the transition log density is
``qx_logpdf + g_logpdf``, a step draws every ``x'`` and then every
``y'``, and a stationary block draws every ``x`` and then every ``y``.
``ssm_spec`` attaches such a factorization to its linear-family spec. Only this module writes out a
family's formulas: the linear Gaussian density and sampler
``_linear_gaussian`` (``glm_spec``'s transition and ``ssm_spec``'s
factors), the SV densities and samplers (``sv_qx_logpdf``,
``sv_g_logpdf``, ``sv_stationary_x_sample``, ``sv_qx_sample``,
``sv_g_sample``) and the scalar ``normal_logpdf``, which the particle
filter, quadrature, divergences and audits call directly or through the
spec's broadcasting callables and hooks.

Building a spec of the linear families does only what the exact
evaluators need: the parameter records run every check (stability,
symmetry, positive definiteness) once each, in scalar arithmetic where
a matrix is 1 x 1, and ``ssm_embed`` assembles the joint transition and innovation
matrices and checks the innovation covariance, the one embedded matrix
whose checks the records do not imply. The factors that only samplers and
densities use -- the Cholesky factors of ``R``, ``Qzeta`` and ``Qxi``,
the stationary covariances and their Cholesky factors -- are computed on
first use and then kept with the spec, so a likelihood sweep or a
Metropolis step that builds one spec per parameter never pays for them.
A Kalman grid sweep of the one-dimensional state-space model builds no
spec at all: ``ScalarSsmGrid`` runs the checks of ``scalar_ssm`` on
every grid point in one vectorized pass and keeps the four parameter
arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import HmmFactorization, ModelSpec

_LOG2PI = np.log(2.0 * np.pi)
_UNIT_EIG_TOL = 1e-9  # finite_hmm_stationary: distance of an eigenvalue from 1 and from the unit circle
_EMBEDDING_INVALID = "the joint-chain embedding of this state-space model is invalid"


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmParams:
    """Transition matrix and innovation covariance of the linear family.

    ``Phi`` is (p+q) x (p+q) with spectral radius < 1 and ``R`` is
    symmetric positive definite; ``p`` and ``q`` are the state and
    observation dimensions.
    """

    Phi: np.ndarray
    R: np.ndarray
    p: int
    q: int

    def __init__(self, Phi, R, p: int, q: int):
        Phi = np.asarray(Phi, dtype=float)
        R = np.asarray(R, dtype=float)
        d = p + q
        if p < 1 or q < 1:
            raise ValueError("state and observation dimensions must be positive")
        if Phi.shape != (d, d) or R.shape != (d, d):
            raise ValueError(f"Phi and R must be {d}x{d}")
        if not np.isfinite(Phi).all():
            raise ValueError("Phi must be finite")
        rho = spectral_radius(Phi)
        if rho >= 1.0:
            raise ValueError(f"spectral radius of Phi must be < 1, got {rho:.6g}")
        self._finish_init(Phi, R, p, q)

    def _finish_init(self, Phi, R, p: int, q: int) -> None:
        """Check ``R`` and set the fields; ``Phi`` is finite and stable already."""
        if not _is_symmetric(R):
            raise ValueError("R must be symmetric")
        self._finish_symmetric(Phi, R, p, q)

    def _finish_symmetric(self, Phi, R, p: int, q: int) -> None:
        """Check that ``R``, known to be finite and symmetric, is positive definite, and set the fields."""
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @cached_property
    def _stationary_cov(self) -> np.ndarray:
        """``glm_stationary_cov``'s value, read-only.

        A frozen record still keeps it, because ``cached_property`` writes
        the instance dictionary without ``__setattr__``.
        """
        gamma = stationary_cov(self.Phi, self.R)
        gamma.flags.writeable = False
        return gamma


@dataclass(frozen=True)
class SsmParams:
    """Linear Gaussian state-space model ``X' = AX + zeta``, ``Y = BX + xi``.

    The record checks that ``A`` and ``B`` are finite, that the spectral
    radius of ``A`` is below 1 and that ``Qzeta`` and ``Qxi`` are symmetric
    positive definite, in that order. When p = q = 1 it runs the same
    checks once on the four entries as plain floats: ``a`` and ``b``
    finite, ``|a| < 1`` and both variances finite and positive, which is
    what ``spectral_radius`` and ``_is_spd`` compute for a 1 x 1 matrix.
    """

    A: np.ndarray
    B: np.ndarray
    Qzeta: np.ndarray
    Qxi: np.ndarray

    def __init__(self, A, B, Qzeta, Qxi):
        A, B, Qzeta, Qxi = (np.array(M, dtype=float, ndmin=2, copy=None) for M in (A, B, Qzeta, Qxi))
        if A.shape == B.shape == Qzeta.shape == Qxi.shape == (1, 1):
            a, b = A.item(), B.item()
            if not math.isfinite(a):
                raise ValueError("A must be finite")
            if not math.isfinite(b):
                raise ValueError("B must be finite")
            if not abs(a) < 1.0:
                raise ValueError("spectral radius of A must be < 1")
            for name, v in (("Qzeta", Qzeta.item()), ("Qxi", Qxi.item())):
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"{name} must be symmetric positive definite")
        else:
            p = A.shape[0]
            q = B.shape[0]
            if A.shape != (p, p):
                raise ValueError("A must be square")
            if B.shape != (q, p):
                raise ValueError(f"B must be {q}x{p}")
            if Qzeta.shape != (p, p) or Qxi.shape != (q, q):
                raise ValueError("noise covariances have inconsistent shapes")
            for name, M in (("A", A), ("B", B)):
                if not np.isfinite(M).all():
                    raise ValueError(f"{name} must be finite")
            if spectral_radius(A) >= 1.0:
                raise ValueError("spectral radius of A must be < 1")
            for name, M in (("Qzeta", Qzeta), ("Qxi", Qxi)):
                if not _is_spd(M):
                    raise ValueError(f"{name} must be symmetric positive definite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Qzeta", Qzeta)
        object.__setattr__(self, "Qxi", Qxi)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True)
class SvParams:
    """Stochastic volatility parameters ``(beta, sigma, phi)``.

    ``beta`` and ``sigma`` must be strictly positive and ``|phi| < 1``.
    """

    beta: float
    sigma: float
    phi: float

    def __post_init__(self):
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not abs(self.phi) < 1.0:
            raise ValueError(f"|phi| must be < 1, got {self.phi}")

    @property
    def x_var(self) -> float:
        """Stationary variance of the log-volatility chain."""
        return self.sigma**2 / (1.0 - self.phi**2)


@dataclass(frozen=True)
class FiniteHmmParams:
    """Row-stochastic transition matrix ``P`` (KxK) and emissions ``G`` (KxL)."""

    P: np.ndarray
    G: np.ndarray

    def __init__(self, P, G):
        P = np.asarray(P, dtype=float)
        G = np.asarray(G, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if G.ndim != 2 or G.shape[0] != P.shape[0]:
            raise ValueError("G must have one row per state")
        for name, M in (("P", P), ("G", G)):
            if np.any(M < 0.0):
                raise ValueError(f"{name} must be non-negative")
            if np.max(np.abs(M.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"rows of {name} must sum to 1 within 1e-12")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "G", G)

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.G.shape[1]


def spectral_radius(M: np.ndarray) -> float:
    """Largest modulus of an eigenvalue of ``M``.

    A 1 x 1 matrix is its own eigenvalue, so its radius is ``abs`` of the
    entry, exactly. ``eigvals`` returns the same bits for entries of
    modulus between about 1e-20 and 1e20 and can miss by an ulp beyond,
    where it scales the matrix; the test ``< 1`` comes out the same.
    """
    M = np.atleast_2d(M)
    if M.shape == (1, 1):
        return abs(float(M[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _is_symmetric(M: np.ndarray) -> bool:
    """Whether ``M`` is finite and ``np.allclose(M, M.T, atol=1e-10)``.

    The elementwise test of ``np.allclose`` (``rtol=1e-5``) written out,
    which costs a fraction of the library call on the small matrices of
    a spec build. Non-finite matrices are rejected outright.
    """
    return bool(np.isfinite(M).all() and (np.abs(M - M.T) <= 1e-10 + 1e-5 * np.abs(M.T)).all())


def _is_spd(M: np.ndarray) -> bool:
    """Whether ``M`` is symmetric (``_is_symmetric``) with ``eigvalsh(M).min() > 0``.

    A 1 x 1 matrix is its own eigenvalue, which ``eigvalsh`` returns
    exactly, so it is tested as a finite positive number.
    """
    if M.shape == (1, 1):
        v = float(M[0, 0])
        return math.isfinite(v) and v > 0.0
    return _is_symmetric(M) and not np.linalg.eigvalsh(M).min() <= 0.0


class _Once:
    """``compute(*args)``, evaluated on the first call only and then kept.

    The factors that only samplers and densities need are held this way.
    A slotted object is the lightest holder per spec: a closure over a
    one-item list costs about four times its memory, a ``functools.cache``
    wrapper more still, and a grid sweep keeps every spec of the grid.
    """

    __slots__ = ("compute", "args", "value")

    def __init__(self, compute, *args):
        self.compute, self.args, self.value = compute, args, None

    def __call__(self):
        if self.value is None:
            self.value = self.compute(*self.args)
        return self.value


# ---------------------------------------------------------------------------
# Stationary covariance of the linear family
# ---------------------------------------------------------------------------


# A^(2^64) underflows to zero for every spectral radius below 1 in double
# precision, so the doubling loop below always stops by this cap.
_MAX_SQUARINGS = 64


def stationary_cov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solution ``Gamma`` of the Lyapunov equation ``Gamma = A Gamma A^T + Q``.

    Doubling iteration (Smith 1968; Anderson & Moore 1979): after k steps
    ``Gamma`` holds the first 2^k terms of ``sum_j A^j Q (A^T)^j`` and
    ``A`` has been squared k times, so the cost grows like
    ``log(1 / (1 - rho))`` instead of ``1 / (1 - rho)``. The spectral
    radius ``rho`` of ``A`` must be below 1, which the parameter records
    check at construction.
    """
    gamma = np.array(Q, dtype=float)
    Ak = np.array(A, dtype=float)
    eps = np.finfo(float).eps
    for _ in range(_MAX_SQUARINGS):
        step = Ak @ gamma @ Ak.T
        gamma = gamma + step
        if np.linalg.norm(step) <= eps * np.linalg.norm(gamma):
            break
        Ak = Ak @ Ak
    return 0.5 * (gamma + gamma.T)


def glm_stationary_cov(params: GlmParams) -> np.ndarray:
    """Stationary covariance ``Gamma = sum_k Phi^k R (Phi^T)^k`` of the linear family.

    It is the solution of ``Gamma = Phi Gamma Phi^T + R``, computed by
    :func:`stationary_cov` on the first call for a record and then kept
    with it, so every caller shares one read-only array.
    """
    return params._stationary_cov


# ---------------------------------------------------------------------------
# Gaussian linear family
# ---------------------------------------------------------------------------


def _gaussian_factors(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky factor ``L`` of ``cov``, its inverse and ``log det cov``."""
    chol = np.linalg.cholesky(cov)
    return chol, np.linalg.inv(chol), 2.0 * np.sum(np.log(np.diag(chol)))


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M @ v`` per vector on the last axis of ``v``, with that vector's own bits in any batch."""
    return (M @ v[..., None])[..., 0]


def _stationary_chol(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Cholesky factor of the stationary covariance of ``x' = Ax + N(0, Q)``."""
    return np.linalg.cholesky(stationary_cov(A, Q))


def _glm_stationary_chol(params: GlmParams) -> np.ndarray:
    """Cholesky factor of the record's own ``glm_stationary_cov``, so the doubling runs once per record."""
    return np.linalg.cholesky(glm_stationary_cov(params))


def normal_logpdf(dev, var):
    """Log density ``log N(dev; 0, var)``; broadcasts over ``dev`` and ``var``.

    It squares by multiplication: on Python floats ``dev**2`` is C ``pow``,
    whose last bit can differ from the multiply numpy does on arrays.
    The value is ``-0.5 * (log(2 pi) + log(var) + dev * dev / var)``,
    computed in that order; the quotient is a fresh float buffer of the
    broadcast shape, and the rest updates it in place. Python floats give
    a numpy scalar.
    """
    q = dev * dev / var
    q += _LOG2PI + np.log(var)
    q *= -0.5
    return q


def _pair_value(v):
    """A transition log density: a Python float for one pair, else the array."""
    return float(v) if np.ndim(v) == 0 else v


def glm_spec(params: GlmParams) -> ModelSpec:
    """Model with transition law ``z' ~ N(Phi z, R)`` and stationary law ``N(0, Gamma)``.

    The transition is ``_linear_gaussian(Phi, R, p + q)`` on the stacked
    pair, broadcast over pairs as ``ModelSpec`` describes. The factors of
    ``R`` and ``Gamma`` are computed on first use.
    """
    return _linear_spec(params)


def _linear_spec(params: GlmParams, **fields) -> ModelSpec:
    """``glm_spec(params)`` with the further ``ModelSpec`` fields ``fields`` (``ssm_spec``'s views)."""
    Phi, R, p, q = params.Phi, params.R, params.p, params.q
    d = p + q
    logpdf, sample = _linear_gaussian(Phi, R, d)
    chol_g = _Once(_glm_stationary_chol, params)

    def _stack(z):
        return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float)) for v in z], axis=-1)

    def trans_logpdf(z, z_next):
        return _pair_value(logpdf(_stack(z), _stack(z_next)))

    def sample_step(z, rng):
        znew = sample(_stack(z), rng)
        return (znew[..., :p], znew[..., p:])

    def sample_stationary(n, rng):
        z0 = rng.standard_normal((n, d)) @ chol_g().T
        return (z0[:, :p], z0[:, p:])

    return ModelSpec(
        state_dim=p,
        obs_dim=q,
        trans_logpdf=trans_logpdf,
        sample_step=sample_step,
        sample_stationary=sample_stationary,
        glm=params,
        **fields,
    )


def ssm_embed(params: SsmParams) -> GlmParams:
    """Embed the state-space model into the linear family.

    With ``eps_k = (zeta_k, B zeta_k + xi_k)`` the joint chain
    ``Z_k = (X_k, Y_k)`` has transition matrix ``[[A, 0], [BA, 0]]`` and
    innovation covariance assembled from ``Cov(zeta, B zeta + xi)``.
    The spectrum of the embedded transition matrix is A's plus zeros, which
    ``SsmParams`` has checked, so only its finiteness is checked again;
    ``R`` takes every check of ``GlmParams``, and a failed check is
    re-raised naming the embedding.

    When p = q = 1 the blocks are products of plain floats, each added to
    ``+0.0`` as a 1 x 1 matrix product adds its one term, so ``Phi`` and
    ``R`` have the bits of the matrix assembly. The two off-diagonal
    entries of ``R`` are then one float, so ``R`` is symmetric exactly
    when it is finite, and that is what is checked in its place. The test
    ``eigvalsh(R).min() > 0`` stays: ``R`` can be singular in floating
    point although both variances are positive (``1e10 + 1e-8 == 1e10``).
    """
    A, B, Qz, Qx = params.A, params.B, params.Qzeta, params.Qxi
    p, q = params.p, params.q
    glm = object.__new__(GlmParams)
    try:
        if p == q == 1:
            a, b, qz, qx = A.item(), B.item(), Qz.item(), Qx.item()
            ba, bqz = 0.0 + b * a, 0.0 + b * qz
            r_yy = (0.0 + bqz * b) + qx
            if not math.isfinite(ba):
                raise ValueError("Phi must be finite")
            if not (math.isfinite(bqz) and math.isfinite(r_yy)):
                raise ValueError("R must be symmetric")
            glm._finish_symmetric(np.array([[a, 0.0], [ba, 0.0]]), np.array([[qz, bqz], [bqz, r_yy]]), p, q)
        else:
            Phi = np.zeros((p + q, p + q))
            Phi[:p, :p] = A
            Phi[p:, :p] = B @ A
            R = np.empty((p + q, p + q))
            with np.errstate(over="ignore"):  # an overflowed block is non-finite, which GlmParams rejects
                BQz = B @ Qz
                R[:p, :p] = Qz
                R[:p, p:] = Qz @ B.T
                R[p:, :p] = BQz
                R[p:, p:] = BQz @ B.T + Qx
            if not np.isfinite(Phi).all():
                raise ValueError("Phi must be finite")
            glm._finish_init(Phi, R, p, q)
    except ValueError as err:
        raise ValueError(f"{_EMBEDDING_INVALID}: {err}") from err
    return glm


def _linear_gaussian(M: np.ndarray, cov: np.ndarray, p: int):
    """Broadcasting log density and sampler of ``N(M x, cov)`` given states ``x``.

    The linear family's only density and sampler. A scalar factor (``M``
    is 1 x 1) is ``normal_logpdf`` and one line of sampling. Otherwise a
    state has shape ``(..., p)``, or ``(...)`` when ``p == 1``, the
    outcome keeps its trailing axis, and ``L``, ``L^{-1}`` and the log
    determinant of ``cov = L L^T`` are computed on first use. Every
    product goes through ``_matvec``, so a batch gives the per-state bits.
    """
    if M.shape == (1, 1):
        m, var = float(M[0, 0]), float(cov[0, 0])
        return (lambda x, v: normal_logpdf(v - m * x, var),
                lambda x, rng: m * x + np.sqrt(var) * rng.standard_normal(np.shape(x)))
    factors = _Once(_gaussian_factors, cov)
    d = M.shape[0]

    def mean(x):
        x = np.asarray(x, dtype=float)
        return _matvec(M, x[..., None] if p == 1 else x)

    def logpdf(x, v):
        _, chol_inv, logdet = factors()
        u = _matvec(chol_inv, v - mean(x))
        return -0.5 * (d * _LOG2PI + logdet + (u * u).sum(-1))

    def sample(x, rng):
        mu = mean(x)
        return mu + _matvec(factors()[0], rng.standard_normal(mu.shape))

    return logpdf, sample


def _float_phi(params: GlmParams):
    """``Phi``'s entries ``(p00, p01, p10, p11)`` as floats when ``Phi`` is 2 x 2 with a zero y column, else None.

    Every scalar state-space embedding has this shape, because y never
    feeds back. Row i of ``Phi z`` is then ``pi0 x + pi1 y`` with one
    product exactly zero, so BLAS's fused multiply-add cannot change its
    rounding, and ``0.0 + pi0 * x + pi1 * y`` on Python floats gives the
    bits of ``_matvec(Phi, z)``; the leading ``0.0 +`` gives its signed
    zeros, since the product starts its sum from +0. With a non-zero y
    column the float sum differs from ``_matvec`` in the last bit in
    about 40% of random cases, so such a record keeps the matrix loops.
    """
    Phi = params.Phi
    if Phi.shape != (2, 2) or Phi[0, 1] != 0.0 or Phi[1, 1] != 0.0:
        return None
    return tuple(Phi.ravel().tolist())


def _linear_path(params: GlmParams, z0, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``x`` and ``y`` of ``z_0, ..., z_n`` under ``z' = Phi z + N(0, R)`` from the pair ``z0``.

    The step noise is one ``(n, p + q)`` standard-normal block, which the
    generator fills in the order that ``n`` calls of the linear
    ``sample_step`` draw it, mapped by one batched ``_matvec(L, .)`` with
    ``L`` the Cholesky factor of ``R``. The path is then
    ``z_{k+1} = _matvec(Phi, z_k) + noise_k`` in one preallocated array,
    so it has the bytes of the per-step loop. A record with ``_float_phi``
    (every scalar state-space embedding) runs that recursion on Python
    floats, ``x, y = (0.0 + p00 x + p01 y) + nx, (0.0 + p10 x + p11 y) + ny``,
    with the same bytes at about a tenth of the cost.
    """
    Phi, p = params.Phi, params.p
    d = p + params.q
    noise = _matvec(np.linalg.cholesky(params.R), rng.standard_normal((n, d)))
    z = np.empty((n + 1, d))
    z[0, :p], z[0, p:] = z0
    phi = _float_phi(params)
    if phi is None:
        for k in range(n):
            np.add(_matvec(Phi, z[k]), noise[k], out=z[k + 1])
    else:
        p00, p01, p10, p11 = phi

        def steps(x, y):  # z_1, ..., z_n flattened, so that np.fromiter fills the block without a list
            for nx, ny in zip(*noise.T.tolist()):
                x, y = (0.0 + p00 * x + p01 * y) + nx, (0.0 + p10 * x + p11 * y) + ny
                yield x
                yield y

        z[1:] = np.fromiter(steps(*z[0].tolist()), float, 2 * n).reshape(n, 2)
    return np.ascontiguousarray(z[:, :p]), np.ascontiguousarray(z[:, p:])


def ssm_spec(params: SsmParams) -> ModelSpec:
    """State-space model as a ModelSpec, with both views attached.

    The returned spec carries the embedded linear parameters (for the
    exact Kalman evaluator) and the HMM factorization
    ``qx = N(Ax, Qzeta)``, ``g = N(Bx, Qxi)`` (for particle filtering and
    quadrature), each factor built by ``_linear_gaussian``. The stationary
    x-marginal is computed on first use.
    """
    glm = ssm_embed(params)
    A, B, Qz, Qx = params.A, params.B, params.Qzeta, params.Qxi
    p = params.p
    chol_gx = _Once(_stationary_chol, A, Qz)  # stationary x-marginal

    def stationary_x_sample(n, rng):
        draws = rng.standard_normal((n, p)) @ chol_gx().T
        return draws[:, 0] if p == 1 else draws

    hmm = HmmFactorization(*_linear_gaussian(A, Qz, p), *_linear_gaussian(B, Qx, p), stationary_x_sample)
    return _linear_spec(glm, hmm=hmm, ssm=params)


def scalar_ssm(a: float, b: float = 1.0, q_state: float = 1.0, q_obs: float = 0.2) -> ModelSpec:
    """Convenience constructor for the one-dimensional state-space model.

    The build takes the 1 x 1 branches of ``SsmParams`` and ``ssm_embed``:
    it checks ``a``, ``b`` and ``b a`` finite, ``|a| < 1``, both variances
    finite and positive and the embedded ``R`` finite, all on plain
    floats, and ``eigvalsh(R).min() > 0`` on the assembled 2 x 2 ``R``,
    which can be singular in floating point although both variances are
    positive. Each failure raises the ``ValueError`` of the general
    matrix build, with its message, and the arrays have its bytes.
    """
    return ssm_spec(SsmParams(A=[[a]], B=[[b]], Qzeta=[[q_state]], Qxi=[[q_obs]]))


@dataclass(frozen=True, eq=False)
class ScalarSsmGrid:
    """The parameters of ``scalar_ssm`` at every point of a grid: four read-only (G,) float arrays.

    Scalars broadcast against the arrays. The constructor runs the checks
    of ``scalar_ssm`` on every point in one vectorized pass, in its order
    and its float arithmetic: ``a`` and ``b`` finite, ``|a| < 1``, both
    variances finite and positive, the embedding's ``0.0 + b*a``,
    ``0.0 + b*q_state`` and ``(0.0 + bqz*b) + q_obs`` finite, and one
    ``eigvalsh`` over the stacked 2 x 2 embedded ``R``, which gives each
    matrix the bits it gets alone. At the first failing point it raises
    the ``ValueError`` that ``scalar_ssm`` raises for that point, prefixed
    with the point's index and values. An exact Kalman grid sweep
    (``likelihood.grid_increments`` and the grid calls of ``posterior``)
    takes the record in place of one spec per point. ``len`` is the
    number of points, and indexing by a boolean (G,) mask gives the
    record of the selected points.
    """

    a: np.ndarray
    b: np.ndarray
    q_state: np.ndarray
    q_obs: np.ndarray

    def __init__(self, a, b, q_state, q_obs):
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, q_state, q_obs)))
        a, b, qz, qx = (np.array(v) for v in arrays)  # own copies, made read-only once checked
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"grid parameters must broadcast to a non-empty (G,) array, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry fails its check below
            ba, bqz = 0.0 + b * a, 0.0 + b * qz
            r_yy = (0.0 + bqz * b) + qx
        checks = [
            (~np.isfinite(a), "A must be finite"),
            (~np.isfinite(b), "B must be finite"),
            (~(np.abs(a) < 1.0), "spectral radius of A must be < 1"),
            (~(np.isfinite(qz) & (qz > 0.0)), "Qzeta must be symmetric positive definite"),
            (~(np.isfinite(qx) & (qx > 0.0)), "Qxi must be symmetric positive definite"),
            (~np.isfinite(ba), f"{_EMBEDDING_INVALID}: Phi must be finite"),
            (~(np.isfinite(bqz) & np.isfinite(r_yy)), f"{_EMBEDDING_INVALID}: R must be symmetric"),
        ]
        ok = ~np.logical_or.reduce([bad for bad, _ in checks])
        R = np.empty((int(ok.sum()), 2, 2))
        R[:, 0, 0], R[:, 1, 0], R[:, 0, 1], R[:, 1, 1] = qz[ok], bqz[ok], bqz[ok], r_yy[ok]
        singular = np.zeros(a.shape, bool)
        singular[ok] = np.linalg.eigvalsh(R)[:, 0] <= 0.0  # each matrix's least eigenvalue, first in ascending order
        checks.append((singular, f"{_EMBEDDING_INVALID}: R must be positive definite"))
        failed = ~ok | singular
        fields = {"a": a, "b": b, "q_state": qz, "q_obs": qx}
        if failed.any():
            i = int(np.argmax(failed))
            message = next(text for bad, text in checks if bad[i])
            values = ", ".join(f"{name} = {float(v[i])!r}" for name, v in fields.items())
            raise ValueError(f"grid point {i} ({values}): {message}")
        for name, v in fields.items():
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, mask) -> "ScalarSsmGrid":
        """The record of the points where the boolean (G,) ``mask`` is true, in grid order."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != self.a.shape or not mask.any():
            raise ValueError(f"a grid takes a boolean mask of shape {self.a.shape} that selects a point, "
                             f"got {mask.dtype} of shape {mask.shape}")
        return ScalarSsmGrid(self.a[mask], self.b[mask], self.q_state[mask], self.q_obs[mask])


# ---------------------------------------------------------------------------
# HMM families with a scalar state and observation
# ---------------------------------------------------------------------------


def _hmm_spec(hmm: HmmFactorization, **fields) -> ModelSpec:
    """The joint chain ``z = (x, y)`` of an HMM, derived from its factorization.

    ``trans_logpdf`` is ``qx_logpdf + g_logpdf``; a step draws every
    ``x'`` and then every ``y'``; a stationary block draws every ``x``
    from ``stationary_x_sample`` and then every ``y`` from ``g_sample``.
    All three broadcast over pairs through the hooks, and one pair draws
    as a block of one. The hooks receive scalar states without their
    trailing axis, so finite families convert them back to indices.
    ``fields`` holds the family's parameters.
    """

    def trans_logpdf(z, z_next):
        x, x1, y1 = (np.atleast_1d(v)[..., 0] for v in (z[0], *z_next))
        return _pair_value(hmm.qx_logpdf(x, x1) + hmm.g_logpdf(x1, y1))

    def sample_step(z, rng):
        x1 = hmm.qx_sample(np.atleast_1d(z[0])[..., 0], rng)
        return (x1[..., None], hmm.g_sample(x1, rng)[..., None])

    def sample_stationary(n, rng):
        x = hmm.stationary_x_sample(n, rng)
        return (x[:, None], hmm.g_sample(x, rng)[:, None])

    return ModelSpec(
        state_dim=1,
        obs_dim=1,
        trans_logpdf=trans_logpdf,
        sample_step=sample_step,
        sample_stationary=sample_stationary,
        hmm=hmm,
        **fields,
    )


# ---------------------------------------------------------------------------
# Stochastic volatility family
# ---------------------------------------------------------------------------


def sv_qx_logpdf(params: SvParams, x, x_next):
    """SV hidden-state transition log density ``log N(x_next; phi x, sigma^2)``.

    Broadcasts over ``x`` and ``x_next``; Python floats give a numpy scalar.
    """
    return normal_logpdf(x_next - params.phi * x, params.sigma**2)


def sv_g_logpdf(params: SvParams, x, y):
    """SV emission log density ``log N(y; 0, beta^2 e^x)``; broadcasts over ``x`` and ``y``.

    The value is ``-0.5 * (log(2 pi) + log(beta^2) + x + y * y * exp(-x) / beta^2)``,
    computed in that order; the terms in ``x`` alone take ``x``'s shape,
    and the rest goes into one fresh buffer of the broadcast shape,
    updated in place.
    """
    b2 = params.beta**2
    q = y * y * np.exp(-x)
    q /= b2
    q += _LOG2PI + np.log(b2) + x
    q *= -0.5
    return q


def sv_stationary_x_sample(params: SvParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of the stationary log-volatility ``N(0, sigma^2 / (1 - phi^2))``."""
    return np.sqrt(params.x_var) * rng.standard_normal(n)


def sv_qx_sample(params: SvParams, x, rng: np.random.Generator):
    """One draw of ``x' = phi x + sigma u`` per entry of ``x`` (a float gives a numpy scalar)."""
    return params.phi * x + params.sigma * rng.standard_normal(np.shape(x))


def sv_g_sample(params: SvParams, x, rng: np.random.Generator):
    """One draw of ``y = beta exp(x/2) u`` per entry of ``x`` (a float gives a numpy scalar)."""
    return params.beta * np.exp(x / 2.0) * rng.standard_normal(np.shape(x))


def sv_spec(params: SvParams) -> ModelSpec:
    """Stochastic volatility model as an HMM.

    Log-volatility transition ``x' ~ N(phi x, sigma^2)``; given ``x`` the
    observation is ``y = beta exp(x/2) u`` with ``u`` standard normal, so
    the emission density is ``N(0, beta^2 e^x)``. The stationary law is
    sampled exactly: ``X ~ N(0, sigma^2 / (1 - phi^2))``.
    """
    hmm = HmmFactorization(
        qx_logpdf=partial(sv_qx_logpdf, params),
        qx_sample=partial(sv_qx_sample, params),
        g_logpdf=partial(sv_g_logpdf, params),
        g_sample=partial(sv_g_sample, params),
        stationary_x_sample=partial(sv_stationary_x_sample, params),
    )
    return _hmm_spec(hmm, sv=params)


# ---------------------------------------------------------------------------
# Finite-state oracle family
# ---------------------------------------------------------------------------


def finite_hmm_stationary(params: FiniteHmmParams) -> np.ndarray:
    """Stationary vector ``pi`` of ``P`` with ``pi P = pi``.

    Raises if the unit eigenvalue is not simple (reducible chain) or if
    another eigenvalue sits on the unit circle (periodic chain).
    """
    P = params.P
    w, v = np.linalg.eig(P.T)
    on_circle = np.abs(np.abs(w) - 1.0) < _UNIT_EIG_TOL
    unit = np.abs(w - 1.0) < _UNIT_EIG_TOL
    if unit.sum() != 1 or on_circle.sum() != 1:
        raise ValueError("transition matrix has no unique stationary vector (reducible or periodic)")
    pi = np.real(v[:, np.argmax(unit)])
    pi = pi / pi.sum()
    if np.any(pi < -1e-12):
        raise ValueError("stationary eigenvector has negative entries")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def _inverse_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with each row's total raised to ``+inf``.

    A row may sum to just under 1, so a uniform draw can reach its total;
    with the last positive entry (and the zero entries after it) at
    ``+inf``, such a draw lands on the row's last positive-probability
    state instead of one past the end. Draws below the total are unchanged.
    """
    cum = np.cumsum(p, axis=-1)
    cum[cum >= cum[..., -1:]] = np.inf
    return cum


def finite_hmm_spec(params: FiniteHmmParams) -> ModelSpec:
    """Finite HMM with exact stationary law ``pi(x, y) = piX(x) G[x, y]``."""
    pi_x = finite_hmm_stationary(params)
    with np.errstate(divide="ignore"):
        logP = np.log(params.P)
        logG = np.log(params.G)
    cumP, cum_pi, cumG = _inverse_cdf(params.P), _inverse_cdf(pi_x), _inverse_cdf(params.G)

    def idx(v):
        return np.asarray(v, dtype=int)

    def draw(cum, u):
        # inverse CDF with searchsorted(side="right") semantics: u == 0.0 never lands on a zero-probability entry
        return (u[..., None] >= cum).sum(-1)

    hmm = HmmFactorization(
        qx_logpdf=lambda x, x_next: logP[idx(x), idx(x_next)],
        qx_sample=lambda x, rng: draw(cumP[idx(x)], rng.random(np.shape(x))),
        g_logpdf=lambda x, y: logG[idx(x), idx(y)],
        g_sample=lambda x, rng: draw(cumG[idx(x)], rng.random(np.shape(x))),
        stationary_x_sample=lambda n, rng: draw(cum_pi, rng.random(n)),
    )
    return _hmm_spec(hmm, finite=params)


# ---------------------------------------------------------------------------
# An i.i.d. specialization used by the divergence identities
# ---------------------------------------------------------------------------


def iid_gaussian_spec(mu: float, sd: float) -> ModelSpec:
    """HMM whose emission ignores the state: observations i.i.d. N(mu, sd^2).

    The hidden chain regenerates from N(0, 1) at every step, so the
    transition does not depend on the current state at all.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not (math.isfinite(sd) and sd > 0.0):
        raise ValueError(f"sd must be positive and finite, got {sd}")
    var = sd * sd
    hmm = HmmFactorization(  # the zeros give the state-free densities one value per state
        qx_logpdf=lambda x, x_next: normal_logpdf(x_next, 1.0) + np.zeros(np.shape(x)),
        qx_sample=lambda x, rng: rng.standard_normal(np.shape(x)),
        g_logpdf=lambda x, y: normal_logpdf(y - mu, var) + np.zeros(np.shape(x)),
        g_sample=lambda x, rng: mu + sd * rng.standard_normal(np.shape(x)),
        stationary_x_sample=lambda n, rng: rng.standard_normal(n),
    )
    return _hmm_spec(hmm)
