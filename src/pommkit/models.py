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
symmetry, positive definiteness) once each, in scalar arithmetic when
p = q = 1, and ``ssm_embed`` assembles the joint transition and innovation
matrices and checks the innovation covariance, the one embedded matrix
whose checks the records do not imply. When p = q = 1 that check runs
once per ``(b, q_state, q_obs)``: the memo ``_scalar_embedding`` keeps
``R``, its log determinant and the emission factor. The factors that
only samplers and densities use -- the Cholesky factors of ``R``,
``Qzeta`` and ``Qxi``, the stationary covariances and their Cholesky
factors -- live on the parameter records, as cached properties of
``GlmParams`` and ``SsmParams`` computed on first use, so a likelihood
sweep or a Metropolis step that builds one spec per parameter never pays
for them.
A Kalman grid sweep of the one-dimensional state-space model builds no
spec at all: ``ScalarSsmGrid`` runs the checks of ``scalar_ssm`` on
every grid point in one vectorized pass and keeps the four parameter
arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .core import HmmFactorization, ModelSpec
from .rng import _is_int

_LOG2PI = np.log(2.0 * np.pi)
_UNIT_EIG_TOL = 1e-9  # finite_hmm_stationary: distance of an eigenvalue from 1 and from the unit circle
_EMBEDDING_INVALID = "the joint-chain embedding of this state-space model is invalid"
_SCALAR_R_MEMO = 128  # _scalar_embedding: distinct (b, q_state, q_obs) triples kept
_ZEROS_2X2 = np.zeros((2, 2))  # copied for each scalar embedding's Phi; never written
_ZEROS_2X2.flags.writeable = False


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmParams:
    """Transition matrix and innovation covariance of the linear family.

    ``Phi`` is (p+q) x (p+q) with spectral radius < 1 and ``R`` is
    symmetric positive definite; ``p`` and ``q`` are the state and
    observation dimensions, positive integers (not bools).
    """

    Phi: np.ndarray
    R: np.ndarray
    p: int
    q: int

    def __init__(self, Phi, R, p: int, q: int):
        Phi = np.asarray(Phi, dtype=float)
        R = np.asarray(R, dtype=float)
        if not (_is_int(p) and _is_int(q)):
            raise ValueError(f"state and observation dimensions must be integers, got p={p!r} and q={q!r}")
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
        """Check ``R`` and set the fields; ``Phi`` is finite and stable already.

        ``R`` must pass ``eigvalsh(R).min() > 0`` and have the Cholesky
        factor that the joint-chain density and sampler take
        (``_has_cholesky``), the rule of ``_scalar_embedding``; either
        failure raises "R must be positive definite".
        """
        if not _is_symmetric(R):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(R).min() <= 0.0 or not _has_cholesky(R):
            raise ValueError("R must be positive definite")
        self._set_fields(Phi, R, p, q)

    def _set_fields(self, Phi, R, p: int, q: int, **kept) -> None:
        """Set the fields of a record whose ``Phi`` and ``R`` are checked already, and any ``kept`` cached property.

        One update of the instance dictionary, which a frozen record allows
        and which costs less than one ``object.__setattr__`` per field.
        """
        vars(self).update(Phi=Phi, R=R, p=p, q=q, **kept)

    @cached_property
    def _stationary_cov(self) -> np.ndarray:
        """``glm_stationary_cov``'s value, read-only.

        A frozen record still keeps it, because ``cached_property`` writes
        the instance dictionary without ``__setattr__``.
        """
        gamma = stationary_cov(self.Phi, self.R)
        gamma.flags.writeable = False
        return gamma

    @cached_property
    def _stationary_chol(self) -> np.ndarray:
        """The Cholesky factor of ``_stationary_cov``, kept the same way, for the stationary sampler."""
        return np.linalg.cholesky(self._stationary_cov)

    @cached_property
    def _logdet_R(self) -> float:
        """``slogdet(R)``'s log determinant as a float, kept like ``_stationary_cov``.

        A scalar state-space embedding gets it from ``_scalar_embedding``,
        which computes it once per ``(b, q_state, q_obs)``.
        """
        return float(np.linalg.slogdet(self.R)[1])

    @cached_property
    def _r_factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``_gaussian_factors(R)``, kept the same way, for the joint-chain density and sampler."""
        return _gaussian_factors(self.R)


@dataclass(frozen=True)
class SsmParams:
    """Linear Gaussian state-space model ``X' = AX + zeta``, ``Y = BX + xi``.

    The record checks that ``A`` and ``B`` are finite, that the spectral
    radius of ``A`` is below 1 and that ``Qzeta`` and ``Qxi`` are symmetric
    positive definite, in that order. When p = q = 1 it runs the same
    checks once on the four entries as plain floats
    (``_check_scalar_ssm``), which is what ``spectral_radius`` and
    ``_is_spd`` compute for a 1 x 1 matrix. Four Python floats, as
    ``scalar_ssm`` passes them, are checked first and then converted each
    by ``_matrix_1x1``: the arrays, flags included, that the general
    conversion makes of ``[[v]]``, at under half its cost. No conversion
    of a float can fail.
    """

    A: np.ndarray
    B: np.ndarray
    Qzeta: np.ndarray
    Qxi: np.ndarray

    def __init__(self, A, B, Qzeta, Qxi):
        if type(A) is type(B) is type(Qzeta) is type(Qxi) is float:
            _check_scalar_ssm(A, B, Qzeta, Qxi)
            A, B, Qzeta, Qxi = _matrix_1x1(A), _matrix_1x1(B), _matrix_1x1(Qzeta), _matrix_1x1(Qxi)
            vars(self).update(A=A, B=B, Qzeta=Qzeta, Qxi=Qxi)  # one update, not one frozen setter per field
            return
        A, B, Qzeta, Qxi = (np.array(M, dtype=float, ndmin=2, copy=None) for M in (A, B, Qzeta, Qxi))
        if A.shape == B.shape == Qzeta.shape == Qxi.shape == (1, 1):
            _check_scalar_ssm(A.item(), B.item(), Qzeta.item(), Qxi.item())
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
        vars(self).update(A=A, B=B, Qzeta=Qzeta, Qxi=Qxi)

    @cached_property
    def _x_stationary_chol(self) -> np.ndarray:
        """The Cholesky factor of the hidden chain's stationary covariance, kept like ``GlmParams._stationary_cov``."""
        return np.linalg.cholesky(stationary_cov(self.A, self.Qzeta))

    @cached_property
    def _qz_factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``_gaussian_factors(Qzeta)``, kept the same way, for the hidden-state density and sampler."""
        return _gaussian_factors(self.Qzeta)

    @cached_property
    def _qx_factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``_gaussian_factors(Qxi)``, kept the same way, for the emission density and sampler."""
        return _gaussian_factors(self.Qxi)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[0]


def _matrix_1x1(v: float) -> np.ndarray:
    """``np.array([[v]])`` for a Python float ``v``, the same bytes and flags, at about half its cost."""
    M = np.empty((1, 1))
    M[0, 0] = v
    return M


def _check_scalar_ssm(a: float, b: float, qz: float, qx: float) -> None:
    """``SsmParams``'s checks of a 1 x 1 model on its four entries as floats, in order and with its messages."""
    if not math.isfinite(a):
        raise ValueError("A must be finite")
    if not math.isfinite(b):
        raise ValueError("B must be finite")
    if not abs(a) < 1.0:
        raise ValueError("spectral radius of A must be < 1")
    if not (math.isfinite(qz) and qz > 0.0):
        raise ValueError("Qzeta must be symmetric positive definite")
    if not (math.isfinite(qx) and qx > 0.0):
        raise ValueError("Qxi must be symmetric positive definite")


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
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
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
    """Largest modulus of an eigenvalue of the square matrix ``M``."""
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _is_symmetric(M: np.ndarray) -> bool:
    """Whether ``M`` is finite and ``np.allclose(M, M.T, atol=1e-10)``; non-finite matrices are rejected outright."""
    return np.isfinite(M).all() and np.allclose(M, M.T, atol=1e-10)


def _is_spd(M: np.ndarray) -> bool:
    """Whether ``M`` is symmetric (``_is_symmetric``) with ``eigvalsh(M).min() > 0``."""
    return _is_symmetric(M) and not np.linalg.eigvalsh(M).min() <= 0.0


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


def _stack(z):
    """A pair ``(x, y)`` as one vector ``z`` on the last axis, in float."""
    return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float)) for v in z], axis=-1)


def glm_spec(params: GlmParams) -> ModelSpec:
    """Model with transition law ``z' ~ N(Phi z, R)`` and stationary law ``N(0, Gamma)``.

    The transition is ``_linear_gaussian(Phi, R, p + q, ...)`` on the
    stacked pair, broadcast over pairs as ``ModelSpec`` describes. The
    factors of ``R`` and ``Gamma`` are computed on first use and kept on
    the record.
    """
    return _linear_spec(params)


def _linear_spec(params: GlmParams, hmm=None, ssm=None) -> ModelSpec:
    """``glm_spec(params)`` with ``ssm_spec``'s views ``hmm`` and ``ssm``."""
    Phi, p, q = params.Phi, params.p, params.q
    d = p + q
    logpdf, sample = _linear_gaussian(Phi, params.R, d, lambda: params._r_factors)

    def trans_logpdf(z, z_next):
        return _pair_value(logpdf(_stack(z), _stack(z_next)))

    def sample_step(z, rng):
        znew = sample(_stack(z), rng)
        return (znew[..., :p], znew[..., p:])

    def sample_stationary(n, rng):
        z0 = rng.standard_normal((n, d)) @ params._stationary_chol.T
        return (z0[:, :p], z0[:, p:])

    # positional, in field order (state_dim, obs_dim, ..., hmm, glm, ssm): a keyword call costs half as much again
    return ModelSpec(p, q, trans_logpdf, sample_step, sample_stationary, hmm, params, ssm)


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
    ``R`` have the bits of the matrix assembly. ``b a`` is checked finite
    first and ``Phi`` is a fresh array per call; ``R`` does not depend on
    ``a`` and comes from ``_scalar_embedding``, which checks it once per
    ``(b, q_state, q_obs)`` and returns one read-only array that every
    record with those floats shares, with its log determinant. A failed
    check is never kept, so it raises again, with the same message, on
    every call.
    """
    return _embed(params)[0]


def _embed(params: SsmParams):
    """``ssm_embed(params)`` and, when p = q = 1, the emission that ``_scalar_embedding`` keeps, else None."""
    A, B, Qz, Qx = params.A, params.B, params.Qzeta, params.Qxi
    glm, emission = object.__new__(GlmParams), None
    try:
        if A.shape == B.shape == (1, 1):  # p = q = 1
            a, b = A.item(), B.item()
            ba = 0.0 + b * a
            if not math.isfinite(ba):
                raise ValueError("Phi must be finite")
            R, logdet_R, emission = _scalar_embedding(b, Qz.item(), Qx.item())
            Phi = _ZEROS_2X2.copy()  # the bytes of np.array([[a, 0.0], [ba, 0.0]]) at half its cost
            Phi[0, 0], Phi[1, 0] = a, ba
            glm._set_fields(Phi, R, 1, 1, _logdet_R=logdet_R)
        else:
            p, q = params.p, params.q
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
    return glm, emission


@lru_cache(maxsize=_SCALAR_R_MEMO)
def _scalar_embedding(b: float, qz: float, qx: float) -> tuple[np.ndarray, float, tuple]:
    """What every p = q = 1 build with one ``(b, qz, qx)`` shares, whatever its ``a``, built and checked once.

    The tuple ``(R, logdet_R, emission)``: the checked, read-only embedded
    innovation covariance, its ``slogdet`` log determinant as a float,
    which ``delta_glm_closed`` reads through ``GlmParams._logdet_R``, and
    ``_scalar_gaussian(b, qx)``, the density and sampler of
    ``g = N(b x, qx)``. The factors of ``R`` are not kept here: each
    record computes its own on first use (``GlmParams._r_factors``).
    ``R = [[qz, b qz], [b qz, b^2 qz + qx]]`` with the bits of the matrix
    assembly. Its two off-diagonal entries are one float, so ``R`` is
    symmetric exactly when it is finite, and that is what is checked in
    place of ``GlmParams``'s symmetry test. The test
    ``eigvalsh(R).min() > 0`` stays: ``R`` can be singular in floating
    point although both variances are positive (``1e10 + 1e-8 == 1e10``).
    ``R`` must also have the Cholesky factor that the joint-chain density
    and sampler take (``_has_cholesky``), which a nearly singular ``R``
    can lack although its least eigenvalue comes out positive
    (b = 0.1015625, q_state = 1.8219347094935756, q_obs = 7.31e-267:
    3.5e-18); either failure raises "R must be positive definite".
    ``lru_cache`` keeps no exception, so a failing triple raises on every
    call. ``b = -0.0`` shares the key of ``+0.0``, which is safe for ``R``
    because both give ``b qz = +0.0``; the emission's ``b x`` keeps the
    sign of ``b``, so ``ssm_spec`` builds its own emission when ``b`` is zero.
    """
    bqz = 0.0 + b * qz
    r_yy = (0.0 + bqz * b) + qx
    if not (math.isfinite(bqz) and math.isfinite(r_yy)):
        raise ValueError("R must be symmetric")
    R = np.array([[qz, bqz], [bqz, r_yy]])
    if np.linalg.eigvalsh(R).min() <= 0.0 or not _has_cholesky(R):
        raise ValueError("R must be positive definite")
    R.flags.writeable = False
    return R, float(np.linalg.slogdet(R)[1]), _scalar_gaussian(b, qx)


def _has_cholesky(M: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` factors ``M``, or every matrix of a stack ``M``."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _scalar_gaussian(m: float, var: float):
    """Broadcasting log density and sampler of ``N(m x, var)`` given states ``x`` (``_linear_gaussian``'s 1 x 1 case)."""
    return (lambda x, v: normal_logpdf(v - m * x, var),
            lambda x, rng: m * x + np.sqrt(var) * rng.standard_normal(np.shape(x)))


def _linear_gaussian(M: np.ndarray, cov: np.ndarray, p: int, factors):
    """Broadcasting log density and sampler of ``N(M x, cov)`` given states ``x``.

    The linear family's only density and sampler. A scalar factor (``M``
    is 1 x 1) is ``_scalar_gaussian``. Otherwise a state has shape
    ``(..., p)``, or ``(...)`` when ``p == 1``, the outcome keeps its
    trailing axis, and ``factors()`` returns ``_gaussian_factors(cov)``:
    ``L``, ``L^{-1}`` and the log determinant of ``cov = L L^T``. It is
    the getter of the record that owns ``cov``, such as
    ``lambda: params._r_factors``, so the factors are computed on the
    first density or step call and then kept with the record. Every
    product goes through ``_matvec``, so a batch gives the per-state bits.
    """
    if M.shape == (1, 1):
        return _scalar_gaussian(float(M[0, 0]), float(cov[0, 0]))
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
    about 40% of random cases, so such a record keeps the matrix products
    (the joint filter's matrix recursion, the simulator's ``sample_step``).
    """
    Phi = params.Phi
    if Phi.shape != (2, 2) or Phi[0, 1] != 0.0 or Phi[1, 1] != 0.0:
        return None
    return tuple(Phi.ravel().tolist())


def _linear_path(phi: tuple, R: np.ndarray, z0, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``x`` and ``y`` of ``z_0, ..., z_n`` under ``z' = Phi z + N(0, R)`` from the pair ``z0``.

    ``phi = _float_phi(params)`` holds the entries of a 2 x 2 ``Phi`` with
    a zero y column (every scalar state-space embedding). The step noise
    is one ``(n, 2)`` standard-normal block, which the generator fills in
    the order that ``n`` calls of the linear ``sample_step`` draw it,
    mapped by one batched ``_matvec(L, .)`` with ``L`` the Cholesky factor
    of ``R``. The recursion then runs on Python floats,
    ``x, y = (0.0 + p00 x + p01 y) + nx, (0.0 + p10 x + p11 y) + ny``, so
    the path has the bytes of the per-step loop at about a tenth of its
    cost.
    """
    noise = _matvec(np.linalg.cholesky(R), rng.standard_normal((n, 2)))
    z = np.empty((n + 1, 2))
    z[0, :1], z[0, 1:] = z0
    p00, p01, p10, p11 = phi

    def steps(x, y):  # z_1, ..., z_n flattened, so that np.fromiter fills the block without a list
        for nx, ny in zip(*noise.T.tolist()):
            x, y = (0.0 + p00 * x + p01 * y) + nx, (0.0 + p10 * x + p11 * y) + ny
            yield x
            yield y

    z[1:] = np.fromiter(steps(*z[0].tolist()), float, 2 * n).reshape(n, 2)
    return np.ascontiguousarray(z[:, :1]), np.ascontiguousarray(z[:, 1:])


def ssm_spec(params: SsmParams) -> ModelSpec:
    """State-space model as a ModelSpec, with both views attached.

    The returned spec carries the embedded linear parameters (for the
    exact Kalman evaluator) and the HMM factorization
    ``qx = N(Ax, Qzeta)``, ``g = N(Bx, Qxi)`` (for particle filtering and
    quadrature), each factor built by ``_linear_gaussian``. The factors
    of ``Qzeta``, ``Qxi`` and ``R`` and the stationary x-marginal are
    computed on first use and kept on the records. When p = q = 1 the
    emission factor comes from the ``_scalar_embedding`` memo that
    ``ssm_embed`` reads, with ``R`` and its log determinant, so a build
    makes only what depends on ``A``; a zero ``b`` builds its own
    emission, because ``-0.0`` and ``+0.0`` share that entry and ``b x``
    keeps the sign.
    """
    glm, emission = _embed(params)
    A, B, Qz, Qx = params.A, params.B, params.Qzeta, params.Qxi
    p = params.p

    def stationary_x_sample(n, rng):
        draws = rng.standard_normal((n, p)) @ params._x_stationary_chol.T
        return draws[:, 0] if p == 1 else draws

    if emission is None:
        qx_factor = _linear_gaussian(A, Qz, p, lambda: params._qz_factors)
        emission = _linear_gaussian(B, Qx, p, lambda: params._qx_factors)
    else:  # _linear_gaussian's 1 x 1 case on the floats
        b = B.item()
        qx_factor = _scalar_gaussian(A.item(), Qz.item())
        emission = emission if b != 0.0 else _scalar_gaussian(b, Qx.item())
    hmm = HmmFactorization(*qx_factor, *emission, stationary_x_sample)
    return _linear_spec(glm, hmm, params)


def scalar_ssm(a: float, b: float = 1.0, q_state: float = 1.0, q_obs: float = 0.2) -> ModelSpec:
    """Convenience constructor for the one-dimensional state-space model.

    The build takes the 1 x 1 branches of ``SsmParams`` and ``ssm_embed``:
    it checks ``a``, ``b`` and ``b a`` finite, ``|a| < 1``, both variances
    finite and positive and the embedded ``R`` finite, all on plain
    floats, and ``eigvalsh(R).min() > 0`` and a Cholesky factor on the
    assembled 2 x 2 ``R``, which can be singular in floating point
    although both variances are positive. ``R`` does not depend on ``a``,
    so its checks run once per ``(b, q_state, q_obs)``, kept in a bounded
    memo, and the specs with those floats share one read-only ``R``, its
    log determinant and the emission factor; a chain or a grid over ``a``
    builds only ``Phi``, the parameter arrays and the callables that
    depend on ``a`` per spec. The factors of ``R`` belong to each spec's
    ``GlmParams`` record, which computes them on its first density or
    step call.
    Each failure raises the ``ValueError`` of the general matrix build,
    with its message, on every call, and the arrays have its bytes. Four
    Python floats go to ``SsmParams`` as they are, which converts them as
    it would ``[[v]]``; any other argument is wrapped as ``[[v]]``. A
    build whose triple is kept costs about 9 us near a = 0.95 (best of 40
    runs of 250 builds, process CPU time, a loaded 2-core box, CPython
    3.11, numpy 2.4): the records and arrays of ``SsmParams``,
    ``GlmParams``, ``HmmFactorization`` and ``ModelSpec`` and the
    callables over ``a``, each record's fields set by one update of its
    instance dictionary.
    """
    if type(a) is type(b) is type(q_state) is type(q_obs) is float:
        return ssm_spec(SsmParams(a, b, q_state, q_obs))
    return ssm_spec(SsmParams(A=[[a]], B=[[b]], Qzeta=[[q_state]], Qxi=[[q_obs]]))


@dataclass(frozen=True, eq=False)
class ScalarSsmGrid:
    """The parameters of ``scalar_ssm`` at every point of a grid: four read-only (G,) float arrays.

    Scalars broadcast against the arrays. The constructor runs the checks
    of ``scalar_ssm`` on every point in one vectorized pass, in its order
    and its float arithmetic: ``a`` and ``b`` finite, ``|a| < 1``, both
    variances finite and positive, the embedding's ``0.0 + b*a``,
    ``0.0 + b*q_state`` and ``(0.0 + bqz*b) + q_obs`` finite, one
    ``eigvalsh`` over the stacked 2 x 2 embedded ``R``, which gives each
    matrix the bits it gets alone, and one ``cholesky`` over the stack
    of those that pass, which factors them one by one only when it
    fails. At the first failing point it calls ``scalar_ssm`` on that
    point and raises its ``ValueError``, prefixed with the point's index
    and values, so the messages live in one place. An exact Kalman grid
    sweep (``likelihood.grid_increments`` and the grid calls of
    ``posterior``) takes the record in place of one spec per point.
    ``len`` is the number of points.
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
        ok = np.isfinite(a) & np.isfinite(b) & (np.abs(a) < 1.0) & np.isfinite(qz) & (qz > 0.0)
        ok &= np.isfinite(qx) & (qx > 0.0) & np.isfinite(ba) & np.isfinite(bqz) & np.isfinite(r_yy)
        R = np.empty((int(ok.sum()), 2, 2))
        R[:, 0, 0], R[:, 1, 0], R[:, 0, 1], R[:, 1, 1] = qz[ok], bqz[ok], bqz[ok], r_yy[ok]
        passed = np.linalg.eigvalsh(R)[:, 0] > 0.0  # each matrix's least eigenvalue, first in ascending order
        if not _has_cholesky(R[passed]):  # rare: find the matrices that the factorization rejects
            passed[passed] = [_has_cholesky(M) for M in R[passed]]
        ok[ok] = passed
        fields = {"a": a, "b": b, "q_state": qz, "q_obs": qx}
        if not ok.all():
            i = int(np.argmin(ok))
            values = ", ".join(f"{name} = {float(v[i])!r}" for name, v in fields.items())
            try:
                scalar_ssm(a[i], b[i], qz[i], qx[i])  # fails as the pass did, with its message
            except ValueError as err:
                raise ValueError(f"grid point {i} ({values}): {err}") from None
        for name, v in fields.items():
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.a)


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
    updated in place. Where ``y = 0`` the term ``y * y * exp(-x)`` is its
    limit 0, also where ``exp(-x)`` overflows, so the value there is
    ``-0.5 * (log(2 pi) + log(beta^2) + x)`` rather than NaN; the test
    for a zero runs over ``y``'s own shape only.
    """
    b2 = params.beta**2
    zero = y == 0
    if zero is False or not np.any(zero):
        q = y * y * np.exp(-x)
    else:  # 0 * inf is NaN, but y^2 e^{-x} tends to 0 as y does
        with np.errstate(invalid="ignore"):
            q = np.where(zero, 0.0, y * y * np.exp(-x))[()]
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
