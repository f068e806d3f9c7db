"""Expected Kullback-Leibler divergence functionals between model members.

Two functionals are provided. The transition-level divergence averages,
over the stationary law of the reference member, the KLD between the two
one-step transition kernels started at the same point. The emission-level
variant (HMMs only) averages the KLD between the two emission densities
against the product of the two stationary hidden-state marginals; the
two coincide with the plain emission KLD in the i.i.d. specialization.

Closed forms exist for the linear Gaussian and stochastic volatility
families and are cross-checked by Monte Carlo estimators: the
transition-level one touches only the broadcasting model callables, the
emission-level one the factorization hooks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .core import ModelSpec, _check_size
from .models import FiniteHmmParams, GlmParams, SvParams, finite_hmm_stationary, glm_stationary_cov
from .models import sv_stationary_x_sample


@dataclass(frozen=True)
class KldEstimate:
    """A divergence value; ``se`` present only for Monte Carlo estimates."""

    value: float
    method: str
    se: Optional[float] = None
    flags: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.se is None:
            if self.value < -1e-12:
                raise ValueError(f"closed-form divergence must be non-negative, got {self.value}")
        elif np.isfinite(self.value) and self.value < -3.0 * self.se:
            raise ValueError("Monte Carlo divergence estimate is negative beyond noise allowance")


def gaussian_kl(m0: np.ndarray, S0: np.ndarray, m1: np.ndarray, S1: np.ndarray) -> float:
    """KL(N(m0, S0) || N(m1, S1)) for full-rank covariances."""
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    S0 = np.atleast_2d(np.asarray(S0, dtype=float))
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))
    d = m0.size
    sol = np.linalg.solve(S1, S0)
    dev = m1 - m0
    quad = float(dev @ np.linalg.solve(S1, dev))
    logdet = float(np.linalg.slogdet(S1)[1] - np.linalg.slogdet(S0)[1])
    return 0.5 * (float(np.trace(sol)) - d + logdet + quad)


# ---------------------------------------------------------------------------
# Monte Carlo estimator over the generic model interface
# ---------------------------------------------------------------------------


def step_kld_mc(
    spec_star: ModelSpec,
    spec_other: ModelSpec,
    draws: int = 100_000,
    seed: int = 0,
    inner: str = "auto",
) -> KldEstimate:
    """Monte Carlo estimate of the expected transition KLD.

    The estimate draws a block of ``z_0`` from the stationary law of
    ``spec_star`` and a block of ``z_1`` from its kernel, then averages
    the log ratio of the two models' ``trans_logpdf`` at ``(z_0, z_1)``,
    with one call on each side. Every family's callables broadcast, so
    this one estimator serves every pair of models of the same
    dimensions. When both models are linear, so that both transition
    kernels are Gaussian, ``inner="auto"`` or ``"closed"`` instead
    evaluates the inner KLD in closed form at each ``z_0``, with a lower
    variance; ``"closed"`` on any other pair raises ``ValueError``. Both
    return a standard error. ``draws`` must be an integer >= 2.
    """
    _check_size("draws", draws)
    if inner not in ("auto", "closed", "logratio"):
        raise ValueError(f"unknown inner mode {inner!r}")
    if spec_star.sample_stationary is None:
        raise ValueError("the reference model must expose its stationary law")
    dims = [(s.state_dim, s.obs_dim) for s in (spec_star, spec_other)]
    if dims[0] != dims[1]:
        raise ValueError(f"the two models have different (state, observation) dimensions {dims[0]} and {dims[1]}")
    both_glm = spec_star.glm is not None and spec_other.glm is not None
    if inner == "closed" and not both_glm:
        raise ValueError("the closed inner KLD needs two linear Gaussian models")
    if both_glm and inner != "logratio":
        return _glm_inner_closed(spec_star, spec_other, draws, seed)
    rng = rngmod.substream(seed, rngmod.KLD_OUTER)
    z0 = spec_star.sample_stationary(draws, rng)
    z1 = spec_star.sample_step(z0, rng)
    return _finish_logratio(spec_star.trans_logpdf(z0, z1), spec_other.trans_logpdf(z0, z1))


def _finish_mc(samples: np.ndarray, method: str) -> KldEstimate:
    if np.any(np.isposinf(samples)):
        return KldEstimate(np.inf, method, se=0.0, flags=("support_mismatch",))
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples)))
    return KldEstimate(mean, method, se=se)


def _finish_logratio(num: np.ndarray, den: np.ndarray) -> KldEstimate:
    """Mean log ratio ``num - den``; a draw only the reference density reaches is ``+inf``."""
    return _finish_mc(np.where((den == -np.inf) & (num > -np.inf), np.inf, num - den), "mc")


def _glm_inner_closed(spec_star: ModelSpec, spec_other: ModelSpec, draws: int, seed: int) -> KldEstimate:
    star, other = spec_star.glm, spec_other.glm
    rng = rngmod.substream(seed, rngmod.KLD_OUTER)
    z = np.concatenate(spec_star.sample_stationary(draws, rng), axis=1)
    dphi = other.Phi - star.Phi
    const = gaussian_kl(np.zeros(star.p + star.q), star.R, np.zeros(star.p + star.q), other.R)
    dev = z @ dphi.T
    quad = 0.5 * np.einsum("ni,ij,nj->n", dev, np.linalg.inv(other.R), dev)
    return _finish_mc(const + quad, "mc")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def delta_glm_closed(star: GlmParams, other: GlmParams) -> KldEstimate:
    """Exact expected transition KLD for the linear Gaussian family.

    Equals ``1/2 [ tr(R^{-1}(R* - R)) - log det(R^{-1} R*)
    + tr(dPhi^T R^{-1} dPhi Gamma*) ]`` with ``dPhi = Phi - Phi*`` and
    ``Gamma*`` the stationary covariance of the reference chain. The
    quadratic term carries ``R^{-1}`` between the two ``dPhi`` factors
    (the Monte Carlo estimator confirms this arrangement).
    """
    if star.p != other.p or star.q != other.q:
        raise ValueError("parameter dimensions differ")
    gamma = glm_stationary_cov(star)
    dphi = other.Phi - star.Phi
    trace_term = float(np.trace(np.linalg.solve(other.R, star.R - other.R)))
    logdet_term = float(np.linalg.slogdet(star.R)[1] - np.linalg.slogdet(other.R)[1])
    quad_term = float(np.trace(dphi.T @ np.linalg.solve(other.R, dphi @ gamma)))
    return KldEstimate(0.5 * (trace_term - logdet_term + quad_term), "closed_form")


def delta_sv_closed(star: SvParams, other: SvParams) -> KldEstimate:
    """Exact expected transition KLD for the stochastic volatility family.

    All five terms of the divergence have closed-form stationary moments:
    ``E[X0^2] = E[X1^2] = sigma*^2/(1-phi*^2)``,
    ``E[X0 X1] = phi* sigma*^2/(1-phi*^2)`` and
    ``E[Y1^2 e^{-X1}] = beta*^2`` (the observation is a scale-mixture
    Gaussian with multiplier independent of the state).
    """
    ex2 = star.x_var
    ex0x1 = star.phi * star.x_var
    ey2emx = star.beta**2
    value = (
        np.log((other.sigma * other.beta) / (star.sigma * star.beta))
        + 0.5 * ex2 * (other.sigma**-2 - star.sigma**-2)
        + ex0x1 * (star.phi / star.sigma**2 - other.phi / other.sigma**2)
        + 0.5 * ex2 * (other.phi**2 / other.sigma**2 - star.phi**2 / star.sigma**2)
        + 0.5 * ey2emx * (other.beta**-2 - star.beta**-2)
    )
    return KldEstimate(float(value), "closed_form")


# ---------------------------------------------------------------------------
# Emission-level divergence for HMMs
# ---------------------------------------------------------------------------


def _finite_row_kl(gstar: np.ndarray, gother: np.ndarray) -> float:
    mask = gstar > 0.0
    if np.any(gother[mask] == 0.0):
        return np.inf
    return float(np.sum(gstar[mask] * (np.log(gstar[mask]) - np.log(gother[mask]))))


def delta_bar_finite_exact(star: FiniteHmmParams, other: FiniteHmmParams) -> KldEstimate:
    """Exact emission-level divergence of two finite HMMs by double sum."""
    pi_star = finite_hmm_stationary(star)
    pi_other = finite_hmm_stationary(other)
    total = 0.0
    for i, ws in enumerate(pi_star):
        for j, wo in enumerate(pi_other):
            if ws * wo == 0.0:
                continue
            kl = _finite_row_kl(star.G[i], other.G[j])
            if kl == np.inf:
                return KldEstimate(np.inf, "closed_form", flags=("support_mismatch",))
            total += ws * wo * kl
    return KldEstimate(total, "closed_form")


def delta_bar_hmm(
    spec_star: ModelSpec,
    spec_other: ModelSpec,
    draws: int = 100_000,
    seed: int = 0,
) -> KldEstimate:
    """Emission-level divergence, integrating the two stationary x-marginals.

    Finite pairs are summed exactly. Stochastic volatility pairs use the
    closed-form KLD between the two conditional Gaussian emissions. Any
    other HMM pair is estimated by Monte Carlo: pairs ``(x, x')`` are
    drawn from the product of stationary marginals and the inner emission
    KLD is a single-draw log ratio. ``draws`` must be an integer >= 2.
    """
    _check_size("draws", draws)
    if spec_star.hmm is None or spec_other.hmm is None:
        raise ValueError("the emission-level divergence needs HMM factorizations on both sides")
    if spec_star.finite is not None and spec_other.finite is not None:
        return delta_bar_finite_exact(spec_star.finite, spec_other.finite)
    rng = rngmod.substream(seed, rngmod.KLD_OUTER, 1)
    if spec_star.sv is not None and spec_other.sv is not None:
        sv_s, sv_o = spec_star.sv, spec_other.sv
        x = sv_stationary_x_sample(sv_s, draws, rng)
        xo = sv_stationary_x_sample(sv_o, draws, rng)
        ratio = (sv_s.beta**2 / sv_o.beta**2) * np.exp(x - xo)
        samples = 0.5 * (ratio - 1.0 - np.log(ratio))
        return _finish_mc(samples, "mc")
    star_h, other_h = spec_star.hmm, spec_other.hmm
    xs = star_h.stationary_x_sample(draws, rng)
    xo = other_h.stationary_x_sample(draws, rng)
    y = star_h.g_sample(xs, rng)
    return _finish_logratio(star_h.g_logpdf(xs, y), other_h.g_logpdf(xo, y))


# ---------------------------------------------------------------------------
# Information denseness of a prior around the reference parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensenessRow:
    delta: float
    prior_mass: float
    flag: str  # "" or "zero_mass"


def information_denseness_profile(
    grid,
    divergences: np.ndarray,
    deltas: Sequence[float],
) -> list[DensenessRow]:
    """Prior mass of ``{theta : divergence(theta) <= delta}`` per threshold.

    ``divergences`` holds one (estimated or exact) divergence per grid
    point; rows with zero mass are flagged, since a vanishing mass at
    some positive threshold is exactly what breaks the prior-denseness
    requirement for posterior concentration.
    """
    divergences = np.asarray(divergences, dtype=float)
    weights = np.asarray(grid.prior_weight, dtype=float)
    if divergences.shape != weights.shape:
        raise ValueError("one divergence value per grid point is required")
    if np.isnan(divergences).any() or np.isnan(deltas).any():
        raise ValueError("divergences and deltas must not be NaN")
    total = weights.sum()
    rows = []
    for delta in deltas:
        mass = float(weights[divergences <= delta].sum() / total)
        rows.append(DensenessRow(float(delta), mass, "" if mass > 0.0 else "zero_mass"))
    return rows


def write_denseness_csv(rows: Sequence[DensenessRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delta,prior_mass,flag\n")
        for r in rows:
            fh.write(f"{r.delta:.17g},{r.prior_mass:.17g},{r.flag}\n")
