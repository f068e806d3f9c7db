"""Numerical auditors for the model assumptions behind posterior concentration.

The non-compact parameter-space conditions for the stochastic volatility
model are audited through analytic envelopes of the two-step integrated
density block

    D_{theta, x0}(y_{0:2}) = integral qx(x0,x1) g(x1,y1) qx(x1,x2) g(x2,y2) dx1 dx2,

namely (writing s for sigma and b for beta)

    bound1: D <= 1 / ( |y1| |y2| sqrt(2 pi s^2) sqrt(2 pi e) ),
    bound2: D <= e^{s^2/8} / (2 pi b^{1-phi}) * [ (1+phi) e^{-1} / y1^2 ]^{(1+phi)/2}.

``bound2`` is log-convex in phi, so its supremum over a symmetric phi
interval sits at an endpoint; over beta it decreases, so the infimum of
the region wins; over sigma both bounds are monotone. A direct quadrature
of ``D`` guards the envelopes.

Everything else here is bookkeeping: exact subadditivity of the
sup-integrated blocks on finite models (the input to the subadditive
ergodic argument for posterior tightness), the two prior-integrability
conditions, and positivity of transition and emission densities.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng as rngmod
from .core import _BLOCK_FLOATS, ModelSpec, _check_size, _hermgauss, _trapezoid_weights
from .models import SvParams, sv_g_logpdf, sv_g_sample, sv_qx_logpdf, sv_qx_sample, sv_stationary_x_sample

_LOG2PI = np.log(2.0 * np.pi)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_BLOCK_NODES, _BLOCK_SPAN = 241, 9.0  # sv_block_density: nodes per axis, half-width in sigmas
_MARGINAL_GH_NODES = 201  # sv_marginal_y_logpdf
_BETA_CUTOFFS, _B6_NODES = (1e2, 1e4, 1e6, 1e8), 201  # b6_sufficient_integral_sv
_ENVELOPE_SLACK, _ENVELOPE_X0_SD = 1e-9, 3.0  # envelope_validity_audit
_BLOCK_UPPER_MARGIN, _BLOCK_UPPER_FLOOR = 1e-9, 1e-300  # _block_uppers: relative and absolute margins for rounding
_TANGENT_ROUNDING = 2.0**-46  # _tangent_uppers: exponent margin per unit of term size
_WINDOW_ROUNDING, _EXP_UNDERFLOW = 2.0**-46, -746.0  # _live_windows: gap margin per unit of term size; np.exp is 0.0 below
_POSITIVITY_SAMPLES, _POSITIVITY_EXTREMES = 200, (-50.0, -1.0, 0.0, 1.0, 50.0)  # positivity_audit
_KINGMAN_REL_TOL = 1e-12  # kingman_check


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one assumption check.

    ``status`` is "pass"/"fail" only for exactly decidable checks;
    anything Monte Carlo reports "estimate" together with a confidence
    interval.
    """

    assumption: str
    status: str
    statistic: float
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    seed: Optional[int] = None
    sims: Optional[int] = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "estimate"):
            raise ValueError(f"unknown status {self.status!r}")

    def to_json(self) -> str:
        """One JSON line (without the newline), keys sorted."""
        return json.dumps(asdict(self), sort_keys=True)


def write_audit_jsonl(reports: Sequence[AuditReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")


# ---------------------------------------------------------------------------
# Parameter regions for the stochastic volatility audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SvRegion:
    """A product region ``sigma in [lo, hi], beta >= exp(log_beta_lo), |phi| <= phi_hi``.

    Beta bounds live on the log scale so that tail regions like
    ``beta > e^m`` for large ``m`` stay representable.
    """

    sigma_lo: float
    sigma_hi: float
    log_beta_lo: float
    phi_hi: float

    def __post_init__(self):
        if not 0.0 < self.sigma_lo <= self.sigma_hi:
            raise ValueError("need 0 < sigma_lo <= sigma_hi")
        if not 0.0 <= self.phi_hi < 1.0:
            raise ValueError("need 0 <= phi_hi < 1")
        if math.isnan(self.log_beta_lo):
            raise ValueError("log_beta_lo must not be NaN")

    @classmethod
    def make(cls, sigma_lo: float, sigma_hi: float, beta_lo: float, phi_hi: float) -> "SvRegion":
        return cls(sigma_lo, sigma_hi, math.log(beta_lo), phi_hi)


@dataclass(frozen=True)
class SvThetaBox:
    """The audited parameter space: floors on beta and sigma, a cap on |phi|.

    ``sigma_hi`` may be infinite, in which case only the first envelope
    is available over regions unbounded in sigma.
    """

    beta_lo: float
    sigma_lo: float
    phi_hi: float
    sigma_hi: float = np.inf

    def __post_init__(self):
        if not (0.0 < self.beta_lo < np.inf and 0.0 < self.sigma_lo < np.inf):
            raise ValueError("beta and sigma floors must be positive and finite")
        if not 0.0 <= self.phi_hi < 1.0:
            raise ValueError("need 0 <= phi_hi < 1")
        if not self.sigma_hi > self.sigma_lo:
            raise ValueError("sigma_hi must exceed sigma_lo")


def _bound1(sigma_sq, y1, y2):
    denom = np.abs(y1 * y2) * np.sqrt(2.0 * np.pi * sigma_sq) * np.sqrt(2.0 * np.pi * np.e)
    with np.errstate(divide="ignore"):
        return np.where(denom > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), np.inf)


def _log_bound2_at_phi(sigma_sq, log_beta_lo, phi, y1):
    y1sq = np.asarray(y1, dtype=float) ** 2
    with np.errstate(divide="ignore"):
        log_y1sq = np.log(y1sq)
    return (
        sigma_sq / 8.0
        - _LOG2PI
        - (1.0 - phi) * log_beta_lo
        + 0.5 * (1.0 + phi) * (np.log1p(phi) - 1.0 - log_y1sq)
    )


def _bound2(sigma_hi, log_beta_lo, phi_hi, y1):
    if not np.isfinite(sigma_hi):
        return np.full_like(np.asarray(y1, dtype=float), np.inf)
    # log-convex in phi, so the sup over [-phi_hi, phi_hi] is at an endpoint
    la, lb = (_log_bound2_at_phi(sigma_hi**2, log_beta_lo, phi, y1) for phi in (-phi_hi, phi_hi))
    return np.exp(np.maximum(la, lb))


def psup_sv_bound(region: SvRegion, y1, y2) -> np.ndarray:
    """Upper bound on the sup over the region of the two-step block density.

    The minimum of the two analytic envelopes, each maximized over the
    region (``bound1`` at the sigma floor; ``bound2`` at the sigma cap,
    the beta floor, and a phi endpoint). Infinite when the data make both
    envelopes vacuous (``y1 = 0``, or ``y2 = 0`` with sigma unbounded).
    Every entry of ``y1`` and ``y2`` must be finite; lists and scalars
    are taken as float arrays.
    """
    _check_finite_arrays(y1=y1, y2=y2)
    y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    b1 = _bound1(region.sigma_lo**2, y1, y2)
    b2 = _bound2(region.sigma_hi, region.log_beta_lo, region.phi_hi, y1)
    out = np.minimum(b1, b2)
    if np.any(~np.isfinite(out)):
        bad = ~np.isfinite(np.atleast_1d(out))
        if np.all(np.atleast_1d(out)[bad] == np.inf):
            raise ValueError("both envelopes are infinite for some block (y1 = 0 with unbounded sigma?)")
    return out


def _check_finite_floats(**values) -> None:
    """Raise ``ValueError`` naming the first of the keyword arguments that is not a finite number."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _check_finite_arrays(**values) -> None:
    """Raise ``ValueError`` naming the first of the keyword arguments with an entry that is not a finite number."""
    for name, v in values.items():
        bad = np.count_nonzero(~np.isfinite(np.asarray(v, dtype=float)))
        if bad:
            raise ValueError(f"{name} must be finite, got {bad} non-finite entries")


def _pointwise_bounds(sigma_sq, log_beta, phi, y1, y2):
    """``min(bound1, bound2)`` at one parameter point per entry; broadcasts over arrays of draws.

    ``sigma_sq`` and ``log_beta`` are taken as computed, so that a
    caller can form them as Python floats: C ``pow`` and ``log``, whose
    last bits numpy's array ``**`` and ``log`` do not always match.
    """
    b1 = _bound1(sigma_sq, y1, y2)
    b2 = np.exp(_log_bound2_at_phi(sigma_sq, log_beta, phi, y1))
    return np.where(b2 < b1, b2, b1)  # min(b1, b2) of floats: b1 unless b2 is smaller, also where one is NaN


def psup_pointwise_bound(params: SvParams, y1: float, y2: float) -> float:
    """Envelope evaluated at one parameter point (degenerate region); ``y1`` and ``y2`` must be finite."""
    _check_finite_floats(y1=y1, y2=y2)
    return float(_pointwise_bounds(params.sigma**2, math.log(params.beta), params.phi, np.float64(y1), np.float64(y2)))


def psup_cm_complement_bound(box: SvThetaBox, m: float, y1, y2) -> np.ndarray:
    """Envelope of ``psup`` over the complement of ``C_m`` within the box.

    ``C_m = {sigma^2 <= log m, beta <= e^m}``; its complement is covered
    by ``{sigma^2 > log m}`` and ``{sigma^2 <= log m, beta > e^m}``, and
    the bound is the larger of the two piece envelopes. Empty pieces
    contribute nothing. Every entry of ``y1`` and ``y2`` must be finite.
    """
    if not m > 1.0:  # NaN fails this too
        raise ValueError("m must exceed 1")
    _check_finite_arrays(y1=y1, y2=y2)
    s_split = math.sqrt(math.log(m))
    y1 = np.asarray(y1, dtype=float)
    pieces = []
    if s_split < box.sigma_hi:
        region = SvRegion(max(box.sigma_lo, s_split), box.sigma_hi, math.log(box.beta_lo), box.phi_hi)
        pieces.append(psup_sv_bound(region, y1, y2))
    if box.sigma_lo <= s_split:
        region = SvRegion(box.sigma_lo, min(box.sigma_hi, s_split), float(m), box.phi_hi)
        pieces.append(psup_sv_bound(region, y1, y2))
    if not pieces:
        return np.zeros_like(y1)
    return np.maximum.reduce(pieces) if len(pieces) > 1 else pieces[0]


# ---------------------------------------------------------------------------
# Direct quadrature of the two-step block (envelope guard)
# ---------------------------------------------------------------------------


def _block_grids(phi, sigma, x0) -> tuple[np.ndarray, np.ndarray]:
    """The block's node grids: ``g1`` spans ``phi x0 +- span sigma``, and ``g2`` spans ``phi g1 +- span sigma``.

    Takes floats, or 1-d arrays of draws for one grid per row along a
    last axis. A row has the bits of the float call unless some row's
    step underflows to zero (``sigma`` below about 1e-321), which makes
    ``np.linspace`` take another formula for every row.
    """
    span = _BLOCK_SPAN * sigma
    m1 = phi * x0
    g1 = np.linspace(m1 - span, m1 + span, _BLOCK_NODES, axis=-1)
    ends = np.expand_dims(phi, -1) * g1[..., [0, -1]]  # phi x1 at the two ends of g1, in either order
    return g1, np.linspace(ends.min(axis=-1) - span, ends.max(axis=-1) + span, _BLOCK_NODES, axis=-1)


def _block_outer(params: SvParams, x0, g1: np.ndarray, y1) -> np.ndarray:
    """The block's outer factor ``qx(x0, g1) g(g1, y1)`` on the first grid; broadcasts as the SV densities do."""
    return np.exp(sv_qx_logpdf(params, x0, g1) + sv_g_logpdf(params, g1, y1))


def sv_block_density(params: SvParams, x0: float, y1: float, y2: float) -> float:
    """Quadrature value of the integrated two-step density block; ``x0``, ``y1`` and ``y2`` must be finite.

    A ``_BLOCK_NODES``-point trapezoid rule on each axis: ``x1`` over
    ``_BLOCK_SPAN`` transition sds either side of ``phi x0``, and ``x2``
    over the same span beyond ``phi x1`` for every ``x1`` on that grid.
    """
    _check_finite_floats(x0=x0, y1=y1, y2=y2)
    g1, g2 = _block_grids(params.phi, params.sigma, x0)
    kernel = sv_qx_logpdf(params, g1[:, None], g2[None, :])
    kernel += sv_g_logpdf(params, g2, y2)[None, :]
    inner = np.exp(kernel, out=kernel) @ _trapezoid_weights(g2)
    return float((_block_outer(params, x0, g1, y1) * inner) @ _trapezoid_weights(g1))


def _tangent_uppers(params, t: np.ndarray, g2: np.ndarray, y2) -> np.ndarray:
    """The tangent bounds ``e^{E + m}`` of ``_block_uppers`` on the inner sums at ``t = phi g1``.

    Arrays of rows: ``params`` holds columns, ``t`` and ``g2`` one row of
    nodes per draw and ``y2`` a column. ``E = e(t) + a^2 sigma^2 / 2``,
    where ``e = sv_g_logpdf`` at ``y2`` and ``a = e'(t) = (K - 1) / 2``
    with ``K = y2^2 e^{-t} / beta^2``. The exponent margin ``m`` is
    ``_TANGENT_ROUNDING = 2^-46``, 128 units of rounding ``u = 2^-53``,
    times the size of the terms that ``E`` and the block's exponents
    are formed from: ``K (1 + sigma + G) + |t| + a^2 sigma^2 / 2 + (2 /
    sigma + 1) G + |log beta^2| + |log sigma^2| + 2 log 2 pi + 32 +
    sigma``, where ``G`` is the row's largest ``|g2_j|``.

    A first-order count of the roundings, with ``exp`` and ``log``
    within one ulp, gives each coefficient a bound below 128u:

    * ``E`` as computed is off by at most ``u (4 K + 3 |log 2 pi beta^2|
      + 1.5 |t| + 4 a^2 sigma^2 / 2 + 5)``.
    * Its rounded slope moves the line by at most ``u (3.5 K + 0.5)``
      times ``27 sigma``, the farthest a node of ``g2`` lies from ``t``.
    * The block's own exponent at a node ``x_j`` is off by at most ``u
      (2930 + 3 |log 2 pi sigma^2| + 4 K_j + 3 |log 2 pi beta^2| + 1.5
      |x_j|)``, where ``(x_j - t)^2 / sigma^2 <= 729`` gives the 2930
      and ``|x_j| <= |t| + 27 sigma``. ``K_j = K e^{t - x_j}`` is below
      ``e^2 K`` at nodes less than 2 to the left of ``t``; at the others
      the tangent's gap ``K (e^{t - x_j} - 1 - (t - x_j)) / 2`` exceeds
      ``K_j / 4`` and absorbs the ``4u K_j``.
    * The nodes of ``np.linspace`` stray from a lattice by up to ``4u
      G``, and the weights' spacing by ``8u G``. That moves the
      Gaussian's exponent by at most ``4u G (27 / sigma + |a|)``, with
      ``|a| <= (K + 1) / 2``, and the weights by ``8u G / h2 <= 107u G /
      sigma``.

    A bound is NaN or infinite where ``e^{-t}`` overflows, and overflow
    in it is silent.
    """
    k = y2 * y2 * np.exp(-t)
    k /= params.beta**2  # K
    sigma = params.sigma
    lift = (k - 1.0) ** 2
    lift *= sigma**2 / 8.0  # a^2 sigma^2 / 2
    reach = np.maximum(np.abs(g2[:, :1]), np.abs(g2[:, -1:]))  # G
    size = k * (1.0 + sigma + reach)
    size += np.abs(t)
    size += lift
    size += (2.0 / sigma + 1.0) * reach + sigma
    size += np.abs(np.log(params.beta**2)) + np.abs(np.log(sigma**2)) + (2.0 * _LOG2PI + 32.0)
    top = sv_g_logpdf(params, t, y2)
    top += lift
    top += _TANGENT_ROUNDING * size
    return np.exp(top, out=top)


def _block_uppers(draws: np.ndarray) -> np.ndarray:
    """A certified upper bound ``U`` on ``sv_block_density`` for each row ``(beta, sigma, phi, x0, y1, y2)`` of ``draws``.

    ``U = sum_i w1_i O_i S_i``, times ``1 + _BLOCK_UPPER_MARGIN``, plus
    ``_BLOCK_UPPER_FLOOR``. Here ``O`` is the outer factor and ``w1`` the
    trapezoid weights of ``g1``, and ``S_i`` bounds the inner sum ``sum_j
    w2_j N(g2_j; t_i, sigma^2) e^{e(g2_j)}`` at ``t_i = phi g1_i``, where
    ``e = sv_g_logpdf`` at ``y2``; all on the grids of ``_block_grids``.
    ``S_i`` is the smaller (``np.fmin``) of two bounds:

    * The tangent bound ``e^E`` of ``_tangent_uppers``, with a margin on
      its exponent that grows with the size of its terms. ``e(x) =
      -(log 2 pi beta^2 + x + y2^2 e^{-x} / beta^2) / 2`` is concave, so
      its tangent at ``t_i`` lies above it, and completing the square
      turns ``N(x; t_i, sigma^2) e^{e(t_i) + a (x - t_i)}`` into ``e^E
      N(x; t_i + a sigma^2, sigma^2)`` with ``E = e(t_i) + a^2 sigma^2 /
      2``. The weights are at most the spacing ``h2``, and by Poisson
      summation ``h2`` times a Gaussian's sum over any lattice of
      spacing ``h2`` is at most ``1 + 2 e^{-2 pi^2 sigma^2 / h2^2}``,
      which is 1 in double precision since ``h2 <= 36 sigma / 240``. So
      ``S_i <= e^E``. The bound is tight where ``e`` is nearly linear
      over the row's window, and exact for ``y2 = 0``.
    * ``max_j e^{e(g2_j)} (1 + h2 / (sigma sqrt(2 pi)))``: the inner sum
      is at most the largest emission factor times ``sum_j w2_j N(g2_j;
      t_i, sigma^2)``, and ``h2`` times the sum of a unimodal density
      over a uniform grid is at most its integral, 1, plus ``h2`` times
      its peak. It settles the rows where ``e^{-t_i}`` overflows and the
      tangent bound is NaN or infinite.

    The relative margin covers rounding in the outer sums and the last
    bits of ``exp``: the block value moved by under 2e-13 relative
    against long-double arithmetic over 1200 random rows (sigma down to
    1e-3, a quarter of them with ``y2 = 0``), and ``U`` stayed above it
    there by the relative margin. The absolute margin covers the
    absolute rounding of subnormal values, so ``D <= U`` holds as floats.
    A bound is non-finite when a part is, and overflow in it is silent.
    The rows go through in blocks of about ``_BLOCK_FLOATS`` floats per
    array: O(nodes) work per row, and a working set of a few blocks
    however many rows there are.
    """
    out = np.empty(len(draws))
    unit = _trapezoid_weights(np.arange(float(_BLOCK_NODES)))  # trapezoid weights over h1
    rows = _BLOCK_FLOATS // _BLOCK_NODES
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(draws), rows):
            beta, sigma, phi, x0, y1, y2 = draws[i : i + rows].T
            g1, g2 = _block_grids(phi, sigma, x0)
            params = SimpleNamespace(beta=beta[:, None], sigma=sigma[:, None], phi=phi[:, None])  # SvParams as columns
            y2 = y2[:, None]
            peak = np.exp(sv_g_logpdf(params, g2, y2).max(axis=1, keepdims=True))
            riemann = 1.0 + (g2[:, 1:2] - g2[:, :1]) / (params.sigma * _SQRT2PI)
            inner = np.fmin(_tangent_uppers(params, params.phi * g1, g2, y2), peak * riemann)
            inner *= _block_outer(params, x0[:, None], g1, y1[:, None])
            out[i : i + rows] = (inner @ unit) * (g1[:, 1] - g1[:, 0]) * (1.0 + _BLOCK_UPPER_MARGIN) + _BLOCK_UPPER_FLOOR
    return out


def _envelope_draws(box: SvThetaBox, draws: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The envelope audit's draws, as rows ``(beta, sigma, phi, x0, y1, y2)``, and each draw's envelope.

    The loop makes two stream calls per draw, ``rng.uniform`` of the
    three parameters' log-scale or linear ranges and ``rng.standard_normal(5)``
    for ``x0``, the two stationary states and the two emission noises,
    which take the stream that a call per quantity would. The rest is one
    vectorized pass: the observations ``beta e^{x/2} u`` with ``x =
    sqrt(v) z``, in the order of operations of ``sv_stationary_x_sample``
    and ``sv_g_sample``, and the envelopes of ``_pointwise_bounds``,
    which are ``psup_pointwise_bound`` of each draw bit for bit. ``sigma^2``, ``v = sigma^2 / (1 - phi^2)``
    and ``log beta`` are Python floats, as ``SvParams.x_var`` and
    ``psup_pointwise_bound`` form them. Overflow in the pass is silent;
    a draw whose observation overflows raises ``ValueError`` naming the
    box and that draw's sigma.
    """
    sigma_hi = box.sigma_hi if np.isfinite(box.sigma_hi) else box.sigma_lo * 25.0
    lows = np.array([np.log(box.beta_lo), np.log(box.sigma_lo), -box.phi_hi])
    highs = np.array([np.log(box.beta_lo * 100.0), np.log(sigma_hi), box.phi_hi])
    u, z = np.empty((3, draws)), np.empty((5, draws))
    for i in range(draws):
        u[:, i] = rng.uniform(lows, highs)
        z[:, i] = rng.standard_normal(5)
    (beta, sigma), phi = np.exp(u[:2]), u[2]
    sigma_sq = [s**2 for s in sigma.tolist()]
    x_var = np.array([s2 / (1.0 - p**2) for s2, p in zip(sigma_sq, phi.tolist())])
    with np.errstate(over="ignore"):
        y1, y2 = beta * np.exp(np.sqrt(x_var) * z[1:3] / 2.0) * z[3:]
        overflow = ~(np.isfinite(y1) & np.isfinite(y2))
        if overflow.any():
            i = int(np.argmax(overflow))
            raise ValueError(
                f"{box} overflows its own draws: the observation beta e^(x/2) u of draw {i} "
                f"(sigma = {float(sigma[i])!r}) is not finite"
            )
        bounds = _pointwise_bounds(np.array(sigma_sq), np.array([math.log(b) for b in beta.tolist()]), phi, y1, y2)
    return np.stack([beta, sigma, phi, _ENVELOPE_X0_SD * z[0], y1, y2], axis=1), bounds


def envelope_validity_audit(box: SvThetaBox, draws: int, seed: int) -> AuditReport:
    """Check that the analytic envelopes really dominate the quadrature value.

    Draws parameters from the box (beta and sigma log-uniform over a
    bounded slice, phi uniform), together with an initial state and a
    stationary observation pair, and verifies
    ``D_{theta, x0}(y) <= envelope(theta, y) + slack`` on every draw,
    where ``D`` is ``sv_block_density``. ``draws`` must be an integer >= 2.

    The audit is an exact branch and bound: its report is, field for
    field, the one a loop of ``sv_block_density`` over every draw gives.
    The first pass, ``_envelope_draws``, takes every draw from the
    stream that loop would take, with two stream calls per draw, and
    forms the six scalars and the envelope ``B`` of every draw in one
    vectorized pass, each with the bits of the loop's per-draw values;
    ``_block_uppers`` then gives each draw a certified ``U >= D`` from
    241-node vectors. The second pass runs the 241 x 241 block on the
    draws in descending order of ``U - B``, non-finite keys first, and
    stops before the first draw with a finite ``U - B < worst`` and
    ``U - B <= slack``, where ``worst`` is the largest excess ``D - B``
    so far. Every draw left has ``D - B <= U - B``, so it can neither
    raise the maximum nor count as a violation. An exact block that
    warns does so in that order, after every draw is taken. The first
    draw always runs. 1 or 2 draws of 1000 run on the ``pommkit audit``
    default box (seeds 0-9 and 44; the Riemann bound of ``_block_uppers``
    alone would run 201-260), and up to 33 on boxes with sigma up to 60,
    where the tangent bound is loose or overflows. A box whose draws
    overflow an observation (sigma in the hundreds with phi near 1)
    raises ``ValueError`` before any block runs.
    """
    _check_size("draws", draws)
    taken, bounds = _envelope_draws(box, draws, rngmod.substream(seed, rngmod.AUDIT, 1))
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN key, which the exact block then settles
        keys = _block_uppers(taken) - bounds
    worst = -np.inf
    violations = 0
    for i in np.argsort(np.where(np.isfinite(keys), -keys, -np.inf), kind="stable").tolist():
        if math.isfinite(keys[i]) and keys[i] < worst and keys[i] <= _ENVELOPE_SLACK:
            break  # the keys from here on are finite and no larger
        beta, sigma, phi, x0, y1, y2 = taken[i].tolist()
        excess = sv_block_density(SvParams(beta=beta, sigma=sigma, phi=phi), x0, y1, y2) - bounds[i]
        worst = max(worst, excess)
        if excess > _ENVELOPE_SLACK:
            violations += 1
    status = "pass" if violations == 0 else "fail"
    return AuditReport(
        assumption="B5.envelope",
        status=status,
        statistic=float(worst),
        seed=seed,
        sims=draws,
        detail=f"max(D - bound) over {draws} draws; {violations} beyond slack {_ENVELOPE_SLACK:g}",
    )


# ---------------------------------------------------------------------------
# Tightness audit (the non-compact compactification condition)
# ---------------------------------------------------------------------------


def _simulate_sv_blocks(params: SvParams, sims: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    x0 = sv_stationary_x_sample(params, sims, rng)
    x1 = sv_qx_sample(params, x0, rng)
    x2 = sv_qx_sample(params, x1, rng)
    _, y1, y2 = sv_g_sample(params, np.stack([x0, x1, x2]), rng)  # y0 is drawn for the stream, then dropped
    return y1, y2


def tightness_audit_sv(
    params_star: SvParams,
    box: SvThetaBox,
    m_list: Sequence[float],
    sims: int,
    seed: int,
) -> tuple[AuditReport, AuditReport]:
    """Audit the two halves of the exhaustion condition on the box.

    Simulates stationary three-observation blocks and reports (i) the
    empirical maximum over blocks of the envelope of ``psup`` outside the
    compact set ``C_m``, for each ``m`` (it should fall towards zero as
    ``m`` grows), and (ii) the sample mean of ``log+ psup`` over the whole
    box with a confidence interval (it should be finite and stable). Both
    are estimates by nature, never pass/fail. ``sims`` must be an integer
    >= 2 and ``m_list`` must hold at least one ``m``.
    """
    _check_size("sims", sims)
    if len(m_list) == 0:
        raise ValueError("m_list must hold at least one m")
    rng = rngmod.substream(seed, rngmod.AUDIT, 2)
    y1, y2 = _simulate_sv_blocks(params_star, sims, rng)
    max_per_m = []
    for m in m_list:
        vals = psup_cm_complement_bound(box, float(m), y1, y2)
        max_per_m.append(float(np.max(vals)))
    conv = AuditReport(
        assumption="B5.conv",
        status="estimate",
        statistic=max_per_m[-1],
        seed=seed,
        sims=sims,
        detail="empirical max of psup envelope outside C_m, per m: "
        + ", ".join(f"m={m:g}: {v:.6g}" for m, v in zip(m_list, max_per_m)),
    )
    whole = SvRegion(box.sigma_lo, box.sigma_hi, math.log(box.beta_lo), box.phi_hi)
    log_plus = np.maximum(np.log(psup_sv_bound(whole, y1, y2)), 0.0)
    mean = float(log_plus.mean())
    se = float(log_plus.std(ddof=1) / np.sqrt(sims))
    logmom = AuditReport(
        assumption="B5.logmoment",
        status="estimate",
        statistic=mean,
        ci_lo=mean - 1.96 * se,
        ci_hi=mean + 1.96 * se,
        seed=seed,
        sims=sims,
        detail="sample mean of log+ psup envelope over the whole box",
    )
    return conv, logmom


# ---------------------------------------------------------------------------
# Prior integrability and the one-step entropy floor
# ---------------------------------------------------------------------------


def b6_sufficient_integral_sv(box: SvThetaBox, proper: bool) -> AuditReport:
    """Integrability of ``min(1/sigma, e^{sigma^2/8} / beta^{1-phi_hi})``.

    A proper prior makes the condition automatic (the integrand is
    bounded by the sigma floor). For the improper Lebesgue prior on the
    box the integral is computed under growing beta cutoffs; unbounded
    growth across cutoffs flags divergence.
    """
    if proper:
        return AuditReport(
            assumption="B6.1",
            status="pass",
            statistic=1.0 / box.sigma_lo,
            detail="proper prior: finite measure times a bounded integrand",
        )
    sigma_hi = box.sigma_hi if np.isfinite(box.sigma_hi) else max(5.0, 3.0 * box.sigma_lo)
    sigmas = np.linspace(box.sigma_lo, sigma_hi, _B6_NODES)
    values = []
    for cutoff in _BETA_CUTOFFS:
        lb = np.linspace(np.log(box.beta_lo), np.log(cutoff), _B6_NODES)
        betas = np.exp(lb)
        integrand = np.minimum(
            1.0 / sigmas[:, None],
            np.exp(sigmas[:, None] ** 2 / 8.0) / betas[None, :] ** (1.0 - box.phi_hi),
        )
        inner = np.trapezoid(integrand * betas[None, :], lb, axis=1)  # d(beta) = beta d(log beta)
        val = float(np.trapezoid(inner, sigmas) * 2.0 * box.phi_hi)
        values.append(val)
    growth = values[-1] / values[-2]
    diverging = growth > 1.2
    detail = "integral under beta cutoffs " + ", ".join(
        f"{c:g}: {v:.6g}" for c, v in zip(_BETA_CUTOFFS, values)
    )
    return AuditReport(
        assumption="B6.1",
        status="fail" if diverging else "pass",
        statistic=values[-1],
        detail=detail + f"; tail growth ratio {growth:.3g}",
    )


def _live_windows(params: SvParams, xs: np.ndarray, lw: np.ndarray, squares: np.ndarray, rows: int) -> np.ndarray:
    """Per block of ``rows`` ascending ``squares``, the node columns ``[lo, hi)`` outside which ``exp(comp - m)`` is 0.0.

    A component of ``sv_marginal_y_logpdf`` at ``s = y^2`` is ``comp_j =
    A_j - s C_j`` with ``A_j = lw_j - (log 2 pi beta^2 + x_j) / 2`` and
    ``C_j = e^{-x_j} / (2 beta^2)``. Against the block's reference column
    ``k``, the argmax at the midpoint of its ``s``, the gap ``comp_j -
    comp_k = (A_j - A_k) - s (C_j - C_k)`` is linear in ``s``, and so is
    the gap plus its rounding allowance; the bound's largest value over
    the block sits at one of the block's two end rows. Since ``m >=
    comp_k``, a column whose bound is below ``_EXP_UNDERFLOW`` gives
    ``exp(comp_j - m) = 0.0`` exactly on every row of the block and
    cannot hold a row's max. The window spans the other columns.

    The allowance is ``_WINDOW_ROUNDING = 2^-46``, 128 units of rounding
    ``u = 2^-53``, times the size of the terms: ``s (C_j + C_k) + |A_j|
    + |A_k| + |x_j| + |x_k| + |lw_j| + |lw_k| + 4 |log beta^2| + 16``. A
    first-order count of the roundings, with ``exp`` and ``log`` within
    a few ulps, puts the computed ``comp_j`` within ``u (16 s C_j + 8
    (|x_j| + |log beta^2| + |lw_j| + 2))`` of ``A_j - s C_j``, and the
    computed bound within ``u (10 s (C_j + C_k) + 5 (|A_j| + |A_k|))`` of
    its exact value: under ``26u`` per unit of size in all.

    A column whose ``e^{-x_j}`` overflows is ``-inf`` on every row with
    ``s > 0``, and is dropped when the block's least ``s`` is positive. A
    NaN bound (``0 * inf``) keeps its column. A block falls back to the
    full width when its ``s_hi`` is not finite or ``s_hi C_k`` is not
    below ``2^1000``, so that ``comp_k`` is finite on every row.
    """
    starts = np.arange(0, len(squares), rows)
    lo_s, hi_s = squares[starts, None], squares[np.minimum(starts + rows, len(squares)) - 1, None]
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = params.beta**2
        a = lw - 0.5 * (_LOG2PI + np.log(b2) + xs)
        e = np.exp(-xs)
        c = 0.5 * e / b2
        mid = 0.5 * lo_s + 0.5 * hi_s
        ref = a - np.where(mid > 0.0, mid * c, 0.0)
        k = np.argmax(np.where(np.isnan(ref), -np.inf, ref), axis=1)[:, None]
        ak, ck = a[k], c[k]
        size = np.abs(a) + np.abs(xs) + np.abs(lw) + (2.0 * abs(np.log(b2)) + 8.0)  # per column
        size = size + size[k]  # and per reference column
        level = (a - ak) + _WINDOW_ROUNDING * size  # the bound at s = 0
        slope = (c - ck) - _WINDOW_ROUNDING * (c + ck)  # and its fall per unit of s
        bound = np.maximum(level - lo_s * slope, level - hi_s * slope)  # NaN propagates
        live = ~(bound < _EXP_UNDERFLOW) & ~((e == np.inf) & (lo_s > 0.0))
        live[~(hi_s * ck < 2.0**1000)[:, 0]] = True  # also a non-finite s_hi
    return np.stack([np.argmax(live, axis=1), len(xs) - np.argmax(live[:, ::-1], axis=1)], axis=1)


def sv_marginal_y_logpdf(params: SvParams, ys: np.ndarray) -> np.ndarray:
    """log density of one stationary observation, by Gauss-Hermite mixing.

    ``Y = beta e^{X/2} U`` with ``X ~ N(0, v)``: the density is the
    normal scale mixture ``E_X[ N(y; 0, beta^2 e^X) ]``, taken as a
    log-sum-exp over the nodes. ``ys`` must be one-dimensional with
    finite entries. A ``y`` whose square overflows (``|y|`` above about
    1.34e154) has every component at ``-inf``, and its log density is
    ``-inf``, without a warning, as long as no node's ``e^{-x}``
    underflows to 0; where one does, and where a nonzero ``y``'s square
    underflows to 0 against an ``e^{-x}`` that overflows, the component
    is ``0 * inf`` and the value NaN.

    The draws go through in ascending order of ``y^2`` and in blocks of
    ``_BLOCK_FLOATS // _MARGINAL_GH_NODES`` rows, and each value is
    scattered back to its draw; a row's value depends on its own ``y``
    alone. ``_live_windows`` gives each block a certified window of node
    columns, with a rounding allowance, outside which every ``exp(comp -
    m)`` is 0.0 exactly and no row has its max. The components, their
    max, the shift and ``exp`` run on the window only; ``exp`` writes
    into the window of a zero-filled full-width block (it gives each
    entry the same bits in any layout), so ``sum`` adds the same entries
    in the same pairwise order as over every column, and every value
    keeps its bits. The working set is one block of about 0.5 MB plus
    O(draws) index and window arrays, however many draws there are.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError(f"ys must be one-dimensional, got {ys.ndim} dimensions")
    _check_finite_arrays(ys=ys)
    t, w = _hermgauss(_MARGINAL_GH_NODES)
    xs = np.sqrt(2.0 * params.x_var) * t
    lw = np.log(w / np.sqrt(np.pi))
    out = np.empty(len(ys))
    rows = _BLOCK_FLOATS // _MARGINAL_GH_NODES
    with np.errstate(over="ignore"):
        squares = ys * ys
    order = np.argsort(squares)
    ys = ys[order]
    windows = _live_windows(params, xs, lw, squares[order], rows).tolist()
    full = np.zeros((rows, _MARGINAL_GH_NODES))
    with np.errstate(over="ignore", divide="ignore"):
        for i, (lo, hi) in zip(range(0, len(ys), rows), windows):
            comp = sv_g_logpdf(params, xs[None, lo:hi], ys[i : i + rows, None])
            comp += lw[lo:hi]
            m = comp.max(axis=1)
            m[m == -np.inf] = 0.0  # a row of -inf components: exp gives zeros, whose log is -inf
            comp -= m[:, None]
            block = full[: len(comp)]
            np.exp(comp, out=block[:, lo:hi])
            out[order[i : i + rows]] = m + np.log(block.sum(axis=1))
            block[:, lo:hi] = 0.0
    return out


def b6_jensen_floor_sv(params: SvParams) -> tuple[float, float]:
    """Closed-form floors for ``E[log p(Y_1)]``.

    Moving the logarithm inside the double integral that defines the
    one-observation density puts an independent stationary copy of the
    state into the emission log-density, so the Jensen floor is

        -log(2 pi beta^2)/2 - E[X']/2 - E[Y^2] E[e^{-X'}] / (2 beta^2)
        = -log(2 pi beta^2)/2 - e^{v}/2,   v = sigma^2/(1 - phi^2).

    The second returned value replaces the independent product with the
    jointly coupled moment ``E[Y^2 e^{-X}] = beta^2``, giving
    ``-log(2 pi beta^2)/2 - 1/2``; that quantity is the v -> 0 limit of
    the floor but sits *above* ``E[log p(Y_1)] = -H(Y_1)`` whenever the
    log-volatility is non-degenerate (conditioning reduces entropy), so
    it is not itself a valid lower bound.
    """
    base = -0.5 * np.log(2.0 * np.pi * params.beta**2)
    floor = float(base - np.exp(params.x_var) / 2.0)
    joint_line = float(base - 0.5)
    return floor, joint_line


def b6_entropy_floor_sv(params_star: SvParams, draws: int, seed: int) -> AuditReport:
    """Monte Carlo estimate of ``E[log p(Y_1)]`` against its Jensen floor.

    The estimate averages the exact (quadrature) marginal log density
    over stationary draws of the observation; finiteness and the margin
    above the closed-form floor certify the conditional-entropy
    condition at horizon one. ``draws`` must be an integer >= 2.
    """
    _check_size("draws", draws)
    rng = rngmod.substream(seed, rngmod.AUDIT, 3)
    ys = sv_g_sample(params_star, sv_stationary_x_sample(params_star, draws, rng), rng)
    vals = sv_marginal_y_logpdf(params_star, ys)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(draws))
    floor, joint_line = b6_jensen_floor_sv(params_star)
    return AuditReport(
        assumption="B6.2",
        status="estimate",
        statistic=mean,
        ci_lo=mean - 1.96 * se,
        ci_hi=mean + 1.96 * se,
        seed=seed,
        sims=draws,
        detail=(
            f"Jensen floor {floor:.6f} (independent stationary copy); "
            f"coupled-moment line {joint_line:.6f} is the small-variance limit"
        ),
    )


def b6_audit_sv(
    params_star: SvParams,
    box: SvThetaBox,
    proper_prior: bool,
    draws: int,
    seed: int,
) -> tuple[AuditReport, AuditReport]:
    """Both prior-side conditions for the stochastic volatility model."""
    return (
        b6_sufficient_integral_sv(box, proper=proper_prior),
        b6_entropy_floor_sv(params_star, draws, seed),
    )


# ---------------------------------------------------------------------------
# Subadditivity of the sup-integrated blocks (finite models, exact)
# ---------------------------------------------------------------------------


def finite_w_source(params_list: Sequence) -> Callable[[int, int, np.ndarray], float]:
    """Exact ``W(r, s) = psup`` over a finite parameter set and start state.

    ``W(r, s)`` integrates the transition block over hidden paths for the
    observed symbols ``y_{r+1:s}`` and maximizes over the parameter set
    and the starting state; ``W(r, r) = 1`` by the empty-product
    convention.
    """
    mats = []
    for prm in params_list:
        mats.append((prm.P, prm.G))

    def w(r: int, s: int, ys: np.ndarray) -> float:
        if not 0 <= r <= s <= len(ys):
            raise ValueError("need 0 <= r <= s <= n")
        if r == s:
            return 1.0
        best = 0.0
        for P, G in mats:
            vec = np.ones(P.shape[0])
            for k in range(s - 1, r - 1, -1):
                vec = P @ (G[:, int(ys[k])] * vec)
            best = max(best, float(vec.max()))
        return best

    return w


def kingman_check(
    w_fn: Callable[[int, int, np.ndarray], float],
    obs: np.ndarray,
    triples: Sequence[tuple[int, int, int]],
) -> AuditReport:
    """Verify ``W(r, t) <= W(r, s) W(s, t)`` on every triple.

    Reports the worst relative violation; the multiplicative property is
    what feeds the subadditive ergodic argument, so any genuine positive
    violation is a fail.
    """
    ys = np.asarray(obs).reshape(-1)
    worst = -np.inf
    for r, s, t in triples:
        if not 0 <= r <= s <= t <= len(ys):
            raise ValueError(f"bad triple {(r, s, t)}")
        w_rt = w_fn(r, t, ys)
        w_split = w_fn(r, s, ys) * w_fn(s, t, ys)
        scale = max(abs(w_rt), np.finfo(float).tiny)
        worst = max(worst, (w_rt - w_split) / scale)
    status = "pass" if worst <= _KINGMAN_REL_TOL else "fail"
    return AuditReport(
        assumption="Kingman",
        status=status,
        statistic=float(worst),
        sims=len(triples),
        detail=f"max relative violation of W(r,t) <= W(r,s) W(s,t) over {len(triples)} triples",
    )


# ---------------------------------------------------------------------------
# Positivity of transition and emission densities
# ---------------------------------------------------------------------------


def positivity_audit(spec: ModelSpec, seed: int = 0) -> list[AuditReport]:
    """Positivity of the transition density (and the emission, for HMMs).

    Finite models are decided exactly from their matrices. The Gaussian
    families are analytically positive; the sampled evaluations at random
    and extreme points only guard the implementation.
    """
    reports = []
    if spec.finite is not None:
        p_ok = bool(np.all(spec.finite.P > 0.0))
        g_ok = bool(np.all(spec.finite.G > 0.0))
        reports.append(
            AuditReport(
                assumption="B3",
                status="pass" if (p_ok and g_ok) else "fail",
                statistic=float(min(spec.finite.P.min(), spec.finite.G.min())),
                detail="exact minimum entry of the transition and emission matrices",
            )
        )
        reports.append(
            AuditReport(
                assumption="C2",
                status="pass" if g_ok else "fail",
                statistic=float(spec.finite.G.min()),
                detail="exact minimum emission probability",
            )
        )
        return reports
    rng = rngmod.substream(seed, rngmod.AUDIT, 4)
    p, q = spec.state_dim, spec.obs_dim
    # x, y, x', y' per sample: one block, the stream the draws would take one sample at a time
    z = np.split(rng.standard_normal((_POSITIVITY_SAMPLES, 2 * (p + q))) * 5.0, [p, p + q, 2 * p + q], axis=1)
    sampled = spec.trans_logpdf(z[:2], z[2:])
    # every pair (a, b) of extremes: from the pair with all coordinates a to the pair with all b
    ext, k = np.array(_POSITIVITY_EXTREMES), len(_POSITIVITY_EXTREMES)
    a, b = (np.broadcast_to(v, (k, k, p + q)) for v in (ext[:, None, None], ext[None, :, None]))
    extreme = spec.trans_logpdf((a[..., :p], a[..., p:]), (b[..., :p], b[..., p:]))
    worst = min(np.min(sampled), np.min(extreme))
    analytic = spec.glm is not None or spec.sv is not None
    reports.append(
        AuditReport(
            assumption="B3",
            status=("pass" if analytic else "estimate") if np.isfinite(worst) else "fail",
            statistic=float(worst),
            seed=seed,
            sims=_POSITIVITY_SAMPLES,
            detail="minimum transition log-density over sampled and extreme points",
        )
    )
    if spec.hmm is not None:
        zs = rng.standard_normal((_POSITIVITY_SAMPLES, p + q)) * 5.0  # x then y per sample
        # a scalar state has no trailing axis; an observation keeps one unless the factor is scalar (p = q = 1)
        x = zs[:, 0] if p == 1 else zs[:, :p]
        y = zs[:, 1] if p == q == 1 else zs[:, p:]
        worst_g = np.min(spec.hmm.g_logpdf(x, y))
        reports.append(
            AuditReport(
                assumption="C2",
                status=("pass" if analytic else "estimate") if np.isfinite(worst_g) else "fail",
                statistic=float(worst_g),
                seed=seed,
                sims=_POSITIVITY_SAMPLES,
                detail="minimum emission log-density over sampled points",
            )
        )
    return reports
