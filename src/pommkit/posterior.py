"""Posterior computation over parameter grids and concentration diagnostics.

The posterior over a finite weighted grid is the ratio of prior-weighted
likelihoods; everything is carried in the log domain and normalized with
log-sum-exp, so the structural invariances (prior rescaling, adding a
constant to every log likelihood) hold exactly. The diagnostics in this
module operationalize the asymptotic story: mass outside shrinking balls
around the reference parameter, approximate maximum likelihood over the
grid, the merging of likelihoods under different initial laws, and the
exponential decay rate of prior-averaged likelihood ratios over sets
that exclude the reference parameter.

Every likelihood in this module comes from :func:`pommkit.likelihood.loglik`,
:func:`pommkit.likelihood.increments` or, for grids,
:func:`pommkit.likelihood.grid_increments`, so the evaluator behind each
method name is chosen in one place. Every exact grid call (profiles,
posteriors, the grid argmax, remoteness) reads one prefix-sum sweep of
the whole grid's ``grid_increments``, which filters a Kalman grid of
one-dimensional state-space models in a single vectorized pass; an exact
grid log likelihood is the point's last prefix-profile entry, a
sequential sum that can differ in the last bits from one spec's pairwise
``loglik``. The particle filter and quadrature evaluate the points in
grid order.

A study sweeps one grid over one data set several times: the remoteness
of a far set and of the whole grid, then the grid AMLE. Each call reads
its rows and columns of ``_prefix_logliks``, a (G, k) array of prefix log
likelihoods at the sample sizes asked for and at n. A one-pass grid (a
``ScalarSsmGrid``, or a Kalman list of p = q = 1 specs) keeps its last
sweep per exact key (the parameter arrays, the checked observations, the
initial law's type and arrays, the method), so a study filters it once;
other exact grids are swept whole on every call. Each row is filtered
and summed on its own, so every value keeps the bits of a cold sweep of
the call's own (sub-)grid.

The loops that evaluate many likelihoods on the same data (a Metropolis
chain, a grid swept point by point, the two passes of a merging curve,
a remoteness profile and its reference) pass the evaluators one
prepared-observations record (``likelihood._Prepared``), so the data are
checked and converted once per loop, not once per call. Every value keeps
the bits of a call on the raw observations.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import rng as rngmod
from .core import DegeneratePosteriorError, GaussianOnZ, ModelSpec, PointMass, Stationary, _check_size, simulate_complete
from .likelihood import _finite_x0_dist, _mixed_start, _observations, _one_pass_increments, _one_pass_params, _path_joint
from .likelihood import _overflow_ignored, _Prepared, forward_loglik, grid_increments, increments, loglik
from .models import ScalarSsmGrid, finite_hmm_stationary
from .rng import _is_int

# the loglik options a grid sweep passes on; it sets ``stream`` itself
_GRID_OPTIONS = ("particles", "seed", "nodes")
_DECAY_TOL = 0.01  # remoteness_rate: a slope below -_DECAY_TOL per observation counts as decay
_STRING_PATH_CAP = 1 << 18  # image_density_check: observation strings times hidden paths
_LAW_ARRAYS = {Stationary: (), PointMass: ("x", "y"), GaussianOnZ: ("mean", "cov")}  # the laws a sweep key covers

# the last one-pass sweep, assigned whole: (key, {sample size: column}, read-only (G, k) prefix log likelihoods)
_SWEEP = None


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamGrid:
    """A finite discretization of the parameter space carrying a prior.

    ``prior_weight`` holds per-cell prior masses (possibly unnormalized,
    so improper priors are representable); ``cell_volume`` is metadata
    for converting masses to densities.
    """

    points: np.ndarray  # (G, d)
    prior_weight: np.ndarray  # (G,)
    cell_volume: np.ndarray  # (G,)

    def __init__(self, points, prior_weight=None, cell_volume=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError(f"points must be a (G, d) array with G, d >= 1, got shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        g = len(points)
        w = np.full(g, 1.0 / g) if prior_weight is None else np.asarray(prior_weight, dtype=float)
        v = np.ones(g) if cell_volume is None else np.asarray(cell_volume, dtype=float)
        if w.shape != (g,) or v.shape != (g,):
            raise ValueError("prior_weight and cell_volume must have one entry per point")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("prior weights must be finite and non-negative")
        if not np.any(w > 0.0):
            raise ValueError("at least one prior weight must be positive")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("cell volumes must be finite and non-negative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "prior_weight", w)
        object.__setattr__(self, "cell_volume", v)

    def __len__(self) -> int:
        return len(self.points)


def uniform_grid_1d(lo: float, hi: float, count: int) -> ParamGrid:
    """Evenly spaced scalar grid with a uniform (proper) prior."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {lo} and {hi}")
    if not _is_int(count) or count < 2 or hi <= lo:
        raise ValueError(f"need an integer count >= 2 and hi > lo, got count {count!r} on [{lo}, {hi}]")
    pts = np.linspace(lo, hi, count)
    step = pts[1] - pts[0]
    return ParamGrid(pts[:, None], np.full(count, 1.0 / count), np.full(count, step))


# ---------------------------------------------------------------------------
# Posterior over a grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior masses over a grid after ``n`` observations."""

    grid: ParamGrid
    n: int
    log_mass: np.ndarray  # (G,), logsumexp == 0

    def masses(self) -> np.ndarray:
        return np.exp(self.log_mass)

    def log_density(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.log_mass - np.log(self.grid.cell_volume)

    def mean(self) -> np.ndarray:
        return self.masses() @ self.grid.points


def _logsumexp(v: np.ndarray) -> float:
    m = v.max()
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.exp(v - m).sum()))


def _log_prior(grid: ParamGrid) -> np.ndarray:
    with np.errstate(divide="ignore"):  # a zero prior weight has log -inf
        return np.log(grid.prior_weight)


def _normalize_log_mass(log_unnorm: np.ndarray, n: int, grid: ParamGrid) -> PosteriorGrid:
    total = _logsumexp(log_unnorm)
    if total == -np.inf or not np.isfinite(total):
        raise DegeneratePosteriorError(
            "posterior is degenerate: every parameter has zero (or non-finite) posterior mass"
        )
    return PosteriorGrid(grid=grid, n=n, log_mass=log_unnorm - total)


GridModels = Union[ScalarSsmGrid, Sequence[ModelSpec]]  # a checked record or one spec per grid point


def _check_one_spec_per_point(specs: GridModels, grid: ParamGrid) -> None:
    if len(specs) != len(grid):
        raise ValueError("one model per grid point is required")


def _sweep_key(params: tuple, ys: np.ndarray, init, method: str) -> Optional[tuple]:
    """The exact content of a one-pass sweep's inputs, or ``None`` for a law the key does not cover.

    The key is ``(method, type(init), digest)``, where the digest is one
    SHA-256 over the dtype, shape and bytes of the four parameter arrays,
    of the checked observations and of the law's arrays, so -0.0 and 0.0
    differ and no float is rounded (as ``==`` and ``repr`` would). A law
    of another type, or with an object array, whose bytes are pointers,
    has no key.
    """
    names = _LAW_ARRAYS.get(type(init))
    if names is None:
        return None
    arrays = [getattr(init, name) for name in names]
    if any(v.dtype.hasobject for v in arrays):
        return None
    digest = hashlib.sha256()
    for v in (*params, ys, *arrays):
        digest.update(f"{v.dtype.str}{v.shape}".encode())
        digest.update(np.ascontiguousarray(v))
    return method, type(init), digest.digest()


def _prefix_logliks(models: GridModels, obs, init, method: str, ns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Prefix log likelihoods of an exact grid at the sample sizes ``ns``, shape (G, len(ns)).

    ``ns`` holds sample sizes in 0..n, where 0 gives zeros; ``None`` asks
    for n alone, read once the sweep has checked the observations. Column
    j is column ``ns[j] - 1`` of :func:`grid_loglik_profiles`, bit for bit.
    A sweep keeps only its columns at the sizes asked for and at n, as a
    read-only (G, k) array; the (n, G) buffer is freed on return. A
    one-pass grid (``likelihood._one_pass_params``) keeps its last sweep
    in ``_SWEEP`` under its key (``_sweep_key``), so a call whose key
    matches and whose sizes are kept filters nothing; any other grid is
    swept on every call. The memo is assigned only after a sweep
    succeeds, so malformed input raises on every call.
    """
    global _SWEEP
    sizes = None if ns is None else [int(n) for n in ns]
    params = _one_pass_params(models, method)
    key = None if params is None else _sweep_key(params, _observations(obs, 1), init, method)
    memo = _SWEEP
    if key is None or memo is None or memo[0] != key or not set(sizes or ()) <= memo[1].keys():
        if params is None:
            profiles = grid_loglik_profiles(models, obs, init, method)
        else:
            profiles = _cumulated(_one_pass_increments(params, obs, init))
        kept_sizes = sorted({*(sizes or ()), profiles.shape[1]})
        kept = np.column_stack([profiles[:, n - 1] if n else np.zeros(len(profiles)) for n in kept_sizes])
        kept.flags.writeable = False
        memo = key, {n: j for j, n in enumerate(kept_sizes)}, kept
        if key is not None:
            _SWEEP = memo
    return memo[2][:, [-1] if sizes is None else [memo[1][n] for n in sizes]]  # n is the largest size kept


def _grid_logliks(specs: GridModels, grid: ParamGrid, obs: np.ndarray, init, method: str, kw: dict) -> np.ndarray:
    """Log likelihood of every grid point, after the checks that ``grid_posterior`` and ``amle_grid`` share.

    An exact grid, and a ``ScalarSsmGrid`` with any method (for which
    ``_one_pass_params`` raises), reads the full-length column of
    ``_prefix_logliks``; with the particle filter or quadrature, point i
    of a spec list draws particle-filter stream i.
    """
    _check_one_spec_per_point(specs, grid)
    unknown = sorted(set(kw) - set(_GRID_OPTIONS))
    if unknown:
        raise TypeError(f"unknown likelihood options {unknown}; a grid sweep takes {list(_GRID_OPTIONS)}")
    if method not in ("bpf", "quadrature") or isinstance(specs, ScalarSsmGrid):
        return _prefix_logliks(specs, obs, init, method)[:, 0]
    prepared = _Prepared(obs)
    return np.array([loglik(s, prepared, init, method, stream=i, **kw).value for i, s in enumerate(specs)])


def grid_posterior(
    specs: GridModels,
    grid: ParamGrid,
    obs: np.ndarray,
    init,
    method: str = "kalman",
    **kw,
) -> PosteriorGrid:
    """Posterior masses ``prior x likelihood`` over the grid, normalized.

    ``specs`` supplies the bound model for each grid point, as one spec
    per point or a ``ScalarSsmGrid``, which gives the bits of its spec
    list, and ``kw`` the options ``particles``, ``seed`` and ``nodes`` of
    :func:`~pommkit.likelihood.loglik`; grid point i draws particle-filter
    stream i. The exact methods give the bits of
    :func:`posterior_from_profiles`; a one-pass grid (a ``ScalarSsmGrid``
    or a Kalman list of p = q = 1 specs) reads the last sweep of the same
    grid, data and initial law when one is kept, which holds only a few
    columns of prefix log likelihoods. With ``n = 0`` observations the
    posterior is the normalized prior, and ``init`` is checked as at any
    n. Non-finite observations raise ``ValueError``. A posterior in which
    every point has zero mass raises instead of silently returning a
    uniform distribution.
    """
    lls = _grid_logliks(specs, grid, obs, init, method, kw)
    return _normalize_log_mass(_log_prior(grid) + lls, len(obs), grid)


def grid_loglik_profiles(
    models: GridModels,
    obs: np.ndarray,
    init,
    method: str = "kalman",
) -> np.ndarray:
    """Cumulative log likelihood of every observation prefix, per grid point.

    ``models`` is a ``ScalarSsmGrid`` or one spec per grid point, as
    :func:`pommkit.likelihood.grid_increments` takes them. Only the exact
    recursions expose increments, so ``method`` must be ``kalman`` or
    ``forward``. Returns an array of shape (G, n) whose [i, k] entry is
    ``log p(y_{1:k+1})`` under model i.

    The sums run along time in place on the filter's (n, G) buffer of
    increments, one sequential sum per grid point as ``np.cumsum`` of a
    row of ``grid_increments`` takes it, and the result is the (G, n)
    transpose view of that buffer: the working set is one (n, G) array.
    The grid calls of this module read their columns of the same sums
    (``_prefix_logliks``); this function keeps nothing between calls.
    """
    return _cumulated(grid_increments(models, obs, init, method))


def _cumulated(steps: np.ndarray) -> np.ndarray:
    """Prefix sums of the (G, n) increments ``steps``, in place along time on their (n, G) buffer, as its (G, n) view."""
    steps = steps.T
    return np.cumsum(steps, axis=0, out=steps).T


def posterior_from_profiles(grid: ParamGrid, profiles: np.ndarray, n: int) -> PosteriorGrid:
    """Posterior at sample size ``n`` from precomputed prefix profiles, one row per grid point.

    Column ``n - 1`` holds the log likelihoods; ``-inf`` is zero likelihood,
    and a NaN or ``+inf`` entry raises ``ValueError`` naming its row.
    """
    profiles = np.asarray(profiles)
    if profiles.ndim != 2 or len(profiles) != len(grid):
        raise ValueError(f"profiles of shape {profiles.shape} need one row per point of a grid of shape {grid.points.shape}")
    if not (_is_int(n) and 0 <= n <= profiles.shape[1]):
        raise ValueError(f"n must be an integer in 0..{profiles.shape[1]}, got {n!r}")
    lls = profiles[:, n - 1] if n else 0.0
    bad = np.flatnonzero(np.isnan(lls) | (lls == np.inf))
    if len(bad):
        raise ValueError(f"profile row {bad[0]} holds log likelihood {lls[bad[0]]} at n = {n}; need a number or -inf")
    return _normalize_log_mass(_log_prior(grid) + lls, n, grid)


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    n: int
    p: int
    mass_outside: float

    def __post_init__(self):
        if not -1e-12 <= self.mass_outside <= 1.0 + 1e-12:
            raise ValueError("mass_outside must lie in [0, 1]")


def concentration_profile(
    posteriors: Sequence[PosteriorGrid],
    theta_star: np.ndarray,
    ps: Sequence[int],
) -> list[ConcentrationRow]:
    """Posterior mass of ``{theta : d(theta, theta*) >= 1/p}``.

    Grid cells belong to the outside set exactly when their center point
    is at distance at least ``1/p`` (closed-complement convention).
    """
    for p in ps:
        if not _is_int(p) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    rows = []
    for post in posteriors:
        if theta_star.shape != post.grid.points.shape[1:] or not np.isfinite(theta_star).all():
            raise ValueError(f"theta_star must be finite, of shape {post.grid.points.shape[1:]}, got {theta_star}")
        dist = np.linalg.norm(post.grid.points - theta_star[None, :], axis=1)
        masses = post.masses()
        for p in ps:
            outside = float(masses[dist >= 1.0 / p].sum())
            rows.append(ConcentrationRow(n=post.n, p=int(p), mass_outside=min(outside, 1.0)))
    return rows


# ---------------------------------------------------------------------------
# Approximate maximum likelihood over the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmleResult:
    point: np.ndarray
    index: int
    loglik: float
    epsilon_n: Optional[float] = None


def amle_grid(
    specs: GridModels,
    grid: ParamGrid,
    obs: np.ndarray,
    init,
    method: str = "kalman",
    star_loglik: Optional[float] = None,
    **kw,
) -> AmleResult:
    """Likelihood argmax over the grid; ties resolve to the lowest index.

    ``specs`` is one spec per grid point or a ``ScalarSsmGrid``; an exact
    method's log likelihoods are the last column of
    :func:`grid_loglik_profiles`. A one-pass grid (a ``ScalarSsmGrid`` or a
    Kalman list of p = q = 1 specs) swept before with the same parameters,
    observations, initial law and method, as by :func:`remoteness_rate`
    on the whole grid, is not filtered again: its full-length column is
    kept. When the exact reference log likelihood
    is supplied, the achieved normalized defect
    ``(loglik(argmax) - star_loglik) / n`` is reported; a non-finite
    ``star_loglik`` raises ``ValueError``.
    """
    if star_loglik is not None and not math.isfinite(star_loglik):
        raise ValueError(f"star_loglik must be a finite log likelihood, got {star_loglik!r}")
    lls = _grid_logliks(specs, grid, obs, init, method, kw)
    if np.all(lls == -np.inf):
        raise ValueError("every grid point has zero likelihood")
    idx = int(np.argmax(lls))
    eps = None if star_loglik is None else float((lls[idx] - star_loglik) / max(len(obs), 1))
    return AmleResult(point=grid.points[idx].copy(), index=idx, loglik=float(lls[idx]), epsilon_n=eps)


# ---------------------------------------------------------------------------
# Merging of likelihoods across initial distributions
# ---------------------------------------------------------------------------


def merging_curve(spec: ModelSpec, obs: np.ndarray, init_eta, den_spec: Optional[ModelSpec] = None) -> np.ndarray:
    """Sequence ``n^{-1} log [ p_{spec, eta}(y_{1:n}) / p_{den, stationary}(y_{1:n}) ]``.

    With the default denominator (the same model under its stationary
    law) and the reference parameter, the curve tends to zero almost
    surely: the initial law washes out. Against a different reference
    model in the denominator, the eventual level of the curve is bounded
    below by minus the expected transition KLD between the two members.
    """

    def exact_method(s: ModelSpec) -> str:
        return "forward" if s.finite is not None else "kalman"

    den_spec = den_spec if den_spec is not None else spec
    prepared = _Prepared(obs)
    num = np.cumsum(increments(spec, prepared, init_eta, exact_method(spec)))
    den = np.cumsum(increments(den_spec, prepared, Stationary(), exact_method(den_spec)))
    if np.any(den == -np.inf):
        raise ValueError("stationary reference likelihood vanished; merging ratio undefined")
    return (num - den) / np.arange(1, len(num) + 1)


# ---------------------------------------------------------------------------
# Remoteness rate of parameter sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemotenessResult:
    slope: float
    ns: np.ndarray
    log_ratio: np.ndarray
    decaying: bool
    flags: tuple = field(default_factory=tuple)


def remoteness_rate(
    specs: GridModels,
    grid: ParamGrid,
    select: Union[np.ndarray, Callable[[np.ndarray], bool]],
    obs: np.ndarray,
    init,
    star_spec: ModelSpec,
    ns: Sequence[int],
    method: str = "kalman",
) -> RemotenessResult:
    """Decay rate of the prior-weighted likelihood ratio over a subset.

    Computes ``log sum_{theta in A} w(theta) p_theta(y_{1:n}) / p*(y_{1:n})``
    for each requested ``n`` (the reference density uses the stationary
    initial law) and fits an ordinary least-squares line to the last half
    of the n-range. A negative slope is the empirical signature of an
    exponentially remote set; a set containing the reference parameter
    cannot decay. ``specs`` is one spec per grid point or a
    ``ScalarSsmGrid``. ``select`` is a boolean (G,) mask or a predicate on
    grid points and must select prior mass; sample sizes are distinct
    integers.

    Every exact grid is filtered whole (``_prefix_logliks``) and the set
    reads its rows: the bits of a sweep of the selected points alone,
    since each row is filtered and summed on its own. A one-pass grid (a
    ``ScalarSsmGrid`` or a Kalman list of p = q = 1 specs) is filtered
    once per key of parameters, observations, initial law and method, and
    keeps its prefix log likelihoods at ``ns`` and at n, so the whole-grid
    call and :func:`amle_grid` on the same data filter nothing. A set
    filtered alone pays for the whole grid's sweep.
    """
    _check_one_spec_per_point(specs, grid)
    mask = np.array([bool(select(pt)) for pt in grid.points]) if callable(select) else np.asarray(select)
    if mask.dtype != bool or mask.shape != (len(grid),):
        raise ValueError(f"the selection must be a callable or a boolean mask with one entry per grid point, "
                         f"got {mask.dtype} of shape {mask.shape}")
    if not grid.prior_weight[mask].any():
        raise ValueError(f"the selected set of {mask.sum()} grid points has zero prior mass")
    if not all(_is_int(n) for n in ns):
        raise ValueError(f"sample sizes must be integers, got {list(ns)!r}")
    ns = np.asarray(sorted(ns), dtype=int)
    if len(ns) < 2 or np.any(ns[1:] == ns[:-1]):
        raise ValueError(f"the decay rate needs at least two distinct sample sizes, got {ns.tolist()}")
    if ns[0] < 1 or ns[-1] > len(obs):
        raise ValueError("requested sample sizes exceed the data")
    prepared = _Prepared(obs)
    profiles = _prefix_logliks(specs, prepared, init, method, ns)[mask]
    star = np.cumsum(increments(star_spec, prepared, Stationary(), method))
    log_prior = _log_prior(grid)[mask]
    values = np.array([_logsumexp(log_prior + col) - star[n - 1] for col, n in zip(profiles.T, ns)])
    half = len(ns) // 2 if len(ns) >= 4 else 0  # fit the last half once it holds two points
    slope = float(np.polyfit(ns[half:], values[half:], 1)[0])
    flags = () if slope < -_DECAY_TOL else ("no_decay",)
    return RemotenessResult(slope=slope, ns=ns, log_ratio=values, decaying=slope < -_DECAY_TOL, flags=flags)


# ---------------------------------------------------------------------------
# Random-walk Metropolis (optionally pseudo-marginal)
# ---------------------------------------------------------------------------


def _log_density(value, term: str, th: np.ndarray):
    """``value`` if it is a number or ``-inf``; NaN or ``+inf`` raise ``ValueError`` naming ``term`` and ``th``."""
    if value == -np.inf or math.isfinite(value):
        return value
    raise ValueError(f"the {term} log density at theta = {th.tolist()} is {value}; need a number or -inf")


@dataclass(frozen=True)
class MhResult:
    samples: np.ndarray  # (steps, d)
    acceptance_rate: float
    flags: tuple = field(default_factory=tuple)


def mh_posterior(
    build: Callable[[np.ndarray], Optional[ModelSpec]],
    prior_logpdf: Callable[[np.ndarray], float],
    obs: np.ndarray,
    init,
    theta0: np.ndarray,
    steps: int,
    proposal_sd: np.ndarray,
    seed: int,
    method: str = "kalman",
    particles: int = 512,
) -> MhResult:
    """Random-walk Metropolis over the parameter vector.

    ``build`` maps a parameter vector to a bound model (returning None
    for out-of-domain proposals, which are rejected). With the particle
    filter as likelihood this is a pseudo-marginal chain: each proposal
    receives a fresh estimator stream and the current value is carried,
    which leaves the target invariant but is flagged in the result.

    A log density of ``-inf``, from the prior or the likelihood, rejects
    the point (and a start there raises). NaN or ``+inf`` from either
    term raises ``ValueError`` naming the term and the parameter vector,
    at the start and at any proposal.

    The observations are prepared once per chain: every step passes one
    prepared-observations record to :func:`~pommkit.likelihood.loglik`,
    which checks the data and takes their first column as Python floats
    at the first spec built, and again only for a spec of other
    observation dimensions. Every chain keeps the bits of one that
    evaluates ``loglik`` on the raw observations at every step.

    The chain runs inside one ``np.errstate(over="ignore")``
    (``likelihood._overflow_ignored``), which the scalar Kalman filter
    needs for an innovation whose square overflows (log density -inf,
    no warning), so the filter does not enter it at every step; an
    overflow inside ``build`` or ``prior_logpdf`` gives no
    ``RuntimeWarning`` either. On 400 observations near the unit root (a* = 0.95, b = 1,
    ``build`` a ``scalar_ssm``) a step costs about 76 us: 9 us for the
    build, 36 us for the filter's mean recursion, 7 us each for its
    Riccati pass and log densities, 7 us of call plumbing and 9 us of
    the chain's own proposal, prior and acceptance work (best of 40 runs
    of 250 steps, process CPU time, a loaded 2-core box, CPython 3.11,
    numpy 2.4).
    """
    if not _is_int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if theta.ndim != 1:
        raise ValueError(f"theta0 must be a scalar or a 1-D vector, got shape {np.shape(theta0)}")
    if not np.isfinite(theta).all():
        raise ValueError(f"theta0 must be finite, got {theta0!r}")
    d = theta.size
    sd = np.atleast_1d(np.asarray(proposal_sd, dtype=float))
    if sd.shape != (d,) or not np.isfinite(sd).all() or np.any(sd < 0.0):
        raise ValueError(f"proposal_sd must hold {d} finite non-negative entries, got {proposal_sd!r}")
    rng = rngmod.substream(seed, rngmod.MH)
    flags = []
    if method == "bpf":
        flags.append("pseudo_marginal")
    if np.all(sd == 0.0):
        flags.append("degenerate_proposal")

    prepared = _Prepared(obs)

    def logpost(th: np.ndarray, stream: int) -> float:
        lp = _log_density(prior_logpdf(th), "prior", th)
        if lp == -np.inf:
            return -np.inf
        spec = build(th)
        if spec is None:
            return -np.inf
        ll = loglik(spec, prepared, init, method, particles=particles, seed=seed, stream=stream).value
        return lp + _log_density(ll, "likelihood", th)

    with _overflow_ignored():
        current = logpost(theta, 0)
        if current == -np.inf:
            raise ValueError("the chain cannot start from a zero-density point")
        samples = np.empty((steps, d))
        accepted = 0
        for step in range(steps):
            prop = theta + sd * rng.standard_normal(d)
            cand = logpost(prop, step + 1)
            if np.log(rng.random()) < cand - current:
                theta, current = prop, cand
                accepted += 1
            samples[step] = theta
    return MhResult(samples=samples, acceptance_rate=accepted / steps, flags=tuple(flags))


# ---------------------------------------------------------------------------
# Exact likelihood-ratio identity on finite models
# ---------------------------------------------------------------------------


def _finite_enumeration_ratio_parts(spec_star: ModelSpec, spec_other: ModelSpec, init_eta, ys: np.ndarray):
    """Path sums for the observed string: (p_star, p_other, per-path terms)."""
    P_s, G_s = spec_star.finite.P, spec_star.finite.G
    P_o, G_o = spec_other.finite.P, spec_other.finite.G
    K = spec_star.finite.n_states
    pi_x = finite_hmm_stationary(spec_star.finite)
    x1_other = _mixed_start(_finite_x0_dist(spec_other, init_eta), P_o)
    p_star = 0.0
    p_other = 0.0
    per_path = []
    for path in itertools.product(range(K), repeat=len(ys)):
        joint_s = _path_joint(pi_x, P_s, G_s, path, ys)
        joint_o = _path_joint(x1_other, P_o, G_o, path, ys)
        p_star += joint_s
        p_other += joint_o
        per_path.append((joint_s, joint_o))
    return p_star, p_other, per_path


def _check_finite_pair(spec_star: ModelSpec, spec_other: ModelSpec) -> None:
    if spec_star.finite is None or spec_other.finite is None:
        raise ValueError("the identity is checked exactly on finite models")


def image_density_check(spec_star: ModelSpec, spec_other: ModelSpec, init_eta, n: int) -> float:
    """Largest residual of the conditional-expectation identity for ratios.

    For every observation string of length ``n``, the observed-data
    likelihood ratio (two forward passes) must equal the expectation of
    the complete-data ratio conditional on the observations (exact path
    enumeration under the reference law). Returns the maximum absolute
    difference across strings. ``n`` must be an integer >= 1.
    """
    _check_finite_pair(spec_star, spec_other)
    _check_size("n", n, 1)
    K, L = spec_star.finite.n_states, spec_star.finite.n_symbols
    if (K**n) * (L**n) > _STRING_PATH_CAP:
        raise ValueError("enumeration cap exceeded")
    worst = 0.0
    for ys in itertools.product(range(L), repeat=n):
        ys = np.array(ys, dtype=int)
        lhs = np.exp(
            forward_loglik(spec_other, ys, init_eta).value - forward_loglik(spec_star, ys, Stationary()).value
        )
        p_star, p_other, per_path = _finite_enumeration_ratio_parts(spec_star, spec_other, init_eta, ys)
        # literal conditional expectation: sum over hidden paths of
        # P*(path | y) times the complete-data ratio on that path
        rhs = sum((joint_s / p_star) * (joint_o / joint_s) for joint_s, joint_o in per_path if joint_s > 0.0)
        worst = max(worst, abs(lhs - rhs))
    return worst


def image_ratio_markov_check(
    spec_star: ModelSpec,
    spec_other: ModelSpec,
    init_eta,
    n: int,
    sims: int,
    seed: int,
) -> tuple[float, float]:
    """Frequency of complete-data ratios exceeding ``n^2`` times observed ones.

    Simulates stationary reference paths and compares the complete-data
    ratio against the observed-data ratio; by the Markov inequality the
    exceedance probability is at most ``1/n^2``. Returns the empirical
    fraction and the bound. ``n`` and ``sims`` must be integers >= 1.
    """
    _check_finite_pair(spec_star, spec_other)
    _check_size("n", n, 1)
    _check_size("sims", sims, 1)
    P_s, G_s = spec_star.finite.P, spec_star.finite.G
    P_o, G_o = spec_other.finite.P, spec_other.finite.G
    pi_x = finite_hmm_stationary(spec_star.finite)
    x1_other = _mixed_start(_finite_x0_dist(spec_other, init_eta), P_o)
    count = 0
    for s in range(sims):
        traj = simulate_complete(spec_star, Stationary(), n, seed, stream=1000 + s)
        xs = traj.x[1:, 0].astype(int)
        ys = traj.y[1:, 0].astype(int)
        complete = _path_joint(x1_other, P_o, G_o, xs, ys) / _path_joint(pi_x, P_s, G_s, xs, ys)
        observed = np.exp(
            forward_loglik(spec_other, ys, init_eta).value - forward_loglik(spec_star, ys, Stationary()).value
        )
        if complete > n**2 * observed:
            count += 1
    return count / sims, 1.0 / n**2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _posterior_csv_text(post: PosteriorGrid) -> str:
    """The posterior table: a ``theta0,...,log_post`` header, then one row per grid point, each value ``.17g``."""
    header = ",".join([f"theta{i}" for i in range(post.grid.points.shape[1])] + ["log_post"])
    rows = (",".join([f"{c:.17g}" for c in pt] + [f"{ld:.17g}"])
            for pt, ld in zip(post.grid.points.tolist(), post.log_density().tolist()))
    return "\n".join([header, *rows, ""])


def write_posterior_csv(post: PosteriorGrid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_posterior_csv_text(post))


def write_concentration_csv(rows: Sequence[ConcentrationRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,p,mass_outside\n")
        for r in rows:
            fh.write(f"{r.n},{r.p},{r.mass_outside:.17g}\n")
