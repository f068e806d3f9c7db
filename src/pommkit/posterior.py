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
method name is chosen in one place. Grid sweeps with an exact method
(profiles, posteriors, the grid argmax, remoteness) take one
``grid_increments`` pass, which filters a Kalman grid of one-dimensional
state-space models in a single vectorized pass; the particle filter and
quadrature evaluate the grid points one after another, in grid order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import rng as rngmod
from .core import DegeneratePosteriorError, ModelSpec, Stationary, simulate_complete
from .likelihood import _finite_x0_dist, forward_loglik, grid_increments, increments, loglik
from .models import ScalarSsmGrid, finite_hmm_stationary
from .rng import _is_int

# the loglik options a grid sweep passes on; it sets ``stream`` itself
_GRID_OPTIONS = ("particles", "seed", "nodes")
_DECAY_TOL = 0.01  # remoteness_rate: a slope below -_DECAY_TOL per observation counts as decay
_STRING_PATH_CAP = 1 << 18  # image_density_check: observation strings times hidden paths


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


def _check_grid_options(kw: dict) -> None:
    unknown = sorted(set(kw) - set(_GRID_OPTIONS))
    if unknown:
        raise TypeError(f"unknown likelihood options {unknown}; a grid sweep takes {list(_GRID_OPTIONS)}")


def _grid_logliks(specs: GridModels, obs: np.ndarray, init, method: str, kw: dict) -> np.ndarray:
    """Log likelihood of every grid point; point i draws particle-filter stream i.

    A ``ScalarSsmGrid`` always goes to ``grid_increments``, which rejects
    any method but ``kalman`` for it.
    """
    if method in ("kalman", "forward") or isinstance(specs, ScalarSsmGrid):
        return grid_increments(specs, obs, init, method).sum(axis=1)
    return np.array([loglik(s, obs, init, method, stream=i, **kw).value for i, s in enumerate(specs)])


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
    stream i. With ``n = 0`` observations the posterior is the normalized
    prior, and ``init`` is checked as at any n. Non-finite observations
    raise ``ValueError``. A posterior in
    which every point has zero mass raises instead of silently returning
    a uniform distribution.
    """
    _check_one_spec_per_point(specs, grid)
    _check_grid_options(kw)
    lls = _grid_logliks(specs, obs, init, method, kw)
    with np.errstate(divide="ignore"):
        log_prior = np.log(grid.prior_weight)
    return _normalize_log_mass(log_prior + lls, len(obs), grid)


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
    """
    return np.cumsum(grid_increments(models, obs, init, method), axis=1)


def posterior_from_profiles(grid: ParamGrid, profiles: np.ndarray, n: int) -> PosteriorGrid:
    """Posterior at sample size ``n`` from precomputed prefix profiles, one row per grid point."""
    profiles = np.asarray(profiles)
    if profiles.ndim != 2 or len(profiles) != len(grid):
        raise ValueError(f"profiles of shape {profiles.shape} need one row per point of a grid of shape {grid.points.shape}")
    if not (_is_int(n) and 0 <= n <= profiles.shape[1]):
        raise ValueError(f"n must be an integer in 0..{profiles.shape[1]}, got {n!r}")
    with np.errstate(divide="ignore"):
        log_prior = np.log(grid.prior_weight)
    return _normalize_log_mass(log_prior + (profiles[:, n - 1] if n else 0.0), n, grid)


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

    ``specs`` is one spec per grid point or a ``ScalarSsmGrid``. When
    the exact reference log likelihood is supplied, the achieved
    normalized defect ``(loglik(argmax) - star_loglik) / n`` is reported.
    """
    _check_one_spec_per_point(specs, grid)
    _check_grid_options(kw)
    lls = _grid_logliks(specs, obs, init, method, kw)
    if np.all(lls == -np.inf):
        raise ValueError("every grid point has zero likelihood")
    idx = int(np.argmax(lls))
    eps = None
    if star_loglik is not None:
        eps = float((lls[idx] - star_loglik) / max(len(obs), 1))
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
    num = np.cumsum(increments(spec, obs, init_eta, exact_method(spec)))
    den = np.cumsum(increments(den_spec, obs, Stationary(), exact_method(den_spec)))
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
    ``ScalarSsmGrid``, whose selected points are its boolean-mask
    sub-record.
    """
    _check_one_spec_per_point(specs, grid)
    if callable(select):
        mask = np.array([bool(select(pt)) for pt in grid.points])
    else:
        mask = np.asarray(select, dtype=bool)
    if mask.shape != (len(grid),):
        raise ValueError("selection mask must have one entry per grid point")
    if not mask.any():
        raise ValueError("the selected set contains no grid points")
    if not all(_is_int(n) for n in ns):
        raise ValueError(f"sample sizes must be integers, got {list(ns)!r}")
    ns = np.asarray(sorted(ns), dtype=int)
    if len(ns) < 2:
        raise ValueError("the decay rate needs at least two sample sizes")
    if ns[0] < 1 or ns[-1] > len(obs):
        raise ValueError("requested sample sizes exceed the data")
    sub_specs = specs[mask] if isinstance(specs, ScalarSsmGrid) else [s for s, m in zip(specs, mask) if m]
    profiles = grid_loglik_profiles(sub_specs, obs, init, method=method)
    star = np.cumsum(increments(star_spec, obs, Stationary(), method))
    with np.errstate(divide="ignore"):
        logw = np.log(grid.prior_weight[mask])
    values = np.array([_logsumexp(logw + profiles[:, n - 1]) - star[n - 1] for n in ns])
    half = len(ns) // 2 if len(ns) >= 4 else 0  # fit the last half once it holds two points
    slope = float(np.polyfit(ns[half:], values[half:], 1)[0])
    flags = () if slope < -_DECAY_TOL else ("no_decay",)
    return RemotenessResult(slope=slope, ns=ns, log_ratio=values, decaying=slope < -_DECAY_TOL, flags=flags)


# ---------------------------------------------------------------------------
# Random-walk Metropolis (optionally pseudo-marginal)
# ---------------------------------------------------------------------------


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
    """
    if not _is_int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
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

    def logpost(th: np.ndarray, stream: int) -> float:
        lp = prior_logpdf(th)
        if lp == -np.inf:
            return -np.inf
        spec = build(th)
        if spec is None:
            return -np.inf
        return lp + loglik(spec, obs, init, method, particles=particles, seed=seed, stream=stream).value

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
    eta_x = _finite_x0_dist(spec_other, init_eta)
    n = len(ys)
    p_star = 0.0
    p_other = 0.0
    per_path = []
    for path in itertools.product(range(K), repeat=n):
        joint_s = pi_x[path[0]] * G_s[path[0], ys[0]]
        joint_o = sum(eta_x[x0] * P_o[x0, path[0]] for x0 in range(K)) * G_o[path[0], ys[0]]
        for k in range(1, n):
            joint_s *= P_s[path[k - 1], path[k]] * G_s[path[k], ys[k]]
            joint_o *= P_o[path[k - 1], path[k]] * G_o[path[k], ys[k]]
        p_star += joint_s
        p_other += joint_o
        per_path.append((joint_s, joint_o))
    return p_star, p_other, per_path


def image_density_check(spec_star: ModelSpec, spec_other: ModelSpec, init_eta, n: int) -> float:
    """Largest residual of the conditional-expectation identity for ratios.

    For every observation string of length ``n``, the observed-data
    likelihood ratio (two forward passes) must equal the expectation of
    the complete-data ratio conditional on the observations (exact path
    enumeration under the reference law). Returns the maximum absolute
    difference across strings.
    """
    if spec_star.finite is None or spec_other.finite is None:
        raise ValueError("the identity is checked exactly on finite models")
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
    fraction and the bound.
    """
    P_s, G_s = spec_star.finite.P, spec_star.finite.G
    P_o, G_o = spec_other.finite.P, spec_other.finite.G
    pi_x = finite_hmm_stationary(spec_star.finite)
    eta_x = _finite_x0_dist(spec_other, init_eta)
    K = spec_star.finite.n_states
    count = 0
    for s in range(sims):
        traj = simulate_complete(spec_star, Stationary(), n, seed, stream=1000 + s)
        xs = traj.x[1:, 0].astype(int)
        ys = traj.y[1:, 0].astype(int)
        joint_s = pi_x[xs[0]] * G_s[xs[0], ys[0]]
        joint_o = sum(eta_x[x0] * P_o[x0, xs[0]] for x0 in range(K)) * G_o[xs[0], ys[0]]
        for k in range(1, n):
            joint_s *= P_s[xs[k - 1], xs[k]] * G_s[xs[k], ys[k]]
            joint_o *= P_o[xs[k - 1], xs[k]] * G_o[xs[k], ys[k]]
        complete = joint_o / joint_s
        observed = np.exp(
            forward_loglik(spec_other, ys, init_eta).value - forward_loglik(spec_star, ys, Stationary()).value
        )
        if complete > n**2 * observed:
            count += 1
    return count / sims, 1.0 / n**2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_posterior_csv(post: PosteriorGrid, path) -> None:
    d = post.grid.points.shape[1]
    header = ",".join([f"theta{i}" for i in range(d)] + ["log_post"])
    dens = post.log_density()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for pt, ld in zip(post.grid.points, dens):
            coords = ",".join(f"{c:.17g}" for c in pt)
            fh.write(f"{coords},{ld:.17g}\n")


def write_concentration_csv(rows: Sequence[ConcentrationRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,p,mass_outside\n")
        for r in rows:
            fh.write(f"{r.n},{r.p},{r.mass_outside:.17g}\n")
