"""Exact and approximate evaluation of the observed-data likelihood.

All evaluators return the log density of ``y_{1:n}`` under the model and
a chosen initial distribution for ``z_0``. Exact methods (Kalman for the
linear families, the forward recursion for finite alphabets) also expose
their per-observation increments ``log p(y_k | y_{1:k-1})``, whose sum is
the log likelihood by the chain rule; posterior sweeps reuse the
increments to get every prefix likelihood from a single pass.

Both Kalman filters, the joint-chain filter and the scalar filter, make
one pass over the covariances first, through ``_riccati``: that
recursion never sees the data and stops, exactly, once its state
repeats. Then one mean recursion runs over every observation with its
gains. One scaled forward recursion serves two jobs: the exact forward
algorithm on a finite state space, and the quadrature oracle, which runs
it on a trapezoid node grid of a scalar hidden state.

:func:`loglik` and :func:`increments` (one spec) and
:func:`grid_increments` (every model of a parameter grid) are the one
place that maps a method name to its evaluator. A single spec takes the
plain-float scalar filter when it is a one-dimensional state-space
model; a Kalman grid of such models, given as a checked
``ScalarSsmGrid`` or as a list of specs, takes the same filter once over
arrays of grid parameters.

Every evaluator checks its observations once, on entry (``_observations``),
and the dispatchers and wrappers pass them on unchecked. An empty sequence
gives no increments, and its initial law is checked as at any length.
"""
from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rngmod
from .core import _BLOCK_FLOATS, GaussianOnZ, ModelSpec, PointMass, Stationary, UnsupportedInitError, _check_init, _check_init_dim
from .core import _check_size, _chol_psd, _trapezoid_weights
from .models import ScalarSsmGrid, _float_phi, finite_hmm_stationary, glm_stationary_cov, ssm_spec

_LOG2PI = np.log(2.0 * np.pi)
_QUADRATURE_SPAN = 8.0  # half-width of the quadrature node grid, in stationary standard deviations
_ENUMERATION_CAP = 1 << 22  # hidden paths summed by enumeration_loglik
_STRING_CAP = 1 << 20  # observation strings enumerated by conditional_entropy_sequence
_RICCATI_CHECK = 8  # least gap between the Kalman filters' checks for a repeating covariance state
_MAX_PERIOD = 4  # longest cycle of the covariance state that the Kalman filters' checks catch


@dataclass(frozen=True)
class LogLik:
    """A log-likelihood value with its provenance.

    ``se`` is only populated by the particle filter (a delta-method
    standard error of the log estimate); ``value`` is ``-inf`` exactly
    when the model assigns zero density to the data.
    """

    value: float
    n: int
    method: str
    se: Optional[float] = None
    flags: tuple = field(default_factory=tuple)


def _observations(obs, obs_dim: int, n_symbols: Optional[int] = None) -> np.ndarray:
    """The observations as a finite ``(n, obs_dim)`` array; a 1-D sequence is ``n`` scalars.

    On a finite chain (``n_symbols`` given) they are integer symbols in ``0..n_symbols-1``, returned as integers.
    """
    ys = np.asarray(obs)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != obs_dim:
        raise ValueError(f"observations must have shape (n, {obs_dim}), got {ys.shape}")
    finite = np.isfinite(ys)
    if not finite.all():
        raise ValueError(f"observation {np.argwhere(~finite)[0][0]} is not finite")
    if n_symbols is None:
        return ys
    if np.any(ys < 0) or np.any(ys >= n_symbols) or np.any(ys % 1 != 0):
        raise ValueError(f"observation symbols must lie in 0..{n_symbols - 1}")
    return ys.astype(int)


def _summed(inc: np.ndarray, method: str) -> LogLik:
    """The log likelihood whose increments are ``inc``: their sum, over ``len(inc)`` observations."""
    return LogLik(float(inc.sum()), len(inc), method)


# ---------------------------------------------------------------------------
# Kalman recursion on the joint chain (linear Gaussian families)
# ---------------------------------------------------------------------------


def _gaussian_init_moments(spec: ModelSpec, init) -> tuple[np.ndarray, np.ndarray]:
    d = spec.state_dim + spec.obs_dim
    _check_init(spec, init)
    if isinstance(init, Stationary):
        return np.zeros(d), glm_stationary_cov(spec.glm)
    if isinstance(init, PointMass):
        return np.concatenate([init.x, init.y]).astype(float), np.zeros((d, d))
    if isinstance(init, GaussianOnZ):
        return init.mean.copy(), init.cov.copy()
    raise UnsupportedInitError(
        f"the Kalman evaluator needs a Gaussian-type initial distribution, got {type(init).__name__}"
    )


def _riccati(step, state, s_buf: np.ndarray, repeats) -> tuple[list, list]:
    """The Kalman covariance recursion over ``len(s_buf)`` steps; returns the gains ``(head, cycle)``.

    ``step(state)`` is one step ``state -> (S, gain, state')``, which never
    sees the data; ``s_buf[k]`` receives step ``k``'s innovation covariance
    ``S`` and ``head`` the gains of the steps computed. At the checks the
    new state is compared (``repeats``) with the states 1 to
    ``_MAX_PERIOD`` steps back. At the first repeat, of least period
    ``L``, every later ``S`` and gain repeats the last ``L`` ones bit for
    bit (the exact steady-state filter, Anderson & Moore 1979): the rest
    of ``s_buf`` is filled with that cycle, the recursion stops, and
    ``cycle`` holds the gains that cycle from the next step on. A state
    that never repeats, or repeats with a longer period, runs to the end,
    and ``cycle`` is empty. The first check is step ``_RICCATI_CHECK - 1``;
    the checks are then ``_RICCATI_CHECK`` steps apart, and a quarter of
    the step index apart once that is more, so a recursion that never
    repeats pays for about 20 comparisons over 1600 observations.
    """
    states = collections.deque(maxlen=_MAX_PERIOD)  # the states before the last steps
    head = []
    add_state, add_gain = states.append, head.append
    check = _RICCATI_CHECK - 1
    for k in range(len(s_buf)):
        add_state(state)
        s_buf[k], gain, state = step(state)
        add_gain(gain)
        if k == check:
            for L in range(1, len(states) + 1):
                if repeats(state, states[-L]):
                    for i in range(k + 1 - L, k + 1):  # step j repeats step j - L
                        s_buf[i + L :: L] = s_buf[i]
                    return head, head[-L:]
            check += max(_RICCATI_CHECK, check // 4)
    return head, []


def kalman_increments(spec: ModelSpec, obs: np.ndarray, init) -> np.ndarray:
    """Per-observation predictive log densities from the exact filter.

    The filter runs on the full joint vector ``z = (x, y)``; the
    observation at each step is the (noiselessly observed) ``y`` block of
    the predicted Gaussian, so the innovation covariance ``S`` is the
    ``yy`` block of the predicted covariance.

    One pass over the covariances comes first: ``_riccati`` runs the
    data-free recursion ``P -> (S, gain, P')``, with ``P'`` symmetrized,
    and stops at the first repeat of period up to 4, as the scalar filter
    does. Then one mean recursion runs over every observation with those
    gains and stores each innovation. The log densities
    ``-0.5 * (q log 2pi + log det S + u.u)`` with ``u = L^{-1} innov`` and
    ``S = L L^T`` are formed after it by one stacked Cholesky
    factorization and one stacked solve, whose values are the per-step
    ones bit for bit.

    A record with ``models._float_phi`` (every scalar state-space
    embedding) runs the mean recursion on Python floats,
    ``_embedded_mean_recursion``, with the bits of the matrix loop; the
    covariances, gains and log densities are still those of the joint
    chain, so the filter stays independent of the scalar filter.
    """
    if spec.glm is None:
        raise ValueError("kalman evaluation needs a linear Gaussian model")
    params = spec.glm
    p, q = params.p, params.q
    ys = _observations(obs, q)
    Phi, R = params.Phi, params.R
    m, P = _gaussian_init_moments(spec, init)
    yi = slice(p, p + q)

    def step(P):
        Pp = Phi @ P @ Phi.T + R
        gain = np.linalg.solve(Pp[yi, yi], Pp[yi, :]).T  # P[:, yi] S^{-1}
        Pu = Pp - gain @ Pp[yi, :]
        return Pp[yi, yi], gain, 0.5 * (Pu + Pu.T)

    s_buf = np.empty((len(ys), q, q))
    head, cycle = _riccati(step, P, s_buf, np.array_equal)
    phi = _float_phi(params)
    if phi is not None:
        gains = (np.reshape(g, (-1, 2)).tolist() for g in (head, cycle))
        innovs = _embedded_mean_recursion(phi, *m.tolist(), ys[:, 0].tolist(), *gains)
        innov_buf = np.fromiter(innovs, float, len(ys))[:, None]
    else:
        innov_buf = np.empty((len(ys), q))
        for y, innov, gain in zip(ys, innov_buf, itertools.chain(head, itertools.cycle(cycle))):
            m = Phi @ m
            np.subtract(y, m[yi], out=innov)
            m = m + gain @ innov
    chol = np.linalg.cholesky(s_buf)
    u = np.linalg.solve(chol, innov_buf[:, :, None])[:, :, 0]
    uu = u[:, 0] * u[:, 0] if q == 1 else np.array([v @ v for v in u])
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=-1)
    return -0.5 * (q * _LOG2PI + logdet + uu)


def _embedded_mean_recursion(phi: tuple, x: float, y: float, ys: list, head: list, cycle: list):
    """Yields the joint filter's innovations on a scalar embedding, with ``phi = models._float_phi(...)``.

    The mean ``(x, y)`` steps to ``Phi (x, y)``, row i as
    ``0.0 + pi0 x + pi1 y``; the innovation is ``obs - y``, and the update
    adds ``0.0 + g innov`` to each coordinate, with the gains ``(g0, g1)``
    of ``head``, one per step, then ``cycle`` repeated. Each expression
    keeps the zero terms of the matrix products, so every value has the
    bits of ``Phi @ m`` and ``gain @ innov``. A generator, so that
    ``np.fromiter`` fills the buffer without a list.
    """
    p00, p01, p10, p11 = phi
    for (g0, g1), obs in zip(itertools.chain(head, itertools.cycle(cycle)), ys):
        x, y = 0.0 + p00 * x + p01 * y, 0.0 + p10 * x + p11 * y
        innov = obs - y
        yield innov
        x, y = x + (0.0 + g0 * innov), y + (0.0 + g1 * innov)


def kalman_loglik(spec: ModelSpec, obs: np.ndarray, init) -> LogLik:
    """Exact log likelihood of a linear Gaussian model."""
    return _summed(kalman_increments(spec, obs, init), "kalman")


def _scalar_kalman_increments(a, b, qz, qx, ys: np.ndarray, init) -> np.ndarray:
    """Filter for p = q = 1 on plain floats or on (G,) parameter arrays.

    With float parameters this is the single-spec filter, orders of
    magnitude faster than the matrix filters; with arrays it runs every
    grid point in one pass and returns shape (n, G). Both shapes take the
    same start values and the same operations in the same order.

    One pass over the variances comes first: ``_riccati`` runs the
    data-free recursion ``pv -> (s, gain, pv')`` and stops at the first
    repeat of period up to 4. A grid repeats when every one of its points
    does, so it takes the least period that fits them all, and none if no
    period up to 4 does. Then one mean recursion runs over every
    observation, as Python floats, with those gains: for one spec
    ``_float_mean_recursion``, whose innovations ``np.fromiter`` collects,
    and for a grid ``_grid_mean_recursion``, which fills its own buffer.
    Every value keeps the bits of the full recursion. The log densities
    ``-0.5 * (log 2pi + log s + innov^2 / s)`` are formed after the loop by
    in-place ufuncs over the whole buffer, with the same operations in the
    same order as one step would take them.
    """
    _check_init_dim(init, 1, 1)
    if isinstance(init, Stationary):
        m, pv = 0.0, qz / (1.0 - a * a)
    elif isinstance(init, PointMass):
        m, pv = float(np.atleast_1d(init.x)[0]), 0.0
    elif isinstance(init, GaussianOnZ):
        m, pv = float(init.mean[0]), float(init.cov[0, 0])
    else:
        raise UnsupportedInitError(
            f"the Kalman evaluator needs a Gaussian-type initial distribution, got {type(init).__name__}"
        )
    aa, bb = a * a, b * b

    def step(pv):
        pp = aa * pv + qz
        s = bb * pp + qx
        gain = pp * b / s
        return s, gain, pp - gain * b * pp

    yflat = ys[:, 0].tolist()
    s_buf = np.empty((len(yflat),) + np.shape(a))
    if s_buf.ndim == 2:  # a grid
        innov_buf = _grid_mean_recursion(a, b, m, yflat, *_riccati(step, pv, s_buf, np.array_equal))
    else:
        gains = _riccati(step, pv, s_buf, operator.eq)
        innov_buf = np.fromiter(_float_mean_recursion(a, b, m, yflat, *gains), float, len(yflat))
    np.multiply(innov_buf, innov_buf, out=innov_buf)
    np.divide(innov_buf, s_buf, out=innov_buf)
    out = np.log(s_buf, out=s_buf)
    np.add(out, float(_LOG2PI), out=out)
    np.add(out, innov_buf, out=out)
    return np.multiply(out, -0.5, out=out)


def _float_mean_recursion(a: float, b: float, m: float, ys: list, head: list, cycle: list):
    """Yields the innovations ``y - b m`` of ``m -> a m``, ``m += gain * innov`` over ``ys``.

    The gains are ``head``, one per step, then ``cycle`` repeated. The
    scalar filter's mean recursion in its operations and order, on plain
    floats; a cycle of period 1 runs without the cycling iterator. A
    generator, so that ``np.fromiter`` fills the buffer without a list.
    """
    rest = iter(ys)
    period_1 = len(cycle) == 1
    gains = head if period_1 else itertools.chain(head, itertools.cycle(cycle))
    for gain, y in zip(gains, rest):  # the gains first, so that no y is drawn past them
        m = a * m
        innov = y - b * m
        yield innov
        m = m + gain * innov
    if period_1:
        gain = cycle[0]
        for y in rest:
            m = a * m
            innov = y - b * m
            yield innov
            m = m + gain * innov


def _grid_mean_recursion(a: np.ndarray, b: np.ndarray, m, ys: list, head: list, cycle: list) -> np.ndarray:
    """``_float_mean_recursion`` on (G,) arrays; returns the innovations, shape (n, G).

    Every step updates the mean and one row of the buffer in place, through
    the ufuncs bound to locals and their positional outputs.
    """
    m = np.full(a.shape, m)
    tmp = np.empty_like(m)
    out = np.empty((len(ys),) + a.shape)
    mul, sub, add = np.multiply, np.subtract, np.add
    for y, innov, gain in zip(ys, out, itertools.chain(head, itertools.cycle(cycle))):
        mul(a, m, m)
        mul(b, m, innov)
        sub(y, innov, innov)
        mul(gain, innov, tmp)
        add(m, tmp, m)
    return out


def ssm_kalman_increments(ssm, obs: np.ndarray, init) -> np.ndarray:
    """Predictive log densities of a state-space model from its parameters.

    For p = q = 1 this is the plain-float filter on the hidden state with
    the measurement equation ``y = Bx + xi``: the independent check of
    :func:`kalman_increments`, which filters the joint (x, y) vector. Any
    other shape runs :func:`kalman_increments` on the joint-chain embedding.
    """
    if ssm.p != 1 or ssm.q != 1:
        return kalman_increments(ssm_spec(ssm), obs, init)
    a, b, qz, qx = (float(M[0, 0]) for M in (ssm.A, ssm.B, ssm.Qzeta, ssm.Qxi))
    return _scalar_kalman_increments(a, b, qz, qx, _observations(obs, 1), init)


def ssm_kalman_loglik(ssm, obs: np.ndarray, init) -> LogLik:
    return _summed(ssm_kalman_increments(ssm, obs, init), "kalman")


# ---------------------------------------------------------------------------
# Forward recursion and path enumeration (finite alphabets)
# ---------------------------------------------------------------------------


def _finite_x0_dist(spec: ModelSpec, init) -> np.ndarray:
    K = spec.finite.n_states
    _check_init(spec, init)
    if isinstance(init, Stationary):
        return finite_hmm_stationary(spec.finite)
    if isinstance(init, PointMass):
        dist = np.zeros(K)
        dist[int(init.x[0])] = 1.0
        return dist
    if isinstance(init, np.ndarray):
        dist = np.asarray(init, dtype=float)
        if dist.shape != (K,) or not np.isfinite(dist).all() or np.any(dist < 0) or abs(dist.sum() - 1.0) > 1e-10:
            raise ValueError("initial state distribution must be a probability vector over states")
        return dist
    raise UnsupportedInitError(
        f"finite models take Stationary, PointMass or an explicit state distribution, got {type(init).__name__}"
    )


def _scaled_forward(alpha: np.ndarray, steps, n: int) -> np.ndarray:
    """The scaled forward recursion over ``n`` steps; returns log p(y_k | y_{1:k-1}) per step.

    ``alpha`` holds the starting masses, and ``steps`` yields one
    ``(kernel, emission, shift)`` per step: ``alpha @ kernel`` times
    ``emission`` has sum ``c``, which gives the increment ``log c + shift``
    and renormalizes ``alpha``. Once a step's sum is not positive (zero, or
    NaN from an HMM emission that is ``-inf`` at every node), every
    increment from it on is ``-inf``.
    """
    incs = []
    for kernel, emission, shift in steps:
        alpha = (alpha @ kernel) * emission
        del kernel  # so that a kernel built per step is freed before the next one is built
        c = alpha.sum()
        if not c > 0.0:
            break
        incs.append(np.log(c) + shift)
        alpha = alpha / c
    return np.array(incs + [-np.inf] * (n - len(incs)))


def forward_increments(spec: ModelSpec, obs: np.ndarray, init) -> np.ndarray:
    """Scaled forward recursion; returns log p(y_k | y_{1:k-1}) per step."""
    if spec.finite is None:
        raise ValueError("forward evaluation needs a finite-alphabet model")
    P, G = spec.finite.P, spec.finite.G
    ys = _observations(obs, spec.obs_dim, spec.finite.n_symbols)[:, 0]
    return _scaled_forward(_finite_x0_dist(spec, init), ((P, G[:, y], 0.0) for y in ys), len(ys))


def forward_loglik(spec: ModelSpec, obs: np.ndarray, init) -> LogLik:
    """Exact log likelihood of a finite HMM by the forward algorithm."""
    return _summed(forward_increments(spec, obs, init), "forward")


def enumeration_loglik(spec: ModelSpec, obs: np.ndarray, init) -> float:
    """Brute-force log p(y_{1:n}) as a sum over all hidden paths.

    Exponential in n; this exists purely as an oracle for the forward
    recursion and the posterior machinery.
    """
    if spec.finite is None:
        raise ValueError("enumeration needs a finite-alphabet model")
    P, G = spec.finite.P, spec.finite.G
    K = spec.finite.n_states
    ys = _observations(obs, spec.obs_dim, spec.finite.n_symbols)[:, 0]
    n = len(ys)
    if K**n > _ENUMERATION_CAP:
        raise ValueError(f"enumeration over {K}^{n} paths exceeds the cap")
    x0_dist = _finite_x0_dist(spec, init)
    if n == 0:
        return 0.0  # the one empty path has probability 1
    total = 0.0
    for path in itertools.product(range(K), repeat=n):
        prob = sum(x0_dist[x0] * P[x0, path[0]] for x0 in range(K)) * G[path[0], ys[0]]
        for k in range(1, n):
            prob *= P[path[k - 1], path[k]] * G[path[k], ys[k]]
        total += prob
    return float(np.log(total)) if total > 0.0 else -np.inf


# ---------------------------------------------------------------------------
# Bootstrap particle filter
# ---------------------------------------------------------------------------


def _bpf_initial_particles(spec: ModelSpec, init, n_particles: int, rng: np.random.Generator):
    _check_init(spec, init)
    if isinstance(init, Stationary):
        return spec.hmm.stationary_x_sample(n_particles, rng)
    if isinstance(init, PointMass):
        x0 = init.x.astype(float if spec.finite is None else int)
        return np.full(n_particles, x0[0]) if x0.size == 1 else np.tile(x0, (n_particles, 1))
    if isinstance(init, GaussianOnZ):
        p = spec.state_dim
        mean = init.mean[:p]
        draws = rng.standard_normal((n_particles, p)) @ _chol_psd(init.cov[:p, :p]).T + mean
        return draws[:, 0] if p == 1 else draws
    raise UnsupportedInitError(f"unsupported initial distribution for the particle filter: {type(init).__name__}")


def bpf_loglik(spec: ModelSpec, obs: np.ndarray, init, particles: int, seed: int, stream: int = 0) -> LogLik:
    """Bootstrap particle filter estimate of the log likelihood.

    Systematic resampling happens at every step, which keeps the
    estimator of the likelihood (on the natural scale) unbiased. ``se``
    is a delta-method standard error of the log estimate assembled from
    the within-run weight variances; it carries no replicate information.
    ``init`` is a law on the full (x, y) pair, but under the factorized
    transition only its hidden-state marginal affects the likelihood.
    ``particles`` must be an integer >= 2.

    One step makes one pass of each of: the transition draw, the
    emission log density, its max, the exp, the weight sum, the centred
    squares and their sum, the cumulative sum, the search and the
    gather. The weight mean and variance are numpy's ``mean`` and
    ``var`` operations in their order, so they are numpy's bit for bit.
    The weights overwrite the emission buffer and the cumulative sum
    overwrites the squares, so besides the hooks' outputs a step
    allocates only that buffer, the resampling positions and their
    indices.
    """
    _check_size("particles", particles)
    if spec.hmm is None:
        raise ValueError("the particle filter needs an HMM factorization")
    hmm = spec.hmm
    ys = _observations(obs, spec.obs_dim, None if spec.finite is None else spec.finite.n_symbols)
    n = len(ys)
    ys = ys[:, 0].astype(float).tolist() if spec.obs_dim == 1 else ys  # finite-alphabet codes arrive as floats
    rng = rngmod.substream(seed, rngmod.BPF, stream)
    x = _bpf_initial_particles(spec, init, particles, rng)
    ks = np.arange(particles, dtype=float)
    top = particles - 1
    total = 0.0
    var_log = 0.0
    for y in ys:
        x = hmm.qx_sample(x, rng)
        w = hmm.g_logpdf(x, y)  # a fresh buffer, so the weights can overwrite it
        m = w.max()
        if not math.isfinite(m):
            return LogLik(-np.inf, n, "bpf", flags=("zero_weights",))
        w -= m
        np.exp(w, out=w)
        s = w.sum()
        wmean = s / particles
        total += m + np.log(wmean)
        d = w - wmean
        d *= d
        var_log += d.sum() / particles / (particles * wmean**2)
        w /= s
        # systematic resampling: one uniform offset, positions (k + u) / particles
        idx = np.searchsorted(np.cumsum(w, out=d), (ks + rng.random()) / particles, side="right")
        x = x[np.minimum(idx, top, out=idx)]
    return LogLik(float(total), n, "bpf", se=float(np.sqrt(var_log)))


# ---------------------------------------------------------------------------
# Grid quadrature oracle (scalar hidden state)
# ---------------------------------------------------------------------------


def _x_marginal_sd(spec: ModelSpec) -> float:
    if spec.sv is not None:
        return float(np.sqrt(spec.sv.x_var))
    if spec.glm is not None:
        return float(np.sqrt(glm_stationary_cov(spec.glm)[0, 0]))
    raise ValueError("cannot infer a state grid for this model; quadrature supports the built-in families")


def quadrature_loglik(spec: ModelSpec, obs: np.ndarray, init, nodes: int = 2001) -> LogLik:
    """Quadrature of the likelihood integral on a node grid, scalar state only.

    The hidden-state axis is discretized on ``nodes`` trapezoid points
    spanning ``_QUADRATURE_SPAN`` stationary standard deviations (widened
    to cover a displaced initial condition), and the scaled forward
    recursion runs on the nodes as states, with the trapezoid weights
    folded into each step's emission: the numerical-integration filter of
    Kitagawa (1987). Its first step starts from Gauss-Hermite nodes for
    ``z_0``, or from one node of weight 1 for a point mass, and the value
    is the sum of its increments. An HMM takes both factors from its
    spec's broadcasting ``qx_logpdf`` and ``g_logpdf`` hooks; only the
    hidden-state marginal of ``init`` matters for it. A linear model
    without an HMM factorization integrates the full initial pair. It
    serves as an oracle for n <= 8. ``nodes`` must be an integer >= 2.

    The working set is one transition kernel at a time, filled in place
    by row blocks of about 0.5 MB, so no full-size temporary exists
    besides it. An HMM's first kernel is 80 Gauss-Hermite rows (one for a
    point mass) by ``nodes``, and every later step shares one
    ``nodes x nodes`` kernel (32 MB at 2001 nodes). The linear branch
    builds a kernel per step, since its transition depends on the past
    y: the first has a row per node of its 64 x 64 tensor Gauss-Hermite
    start, 4096 x ``nodes`` (65 MB at 2001 nodes; one row for a point
    mass), and each later one is ``nodes x nodes``.
    """
    _check_size("nodes", nodes)
    if spec.state_dim != 1:
        raise ValueError("quadrature supports one-dimensional hidden states only")
    ys = _observations(obs, spec.obs_dim)
    n = len(ys)
    if n > 8:
        raise ValueError("quadrature is an oracle for short sequences (n <= 8)")
    _check_init(spec, init)
    sd = _x_marginal_sd(spec)
    # mean and sd of x0, and how far a displaced initial law widens the grid
    if isinstance(init, Stationary):
        mean0, sd0, extra = 0.0, sd, 0.0
    elif isinstance(init, PointMass):
        mean0, sd0 = float(np.atleast_1d(init.x)[0]), 0.0
        extra = abs(mean0)
    elif isinstance(init, GaussianOnZ):
        mean0, sd0 = float(init.mean[0]), float(np.sqrt(max(init.cov[0, 0], 0.0)))
        extra = abs(mean0) + sd0
    else:
        raise UnsupportedInitError(f"unsupported initial distribution for quadrature: {type(init).__name__}")
    if n == 0:
        return LogLik(0.0, 0, "quadrature")
    lo = min(0.0, mean0) - _QUADRATURE_SPAN * sd - extra
    hi = max(0.0, mean0) + _QUADRATURE_SPAN * sd + extra
    grid = np.linspace(lo, hi, nodes)
    w = _trapezoid_weights(grid)

    if spec.hmm is None and spec.glm is None:
        raise ValueError("quadrature needs either an HMM factorization or linear-family parameters")
    inc = _quadrature_hmm(spec, ys, mean0, sd0, grid, w) if spec.hmm is not None else _quadrature_glm(spec, ys, init, grid, w)
    return _summed(inc, "quadrature")


def _gh_nodes(mean: float, sd: float, n: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for integrating against N(mean, sd^2); ``sd == 0`` is one node of weight 1."""
    if sd == 0.0:
        return np.array([mean]), np.ones(1)
    t, w = np.polynomial.hermite.hermgauss(n)
    return mean + np.sqrt(2.0) * sd * t, w / np.sqrt(np.pi)


def _transition_kernel(log_q, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``exp(log_q(r, c))`` for every row and column node, filled in place by row blocks of about ``_BLOCK_FLOATS`` entries."""
    out = np.empty((len(rows), len(cols)))
    step = max(1, _BLOCK_FLOATS // len(cols))
    for i in range(0, len(rows), step):
        np.exp(log_q(rows[i : i + step, None], cols[None, :]), out=out[i : i + step])
    return out


def _quadrature_hmm(spec: ModelSpec, ys: np.ndarray, mean0: float, sd0: float, grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Increments of an HMM with x0 ~ N(mean0, sd0^2); each emission is ``exp(g - max g)``, shifted by ``max g``."""
    qx_logpdf, g_logpdf = spec.hmm.qx_logpdf, spec.hmm.g_logpdf
    yvals = [float(y[0]) if y.size == 1 else y for y in ys]
    x0n, w0 = _gh_nodes(mean0, sd0)

    def emission(y):
        g = g_logpdf(grid, y)
        gmax = g.max()
        return np.exp(g - gmax) * w, gmax

    def steps():
        yield _transition_kernel(qx_logpdf, x0n, grid), *emission(yvals[0])
        if len(yvals) > 1:
            trans = _transition_kernel(qx_logpdf, grid, grid)  # the kernel of every later step
            for y in yvals[1:]:
                yield trans, *emission(y)

    return _scaled_forward(w0, steps(), len(yvals))


def _quadrature_glm(spec: ModelSpec, ys: np.ndarray, init, grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Increments of a scalar linear model, whose transition ``spec.trans_logpdf`` may depend on the past y."""
    if spec.obs_dim != 1:  # quadrature_loglik admits one-dimensional states only
        raise ValueError("quadrature for the linear family is implemented for p = q = 1")

    def log_q(z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
        return spec.trans_logpdf((z0[..., :1], z0[..., 1:]), (z1[..., :1], z1[..., 1:]))

    def on_grid(y: float) -> np.ndarray:
        return np.column_stack([grid, np.full(len(grid), y)])

    # tensor Gauss-Hermite nodes on the two z0 coordinates via the Cholesky map; a point mass is one node
    mean, cov = _gaussian_init_moments(spec, init)
    t, w0 = _gh_nodes(0.0, 1.0 if cov.any() else 0.0, 64)
    z0 = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2) @ _chol_psd(cov).T + mean
    yvals = ys[:, 0]
    rows = [z0] + [on_grid(y) for y in yvals[:-1]]
    steps = ((_transition_kernel(log_q, r, on_grid(y)), w, 0.0) for r, y in zip(rows, yvals))
    return _scaled_forward(np.outer(w0, w0).ravel(), steps, len(yvals))


# ---------------------------------------------------------------------------
# Method dispatch
# ---------------------------------------------------------------------------


def _is_scalar_ssm(spec: ModelSpec) -> bool:
    """Whether ``spec`` is a state-space model with p = q = 1."""
    return spec.ssm is not None and spec.ssm.p == 1 and spec.ssm.q == 1


def increments(spec: ModelSpec, obs: np.ndarray, init, method: str) -> np.ndarray:
    """Per-observation predictive log densities from an exact method.

    ``method`` is ``kalman`` or ``forward``. The Kalman method runs the
    scalar hidden-state filter on one-dimensional state-space models,
    which agrees with the joint-chain filter to float accuracy at a small
    fraction of its cost, and the joint-chain filter on every other
    linear model. Non-finite observations raise ``ValueError``.
    """
    if method == "kalman":
        if _is_scalar_ssm(spec):
            return ssm_kalman_increments(spec.ssm, obs, init)
        return kalman_increments(spec, obs, init)
    if method == "forward":
        return forward_increments(spec, obs, init)
    raise ValueError(f"unknown likelihood method {method!r}; exact increments come from kalman or forward")


def grid_increments(grid, obs: np.ndarray, init, method: str) -> np.ndarray:
    """Increments of every model of a parameter grid, shape (G, n).

    ``grid`` is a ``ScalarSsmGrid`` or a list of specs. Row i is
    ``increments`` of the grid's i-th model. A record, which must use
    ``kalman``, and a Kalman list of one-dimensional state-space specs,
    stacked into the record's four arrays, take one call of the scalar
    filter over arrays of grid parameters; any other list stacks the
    per-spec rows. Non-finite observations raise ``ValueError``.
    """
    if isinstance(grid, ScalarSsmGrid):
        if method != "kalman":
            raise ValueError(f"a scalar state-space grid uses the exact kalman likelihood, got {method!r}")
        params = grid.a, grid.b, grid.q_state, grid.q_obs
    elif method == "kalman" and all(_is_scalar_ssm(s) for s in grid):
        stacked = np.array([[s.ssm.A[0, 0], s.ssm.B[0, 0], s.ssm.Qzeta[0, 0], s.ssm.Qxi[0, 0]] for s in grid])
        params = stacked.T.copy()
    else:
        return np.vstack([increments(s, obs, init, method) for s in grid])
    # C order, so that a row sums in the same order as one spec's increments
    return np.ascontiguousarray(_scalar_kalman_increments(*params, _observations(obs, 1), init).T)


def loglik(
    spec: ModelSpec,
    obs: np.ndarray,
    init,
    method: str,
    *,
    particles: int = 512,
    seed: int = 0,
    stream: int = 0,
    nodes: int = 2001,
) -> LogLik:
    """Log likelihood by ``method``: kalman, forward, bpf or quadrature.

    ``particles``, ``seed`` and ``stream`` configure the particle filter
    and ``nodes`` the quadrature; the exact methods ignore them. Every
    method rejects non-finite observations with ``ValueError``.
    """
    if method == "bpf":
        return bpf_loglik(spec, obs, init, particles, seed, stream)
    if method == "quadrature":
        return quadrature_loglik(spec, obs, init, nodes)
    return _summed(increments(spec, obs, init, method), method)


# ---------------------------------------------------------------------------
# Exact conditional entropy sequence (finite models)
# ---------------------------------------------------------------------------


def conditional_entropy_sequence(spec: ModelSpec, nmax: int) -> np.ndarray:
    """Expected predictive log densities E[log p(Y_n | Y_{1:n-1})], n = 1..nmax.

    Computed exactly, under the stationary law, by enumerating every
    observation string: the value at n equals H(Y_{1:n-1}) - H(Y_{1:n})
    in Shannon entropies of the string distributions. For a stationary
    chain the sequence is non-decreasing in n.
    """
    if spec.finite is None:
        raise ValueError("the entropy sequence is computed exactly on finite models only")
    P, G = spec.finite.P, spec.finite.G
    K, L = spec.finite.n_states, spec.finite.n_symbols
    if L**nmax > _STRING_CAP:
        raise ValueError(f"enumeration over {L}^{nmax} strings exceeds the cap")
    alpha = finite_hmm_stationary(spec.finite)[None, :]  # (strings, states), unnormalized
    entropies = [0.0]
    for _ in range(nmax):
        pred = alpha @ P  # (B, K)
        alpha = (pred[:, None, :] * G.T[None, :, :]).reshape(-1, K)  # expand by symbol
        probs = alpha.sum(axis=1)
        nz = probs > 0.0
        entropies.append(float(-(probs[nz] * np.log(probs[nz])).sum()))
    ent = np.array(entropies)
    return ent[:-1] - ent[1:]
