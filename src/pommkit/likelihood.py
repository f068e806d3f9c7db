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
repeats, and it keeps one covariance and gain per distinct step. Then
one mean recursion runs over every observation with its gains, and the
log densities take each distinct covariance's logarithm or factor once.
One scaled forward recursion serves two jobs: the exact forward
algorithm on a finite state space, and the quadrature oracle, which runs
it on a trapezoid node grid of a scalar hidden state.

:func:`loglik` and :func:`increments` (one spec) and
:func:`grid_increments` (every model of a parameter grid) are the one
place that maps a method name to its evaluator. A single spec takes the
plain-float scalar filter when it is a one-dimensional state-space
model; a Kalman grid of such models, given as a checked
``ScalarSsmGrid`` or as a list of specs, takes the same filter once over
arrays of grid parameters and returns the transposed view of its (n, G)
buffer. A grid log likelihood is a grid row cumulated in sequence, which
can differ in the last bits from the pairwise sum of :func:`loglik`.

Both Kalman filters, both quadrature branches and the particle filter's
Gaussian draw start from one reduction of the initial law,
``_start_moments``, which gives the mean and covariance of the law's
hidden-state marginal or of its whole (x, y) pair, with each caller's
own stationary moments, and raises one ``UnsupportedInitError`` for any
other law. Finite chains start from ``_finite_x0_dist``.

Every evaluator checks its observations once, on entry (``_observations``),
and the dispatchers and wrappers pass them on unchecked. An empty sequence
gives no increments, and its initial law is checked as at any length.

Callers that evaluate many models on the same data (a Metropolis chain, a
grid swept one point at a time, a merging curve's two passes) wrap the
data once in a prepared-observations record, ``_Prepared``. The first
evaluator to read the record checks it as it would check the raw data, at
the same point among its other checks, and the record keeps a read-only
copy of the checked array for those dimensions, and its first column as
Python floats once a filter that loops over them (the scalar filter, the
joint filter's float mean recursion, the particle filter) has taken it.
Every later call with the same dimensions gets both back unchanged, so it
neither checks nor converts the data again; a model with other
dimensions is checked afresh. Every value keeps the bits of the
evaluation on the raw observations.
"""
from __future__ import annotations

import collections
import contextlib
import contextvars
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
_BPF_LINEAR_RESAMPLE = 1024  # particle count from which the particle filter resamples by a linear-time count
# True inside ``_overflow_ignored``, where np.errstate(over="ignore") is in force already
_OVERFLOW_IGNORED = contextvars.ContextVar("pommkit_overflow_ignored", default=False)


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


class _Prepared:
    """Observations checked once for the likelihood calls of one chain or sweep.

    ``checked`` maps each key ``(obs_dim, n_symbols)`` that an evaluator
    asked ``_observations`` for to a read-only copy of the array it
    returned; ``columns`` maps the id of such an array to its first column
    as a list of Python scalars, ``ys[:, 0].tolist()`` (see
    ``_first_column``). Both fill on first use, so an error in ``obs`` is
    raised by the evaluator that first reads it, as for the raw data. The
    record holds its arrays, so their ids stay unique while it lives.
    """

    __slots__ = ("obs", "checked", "columns")

    def __init__(self, obs):
        self.obs = obs
        self.checked = {}
        self.columns = {}


def _observations(obs, obs_dim: int, n_symbols: Optional[int] = None) -> np.ndarray:
    """The observations as a finite ``(n, obs_dim)`` array; a 1-D sequence is ``n`` scalars.

    On a finite chain (``n_symbols`` given) they are integer symbols in ``0..n_symbols-1``, returned as integers.
    A ``_Prepared`` record is checked on its first call with a key ``(obs_dim, n_symbols)`` and keeps a read-only
    copy of the result, which every later call with that key returns unchanged.
    """
    if isinstance(obs, _Prepared):
        ys = obs.checked.get((obs_dim, n_symbols))
        if ys is None:
            ys = np.array(_observations(obs.obs, obs_dim, n_symbols))
            ys.flags.writeable = False
            obs.checked[obs_dim, n_symbols] = ys
        return ys
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


def _first_column(obs, ys: np.ndarray) -> list:
    """``ys[:, 0].tolist()`` for ``ys = _observations(obs, ...)``; a ``_Prepared`` record keeps it after its first use.

    The list is shared by every later call, which only reads it.
    """
    if not isinstance(obs, _Prepared):
        return ys[:, 0].tolist()
    column = obs.columns.get(id(ys))
    if column is None:
        column = obs.columns[id(ys)] = ys[:, 0].tolist()
    return column


@contextlib.contextmanager
def _overflow_ignored():
    """``np.errstate(over="ignore")``, entered once for many calls of the scalar filter (a Metropolis chain).

    The scalar filter squares its innovations, and one whose square
    overflows has log density -inf without a warning. A call enters
    ``np.errstate(over="ignore")`` for that, at about 1 us, unless it runs
    inside this context, which enters it once and says so through a
    context variable; numpy keeps its error state in one too, so the two
    agree in every thread.
    """
    with np.errstate(over="ignore"):
        token = _OVERFLOW_IGNORED.set(True)
        try:
            yield
        finally:
            _OVERFLOW_IGNORED.reset(token)


def _summed(inc: np.ndarray, method: str) -> LogLik:
    """The log likelihood whose increments are ``inc``: their sum, over ``len(inc)`` observations."""
    return LogLik(float(inc.sum()), len(inc), method)


# ---------------------------------------------------------------------------
# Kalman recursion on the joint chain (linear Gaussian families)
# ---------------------------------------------------------------------------


def _start_moments(init, p: int, q: int, k: int, stationary) -> tuple:
    """Mean and covariance of the first ``k`` coordinates of ``z_0 = (x, y)`` under ``init``, on a (p, q) model.

    ``Stationary()`` gives ``stationary()``, the caller's moments, as they
    are; a point mass has covariance zero. ``k`` is ``p`` for a start
    from the hidden-state marginal and ``p + q`` for one from the pair.
    """
    _check_init_dim(init, p, q)
    if isinstance(init, Stationary):
        return stationary()
    if isinstance(init, PointMass):
        return np.concatenate([init.x, init.y])[:k].astype(float), np.zeros((k, k))
    if isinstance(init, GaussianOnZ):
        return init.mean[:k], init.cov[:k, :k]
    raise UnsupportedInitError(
        f"this evaluator needs a Stationary, PointMass or GaussianOnZ initial law, got {type(init).__name__}"
    )


def _riccati(step, state, n: int, repeats) -> tuple[tuple[list, list], tuple[list, list]]:
    """The Kalman covariance recursion over ``n`` steps; returns ``(covs, gains)``, each ``(head, cycle)``.

    ``step(state)`` is one step ``state -> (S, gain, state')``, which never
    sees the data. ``head`` holds the innovation covariances ``S`` (in
    ``covs``) and the gains (in ``gains``) of the steps computed. At the
    checks the new state is compared (``repeats``) with the states 1 to
    ``_MAX_PERIOD`` steps back. At the first repeat, of least period
    ``L``, every later ``S`` and gain repeats the last ``L`` ones bit for
    bit (the exact steady-state filter, Anderson & Moore 1979): the
    recursion stops, and each ``cycle`` holds those last ``L`` values,
    which cycle from the next step on. So step ``k`` takes ``head[k]``
    while ``k < len(head)`` and ``cycle[(k - len(head)) % L]`` after.
    A state that never repeats, or repeats with a longer period, runs to
    the end: ``head`` has all ``n`` values and ``cycle`` is empty. No
    ``n``-length buffer is written; the callers keep one value per
    distinct step. The first check is step ``_RICCATI_CHECK - 1``; the
    checks are then ``_RICCATI_CHECK`` steps apart, and a quarter of the
    step index apart once that is more, so a recursion that never
    repeats pays for about 20 comparisons over 1600 observations.
    """
    states = collections.deque(maxlen=_MAX_PERIOD)  # the states before the last steps
    covs, gains = [], []
    add_state, add_cov, add_gain = states.append, covs.append, gains.append
    check = _RICCATI_CHECK - 1
    for k in range(n):
        add_state(state)
        cov, gain, state = step(state)
        add_cov(cov)
        add_gain(gain)
        if k == check:
            for L in range(1, len(states) + 1):
                if repeats(state, states[-L]):
                    return (covs, covs[-L:]), (gains, gains[-L:])
            check += max(_RICCATI_CHECK, check // 4)
    return (covs, []), (gains, [])


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
    ``S = L L^T`` are formed after it: one stacked Cholesky factorization
    and its log determinants cover only the distinct ``S`` of the steps
    ``_riccati`` computed, and one stacked solve takes each step's factor
    by index. Every value is the per-step one bit for bit; besides the
    ``(n, q)`` innovations, the working set is the distinct factors and
    the indexed ``(n, q, q)`` stack of the solve.

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
    m, P = _start_moments(init, p, q, p + q, lambda: (np.zeros(p + q), glm_stationary_cov(params)))
    yi = slice(p, p + q)

    def step(P):
        Pp = Phi @ P @ Phi.T + R
        gain = np.linalg.solve(Pp[yi, yi], Pp[yi, :]).T  # P[:, yi] S^{-1}
        Pu = Pp - gain @ Pp[yi, :]
        return Pp[yi, yi], gain, 0.5 * (Pu + Pu.T)

    (covs, _), (head, cycle) = _riccati(step, P, len(ys), np.array_equal)
    phi = _float_phi(params)
    if phi is not None:
        gains = (np.reshape(g, (-1, 2)).tolist() for g in (head, cycle))
        innovs = _embedded_mean_recursion(phi, *m.tolist(), _first_column(obs, ys), *gains)
        innov_buf = np.fromiter(innovs, float, len(ys))[:, None]
    else:
        innov_buf = np.empty((len(ys), q))
        for y, innov, gain in zip(ys, innov_buf, itertools.chain(head, itertools.cycle(cycle))):
            m = Phi @ m
            np.subtract(y, m[yi], out=innov)
            m = m + gain @ innov
    chol = np.linalg.cholesky(np.reshape(covs, (-1, q, q)))
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=-1)
    h, period = len(covs), len(cycle)
    if period:  # step k >= h repeats step h - period + (k - h) % period
        idx = np.arange(len(ys))
        idx[h:] = h - period + (idx[h:] - h) % period
        chol, logdet = chol[idx], logdet[idx]
    with np.errstate(over="ignore"):  # an innovation whose square overflows has log density -inf
        u = np.linalg.solve(chol, innov_buf[:, :, None])[:, :, 0]
        uu = u[:, 0] * u[:, 0] if q == 1 else np.array([v @ v for v in u])
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


def _scalar_kalman_increments(a, b, qz, qx, ys, init) -> np.ndarray:
    """Filter for p = q = 1 on plain floats or on (G,) parameter arrays.

    ``ys`` is the first column of the checked observations as a list of
    Python scalars (``_first_column``), so that a prepared record is
    converted once.

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
    ``-0.5 * (log 2pi + log s + innov^2 / s)`` are formed after the loop in
    place on that buffer (``_gaussian_log_densities``), with the same
    operations in the same order as one step would take them, and
    ``log s`` is taken once per distinct variance. So the working set is
    the one (n,) or (n, G) innovation buffer, which becomes the result,
    and the variances of the steps ``_riccati`` computed: all n of them
    only when no period up to 4 repeats.
    """
    mean, cov = _start_moments(init, 1, 1, 1, lambda: ([0.0], [[qz / (1.0 - a * a)]]))
    m, pv = float(mean[0]), cov[0][0]
    aa, bb = a * a, b * b

    def step(pv):
        pp = aa * pv + qz
        s = bb * pp + qx
        gain = pp * b / s
        return s, gain, pp - gain * b * pp

    if isinstance(a, np.ndarray):  # a grid
        covs, gains = _riccati(step, pv, len(ys), np.array_equal)
        innov_buf = _grid_mean_recursion(a, b, m, ys, *gains)
    else:
        covs, gains = _riccati(step, float(pv), len(ys), operator.eq)  # a law's numpy scalar as a float
        innov_buf = np.fromiter(_float_mean_recursion(a, b, m, ys, *gains), float, len(ys))
    if _OVERFLOW_IGNORED.get():
        return _gaussian_log_densities(innov_buf, *covs)
    with np.errstate(over="ignore"):  # an innovation whose square overflows has log density -inf
        return _gaussian_log_densities(innov_buf, *covs)


def _gaussian_log_densities(innov: np.ndarray, head: list, cycle: list) -> np.ndarray:
    """``-0.5 * (log 2pi + log s + innov^2 / s)`` in place on ``innov``, shape (n,) or (n, G).

    Step ``k`` has the variance ``s`` of ``head[k]``, then of ``cycle``
    repeated, as ``_riccati`` returns them. ``log s + log 2pi`` is taken
    once per distinct step, and each one meets its steps through the
    head rows and one strided view per phase of the cycle. Every element
    sees the operations of one step in its order, so it keeps the bits of
    a per-step buffer of variances; the working set is ``innov`` and the
    ``len(head)`` distinct variances.
    """
    h, period = len(head), len(cycle)
    if not h:  # no observations
        return innov
    s = np.array(head)
    logs = np.log(s)
    logs += float(_LOG2PI)
    innov *= innov
    rows = innov[:h]
    rows /= s
    rows += logs
    for i in range(h - period, h):  # the steps that repeat head step i
        rows = innov[i + period :: period]
        rows /= s[i]
        rows += logs[i]
    innov *= -0.5
    return innov


def _float_mean_recursion(a: float, b: float, m: float, ys: list, head: list, cycle: list):
    """Yields the innovations ``y - b m`` of ``m -> a m``, ``m += gain * innov`` over ``ys``.

    The gains are ``head``, one per step, then ``cycle`` repeated. The
    scalar filter's mean recursion in its operations and order, on plain
    floats. A cycle of period 1 or 2 runs without the cycling iterator, as
    pairs of steps with two fixed gains; when the number of cycled steps
    is odd, the first one joins the head and the pairs start at the
    cycle's second phase. When ``b`` is exactly 1.0 those pairs form the
    innovation as ``y - m``, which has the bits of ``y - b m`` because
    ``1.0 * m == m`` in IEEE 754 arithmetic, signed zeros included (as in
    ``_grid_mean_recursion``). A generator, so that ``np.fromiter`` fills
    the buffer without a list.
    """
    period = len(cycle)
    if period not in (1, 2):  # no repeat, or a period of 3 or 4
        for gain, y in zip(itertools.chain(head, itertools.cycle(cycle)), ys):
            m = a * m
            innov = y - b * m
            yield innov
            m = m + gain * innov
        return
    g0, g1 = cycle * (2 // period)  # (gain, gain) for period 1
    if (len(ys) - len(head)) % 2:
        head, g0, g1 = head + [g0], g1, g0
    rest = iter(ys)
    for gain, y in zip(head, rest):  # the gains first, so that no y is drawn past them
        m = a * m
        innov = y - b * m
        yield innov
        m = m + gain * innov
    if b == 1.0:
        for y0, y1 in zip(rest, rest):
            m = a * m
            innov = y0 - m
            yield innov
            m = m + g0 * innov
            m = a * m
            innov = y1 - m
            yield innov
            m = m + g1 * innov
        return
    for y0, y1 in zip(rest, rest):
        m = a * m
        innov = y0 - b * m
        yield innov
        m = m + g0 * innov
        m = a * m
        innov = y1 - b * m
        yield innov
        m = m + g1 * innov


def _grid_mean_recursion(a: np.ndarray, b: np.ndarray, m, ys: list, head: list, cycle: list) -> np.ndarray:
    """``_float_mean_recursion`` on (G,) arrays; returns the innovations, shape (n, G).

    Every step updates the mean and one row of the buffer in place, through
    the ufuncs bound to locals and their positional outputs. When every
    ``b`` is exactly 1.0 the innovation is ``y - m``, with the bits of
    ``y - b m`` because ``1.0 * m == m`` in IEEE 754 arithmetic, signed
    zeros included, so such a step makes four ufunc calls, not five.
    """
    m = np.full(a.shape, m)
    tmp = np.empty_like(m)
    out = np.empty((len(ys),) + a.shape)
    mul, sub, add = np.multiply, np.subtract, np.add
    gains = itertools.chain(head, itertools.cycle(cycle))
    if (b == 1.0).all():
        for y, innov, gain in zip(ys, out, gains):
            mul(a, m, m)
            sub(y, m, innov)
            mul(gain, innov, tmp)
            add(m, tmp, m)
        return out
    for y, innov, gain in zip(ys, out, gains):
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
    a, b, qz, qx = ssm.A.item(), ssm.B.item(), ssm.Qzeta.item(), ssm.Qxi.item()
    return _scalar_kalman_increments(a, b, qz, qx, _first_column(obs, _observations(obs, 1)), init)


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
    x1_dist = _mixed_start(_finite_x0_dist(spec, init), P)
    if n == 0:
        return 0.0  # the one empty path has probability 1
    total = 0.0
    for path in itertools.product(range(K), repeat=n):
        total += _path_joint(x1_dist, P, G, path, ys)
    return float(np.log(total)) if total > 0.0 else -np.inf


def _mixed_start(x0_dist: np.ndarray, P: np.ndarray) -> list:
    """The law of ``x_1`` when ``x_0 ~ x0_dist``: ``sum(x0_dist[x0] * P[x0, x1] for x0)`` per state ``x1``, in state order."""
    K = len(x0_dist)
    return [sum(x0_dist[x0] * P[x0, x1] for x0 in range(K)) for x1 in range(K)]


def _path_joint(x1_dist, P: np.ndarray, G: np.ndarray, path, ys):
    """``x1_dist[x_1] G[x_1, y_1] prod_{k=2..n} P[x_{k-1}, x_k] G[x_k, y_k]``, multiplied in that order; ``n >= 1``."""
    prob = x1_dist[path[0]] * G[path[0], ys[0]]
    for k in range(1, len(ys)):
        prob *= P[path[k - 1], path[k]] * G[path[k], ys[k]]
    return prob


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
    p = spec.state_dim
    mean, cov = _start_moments(init, p, spec.obs_dim, p, None)  # Stationary() was drawn above
    draws = rng.standard_normal((n_particles, p)) @ _chol_psd(cov).T + mean
    return draws[:, 0] if p == 1 else draws


def _resample_indices(cum: np.ndarray, padded: np.ndarray, u: float, est: Optional[np.ndarray]) -> np.ndarray:
    """Systematic-resampling indices from the ``P`` cumulative weights ``cum``.

    ``padded`` holds the positions ``pos = (k + u) / P`` between a ``-inf``
    and a ``+inf`` pad. Index ``k`` is the first particle whose cumulative
    weight exceeds ``pos[k]``, or the last particle when none does (the
    cumulative sum can round below a late position): ``inf`` is written
    over ``cum[-1]``, which does what a clamp to ``P - 1`` would. With ``est``
    ``None`` that is ``np.searchsorted``, in ``O(P log P)``. Otherwise
    ``est`` is scratch space for ``P - 1`` floats, and the indices come from
    an exact count in ``O(P)``: for each cumulative weight ``c`` but the
    last, ``J = #{k : pos[k] < c}`` starts from its estimate
    ``ceil(c * P - u)`` and moves by one until ``pos[J - 1] < c <= pos[J]``
    holds for every weight, with the pads as ``pos[-1]`` and ``pos[P]``.
    The positions increase, so that check pins ``J`` down exactly,
    whatever the rounding of the estimate. Particle ``i`` is drawn once for
    each position in ``[cum[i - 1], cum[i])``, so index ``k`` is
    ``#{i : J_i <= k}``: a ``bincount`` of the counts and its cumulative
    sum. The last particle's count would be ``P`` and falls outside.
    """
    cum[-1] = math.inf
    if est is None:
        return np.searchsorted(cum, padded[1:-1], side="right")
    P = len(cum)
    c = cum[:-1]
    np.minimum(np.ceil(np.subtract(np.multiply(c, P, out=est), u, out=est), out=est), P, out=est)
    J = est.astype(np.intp)
    below, above = padded[:-1], padded[1:]  # below[J] is pos[J - 1] and above[J] is pos[J]
    while True:
        high = below[J] >= c
        low = above[J] < c  # never true where high is, since below[J] <= above[J]
        if not (high.any() or low.any()):
            return np.add.accumulate(np.bincount(J, minlength=P + 1)[:P])
        J -= high
        J += low


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
    squares and their sum, the cumulative sum, the positions, the indices
    and the gather. The max, the sums and the cumulative sum call
    ``np.maximum.reduce``, ``np.add.reduce`` and ``np.add.accumulate``,
    which are numpy's ``max``, ``sum`` and ``cumsum`` bit for bit, and the
    weight mean and variance are numpy's ``mean`` and ``var`` operations
    in their order. The weights overwrite the emission buffer. Two buffers
    are allocated once per call: one holds the centred squares and then
    the cumulative sum, the other the positions ``(k + u) / particles``
    between two pads. So besides the hooks' outputs a step allocates only
    the indices, the resampled particles and the linear count's working
    arrays.

    ``_resample_indices`` turns the cumulative weights into indices, with
    ``inf`` written over the last one instead of a clamp: by
    ``np.searchsorted`` below ``_BPF_LINEAR_RESAMPLE`` particles, and from
    there on by an exact count in linear time, which is faster from about
    that many particles. Both give the same indices, so no value depends
    on the way the particle count picks. The loop runs under one
    ``np.errstate`` that ignores overflow, underflow and invalid
    operations: an observation whose square overflows gives ``-inf`` log
    weights, and so the ``zero_weights`` flag, not a warning.
    """
    _check_size("particles", particles)
    if spec.hmm is None:
        raise ValueError("the particle filter needs an HMM factorization")
    hmm = spec.hmm
    ys = _observations(obs, spec.obs_dim, None if spec.finite is None else spec.finite.n_symbols)
    n = len(ys)
    if spec.obs_dim == 1:  # the hooks take floats, and finite-alphabet codes arrive as integers
        ys = _first_column(obs, ys) if ys.dtype == float else ys[:, 0].astype(float).tolist()
    rng = rngmod.substream(seed, rngmod.BPF, stream)
    x = _bpf_initial_particles(spec, init, particles, rng)
    qx_sample, g_logpdf, random = hmm.qx_sample, hmm.g_logpdf, rng.random
    wmax, wsum, cumsum = np.maximum.reduce, np.add.reduce, np.add.accumulate
    ks = np.arange(particles, dtype=float)
    d = np.empty(particles)  # the centred squares, then the cumulative weights
    padded = np.empty(particles + 2)  # the resampling positions between -inf and +inf pads
    padded[0], padded[-1] = -np.inf, np.inf
    pos = padded[1:-1]
    est = np.empty(particles - 1) if particles >= _BPF_LINEAR_RESAMPLE else None
    total = 0.0
    var_log = 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for y in ys:
            x = qx_sample(x, rng)
            w = g_logpdf(x, y)  # a fresh buffer, so the weights can overwrite it
            m = wmax(w)
            if not math.isfinite(m):
                return LogLik(-np.inf, n, "bpf", flags=("zero_weights",))
            w -= m
            np.exp(w, out=w)
            s = wsum(w)
            wmean = s / particles
            total += m + np.log(wmean)
            np.multiply(np.subtract(w, wmean, out=d), d, out=d)
            var_log += wsum(d) / particles / (particles * wmean**2)
            w /= s
            # systematic resampling: one uniform offset, positions (k + u) / particles
            u = random()
            np.divide(np.add(ks, u, out=pos), particles, out=pos)
            x = x[_resample_indices(cumsum(w, out=d), padded, u, est)]
    return LogLik(float(total), n, "bpf", se=float(np.sqrt(var_log)))


# ---------------------------------------------------------------------------
# Grid quadrature oracle (scalar hidden state)
# ---------------------------------------------------------------------------


def _stationary_moments(spec: ModelSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the first ``k`` coordinates of the stationary ``z``: ``Gamma``'s block, or SV's x variance."""
    if spec.glm is not None:
        return np.zeros(k), glm_stationary_cov(spec.glm)[:k, :k]
    if spec.sv is not None:
        return np.zeros(1), np.full((1, 1), spec.sv.x_var)
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

    The recursion runs under one ``np.errstate`` that ignores overflow,
    underflow and invalid operations, as the particle filter's does: an
    observation whose square overflows gives an increment of ``-inf``,
    not a warning, and the kernels' exp underflows far from the diagonal.
    """
    _check_size("nodes", nodes)
    if spec.state_dim != 1:
        raise ValueError("quadrature supports one-dimensional hidden states only")
    ys = _observations(obs, spec.obs_dim)
    n = len(ys)
    if n > 8:
        raise ValueError("quadrature is an oracle for short sequences (n <= 8)")
    k = 1 if spec.hmm is not None else 1 + spec.obs_dim  # the linear branch integrates the whole pair
    stationary = _stationary_moments(spec, k)
    mean, cov = _start_moments(init, 1, spec.obs_dim, k, lambda: stationary)
    # mean and sd of x0, and how far a displaced initial law widens the grid
    mean0, sd0 = float(mean[0]), float(np.sqrt(max(cov[0, 0], 0.0)))
    extra = 0.0 if isinstance(init, Stationary) else abs(mean0) + sd0
    sd = float(np.sqrt(stationary[1][0, 0]))
    if n == 0:
        return LogLik(0.0, 0, "quadrature")
    lo = min(0.0, mean0) - _QUADRATURE_SPAN * sd - extra
    hi = max(0.0, mean0) + _QUADRATURE_SPAN * sd + extra
    grid = np.linspace(lo, hi, nodes)
    w = _trapezoid_weights(grid)

    if spec.hmm is None and spec.glm is None:
        raise ValueError("quadrature needs either an HMM factorization or linear-family parameters")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        inc = _quadrature_hmm(spec, ys, mean0, sd0, grid, w) if spec.hmm is not None else _quadrature_glm(spec, ys, mean, cov, grid, w)
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


def _quadrature_glm(spec: ModelSpec, ys: np.ndarray, mean: np.ndarray, cov: np.ndarray, grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Increments of a scalar linear model from z0 ~ N(mean, cov); its transition ``spec.trans_logpdf`` may depend on the past y."""
    if spec.obs_dim != 1:  # quadrature_loglik admits one-dimensional states only
        raise ValueError("quadrature for the linear family is implemented for p = q = 1")

    def log_q(z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
        return spec.trans_logpdf((z0[..., :1], z0[..., 1:]), (z1[..., :1], z1[..., 1:]))

    def on_grid(y: float) -> np.ndarray:
        return np.column_stack([grid, np.full(len(grid), y)])

    # tensor Gauss-Hermite nodes on the two z0 coordinates via the Cholesky map; a point mass is one node
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


def _one_pass_params(grid, method: str) -> Optional[tuple]:
    """The four (G,) parameter arrays ``(a, b, q_state, q_obs)`` of a grid that the scalar filter takes in one pass.

    A ``ScalarSsmGrid``, which must use ``kalman``, gives its own arrays;
    a Kalman list of one-dimensional state-space specs gives the rows of
    its stacked (4, G) array; any other grid gives ``None``.
    """
    if isinstance(grid, ScalarSsmGrid):
        if method != "kalman":
            raise ValueError(f"a scalar state-space grid uses the exact kalman likelihood, got {method!r}")
        return grid.a, grid.b, grid.q_state, grid.q_obs
    if method == "kalman" and all(_is_scalar_ssm(s) for s in grid):
        stacked = np.array([[s.ssm.A[0, 0], s.ssm.B[0, 0], s.ssm.Qzeta[0, 0], s.ssm.Qxi[0, 0]] for s in grid])
        return tuple(stacked.T.copy())
    return None


def _one_pass_increments(params: tuple, obs, init) -> np.ndarray:
    """``grid_increments`` of the grid whose ``_one_pass_params`` are ``params``: the (G, n) view of the (n, G) buffer."""
    return _scalar_kalman_increments(*params, _first_column(obs, _observations(obs, 1)), init).T


def grid_increments(grid, obs: np.ndarray, init, method: str) -> np.ndarray:
    """Increments of every model of a parameter grid, shape (G, n).

    ``grid`` is a ``ScalarSsmGrid`` or a list of specs. Row i is
    ``increments`` of the grid's i-th model. A record, which must use
    ``kalman``, and a Kalman list of one-dimensional state-space specs,
    stacked into the record's four arrays, take one call of the scalar
    filter over arrays of grid parameters and get the transposed view of
    its (n, G) buffer, not a copy; any other list stacks the per-spec
    rows. A grid log likelihood is a row cumulated in sequence
    (``posterior.grid_loglik_profiles``), which can differ in the last
    bits from the pairwise sum of :func:`loglik`. Non-finite observations
    raise ``ValueError``. A ``_Prepared`` record is used as it is, so a
    caller's checked observations are not checked or copied again.
    """
    params = _one_pass_params(grid, method)
    if params is None:
        prepared = obs if isinstance(obs, _Prepared) else _Prepared(obs)
        return np.vstack([increments(s, prepared, init, method) for s in grid])
    return _one_pass_increments(params, obs, init)


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
    chain the sequence is non-decreasing in n. ``nmax`` must be an
    integer >= 0; 0 gives the empty sequence.
    """
    if spec.finite is None:
        raise ValueError("the entropy sequence is computed exactly on finite models only")
    _check_size("nmax", nmax, 0)
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
