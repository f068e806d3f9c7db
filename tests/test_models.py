"""Model families: validation, embeddings, stationary laws, densities."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pommkit import (
    CustomInit,
    FiniteHmmParams,
    GaussianOnZ,
    GlmParams,
    PointMass,
    ScalarSsmGrid,
    SsmParams,
    Stationary,
    SvParams,
    finite_hmm_spec,
    finite_hmm_stationary,
    forward_loglik,
    glm_spec,
    glm_stationary_cov,
    iid_gaussian_spec,
    kalman_loglik,
    scalar_ssm,
    simulate_complete,
    ssm_embed,
    ssm_spec,
    sv_spec,
)
from pommkit.core import _draw_initial
from pommkit.likelihood import kalman_increments, ssm_kalman_loglik
from pommkit import models
from pommkit.models import _is_spd, _is_symmetric, spectral_radius, stationary_cov
from pommkit import rng as rngmod
from pommkit.divergence import delta_glm_closed

LOG2PI = np.log(2 * np.pi)


def random_stable_glm(rng, d=2, p=1, q=1):
    M = rng.normal(size=(d, d)) * 0.5
    rho = spectral_radius(M)
    if rho >= 0.95:
        M *= 0.9 / rho
    A = rng.normal(size=(d, d))
    R = A @ A.T + 0.3 * np.eye(d)
    return GlmParams(M, R, p, q)


class TestValidation:
    def test_glm_rejects_unstable(self):
        with pytest.raises(ValueError):
            GlmParams(1.5 * np.eye(2), np.eye(2), 1, 1)

    def test_glm_rejects_non_spd(self):
        with pytest.raises(ValueError):
            GlmParams(np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]), 1, 1)

    def test_sv_box(self):
        with pytest.raises(ValueError):
            SvParams(beta=-1.0, sigma=1.0, phi=0.5)
        with pytest.raises(ValueError):
            SvParams(beta=1.0, sigma=0.0, phi=0.5)
        with pytest.raises(ValueError):
            SvParams(beta=1.0, sigma=1.0, phi=1.0)

    def test_iid_rejects_non_finite_or_non_positive_parameters(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                iid_gaussian_spec(bad, 1.0)
            with pytest.raises(ValueError, match="sd must be positive and finite"):
                iid_gaussian_spec(0.0, bad)
        for sd in (0.0, -1.0):
            with pytest.raises(ValueError, match="sd must be positive and finite"):
                iid_gaussian_spec(0.0, sd)

    def test_non_finite_matrices_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="A must be finite"):
                SsmParams(A=[[bad]], B=[[1.0]], Qzeta=[[1.0]], Qxi=[[1.0]])
            with pytest.raises(ValueError, match="B must be finite"):
                SsmParams(A=[[0.5]], B=[[bad]], Qzeta=[[1.0]], Qxi=[[1.0]])
            with pytest.raises(ValueError, match="A must be finite"):
                scalar_ssm(bad)
            with pytest.raises(ValueError, match="B must be finite"):
                scalar_ssm(0.5, b=bad)
            with pytest.raises(ValueError, match="Phi must be finite"):
                GlmParams([[0.5, 0.0], [bad, 0.0]], np.eye(2), 1, 1)
            for args, name in (((0.5, 1.0, bad, 0.2), "Qzeta"), ((0.5, 1.0, 1.0, bad), "Qxi")):
                with pytest.raises(ValueError, match=f"{name} must be symmetric positive definite"):
                    scalar_ssm(*args)

    def test_invalid_joint_chain_embedding_names_the_embedding(self):
        # valid state-space models whose embedded R is singular in floating
        # point (1e10 + 1e-8 == 1e10) or overflows to inf
        for args, cause in (((0.5, 1.0, 1e10, 1e-8), "R must be positive definite"),
                            ((0.5, 1e200, 1e200, 1.0), "R must be symmetric")):
            SsmParams(*([[v]] for v in args))  # the record itself is valid
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected without a numpy overflow warning
                with pytest.raises(ValueError, match="joint-chain embedding") as err:
                    scalar_ssm(*args)
            assert isinstance(err.value.__cause__, ValueError)
            assert str(err.value.__cause__) == cause

    def test_finite_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            FiniteHmmParams([[0.5, 0.4], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.2, -0.2], [0.0, 1.0]])


class TestBuildRejections:
    """The scalar shortcuts of a build reject exactly what the eigenvalue solvers rejected."""

    GOOD = (0.5, 1.0, 1.0, 0.2)

    @staticmethod
    def builds(a, b, qz, qx):
        return (lambda: scalar_ssm(a, b, qz, qx), lambda: SsmParams(A=[[a]], B=[[b]], Qzeta=[[qz]], Qxi=[[qx]]))

    def test_unit_root(self):
        for a in (1.0, -1.0, 1.5):
            for build in self.builds(a, *self.GOOD[1:]):
                with pytest.raises(ValueError, match="spectral radius of A"):
                    build()
        edge = np.nextafter(1.0, 0.0)
        for a in (edge, -edge):
            spec = scalar_ssm(a, *self.GOOD[1:])
            assert spec.ssm.A[0, 0] == a and spectral_radius(spec.glm.Phi) == edge
            SsmParams(A=[[a]], B=[[1.0]], Qzeta=[[1.0]], Qxi=[[0.2]])

    def test_non_positive_variances(self):
        for q in (0.0, -0.0, -5e-324, -1.0):
            for args, name in (((0.5, 1.0, q, 0.2), "Qzeta"), ((0.5, 1.0, 1.0, q), "Qxi")):
                for build in self.builds(*args):
                    with pytest.raises(ValueError, match=f"{name} must be symmetric positive definite"):
                        build()
        SsmParams(A=[[0.5]], B=[[1.0]], Qzeta=[[5e-324]], Qxi=[[5e-324]])

    def test_embedded_Phi_finiteness_stays(self):
        # B A overflows although A is stable and B finite
        params = SsmParams([[0.5, 0.0], [0.9, 0.0]], [[1.5e308, 1.5e308]], np.eye(2), [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="joint-chain embedding of this state-space model is invalid: Phi must be finite"):
                ssm_embed(params)

    def test_one_by_one_shortcuts_equal_the_solvers(self):
        rng = np.random.default_rng(21)
        edges = np.array([1.0, -1.0])
        ulps = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0 * edges)])
        values = np.concatenate([
            10.0 ** rng.uniform(-323, 308, 3000) * rng.choice([-1.0, 1.0], 3000),
            rng.uniform(-4.0, 4.0, 3000),
            ulps,
            [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max],
        ])
        for v in values.tolist():
            M = np.array([[v]])
            rho = float(np.max(np.abs(np.linalg.eigvals(M))))
            assert (spectral_radius(M) < 1.0) == (rho < 1.0)
            if 1e-20 < abs(v) < 1e20:  # beyond, eigvals scales the matrix and can miss |v| by an ulp
                assert spectral_radius(M) == rho
            assert _is_spd(M) == (_is_symmetric(M) and not np.linalg.eigvalsh(M).min() <= 0.0)
        for v in (np.nan, np.inf, -np.inf):
            assert not _is_spd(np.array([[v]]))


def matrix_build(A, B, Qzeta, Qxi):
    """``ssm_spec``'s record and embedding by the general matrix code, for any shapes.

    Shape checks, the eigenvalue solvers in place of the 1 x 1 shortcuts,
    and the joint matrices assembled by matrix products. Returns
    ``(A, B, Qzeta, Qxi, Phi, R)`` or raises the ``ValueError`` that a build
    raises, with its message.
    """
    A, B, Qzeta, Qxi = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, Qzeta, Qxi))
    p, q = A.shape[0], B.shape[0]
    if A.shape != (p, p):
        raise ValueError("A must be square")
    if B.shape != (q, p):
        raise ValueError(f"B must be {q}x{p}")
    if Qzeta.shape != (p, p) or Qxi.shape != (q, q):
        raise ValueError("noise covariances have inconsistent shapes")
    for name, M in (("A", A), ("B", B)):
        if not np.isfinite(M).all():
            raise ValueError(f"{name} must be finite")
    if np.abs(np.linalg.eigvals(A)).max() >= 1.0:
        raise ValueError("spectral radius of A must be < 1")
    for name, M in (("Qzeta", Qzeta), ("Qxi", Qxi)):
        if not (np.allclose(M, M.T, atol=1e-10) and np.linalg.eigvalsh(M).min() > 0.0):
            raise ValueError(f"{name} must be symmetric positive definite")
    Phi = np.zeros((p + q, p + q))
    Phi[:p, :p] = A
    R = np.empty((p + q, p + q))
    with np.errstate(over="ignore", invalid="ignore"):
        Phi[p:, :p] = B @ A
        R[:p, :p] = Qzeta
        R[:p, p:] = Qzeta @ B.T
        R[p:, :p] = B @ Qzeta
        R[p:, p:] = (B @ Qzeta) @ B.T + Qxi
        if not np.isfinite(Phi).all():
            cause = "Phi must be finite"
        elif not (np.isfinite(R).all() and np.allclose(R, R.T, atol=1e-10)):
            cause = "R must be symmetric"
        elif np.linalg.eigvalsh(R).min() <= 0.0:
            cause = "R must be positive definite"
        else:
            return A, B, Qzeta, Qxi, Phi, R
    raise ValueError(f"the joint-chain embedding of this state-space model is invalid: {cause}")


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-8, 1e10, 1e200, -1e200, 1.5e308, np.inf, -np.inf, np.nan,
            1.0, -1.0, float(np.nextafter(1.0, 0.0)), -float(np.nextafter(1.0, 0.0))]
NOT_SCALAR = [[0.5], np.array([0.5, 0.6]), [[0.5]], np.array([[0.3]]), [0.5, 0.6]]


def build_arg(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES), st.sampled_from(NOT_SCALAR))


class TestScalarBuild:
    """A 1 x 1 build gives the bytes and the errors of the general matrix build."""

    @staticmethod
    def outcome(build):
        try:
            spec = build()
        except ValueError as err:
            return type(err), str(err), type(err.__cause__), str(err.__cause__)
        arrays = (spec.ssm.A, spec.ssm.B, spec.ssm.Qzeta, spec.ssm.Qxi, spec.glm.Phi, spec.glm.R)
        return [(M.dtype, M.shape, M.tobytes()) for M in arrays]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=build_arg(-1.2, 1.2), b=build_arg(-1e3, 1e3), qz=build_arg(0.0, 1e3), qx=build_arg(0.0, 1e3))
    # the embedded R is singular in floating point (1e10 + 1e-8 == 1e10), or overflows
    @example(a=0.5, b=1.0, qz=1e10, qx=1e-8)
    @example(a=0.5, b=1e200, qz=1e200, qx=1.0)
    @example(a=0.5, b=-0.0, qz=1.0, qx=0.2)  # B A and B Qzeta are +0.0, as a matrix product gives
    def test_equals_matrix_build(self, a, b, qz, qx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither build warns
            fast = self.outcome(lambda: scalar_ssm(a, b, qz, qx))
            generic = self.outcome(lambda: ssm_spec(SsmParams([[a]], [[b]], [[qz]], [[qx]])))
        assert fast == generic
        try:
            want = [(M.dtype, M.shape, M.tobytes()) for M in matrix_build([[a]], [[b]], [[qz]], [[qx]])]
        except ValueError as err:
            assert fast[:2] == (ValueError, str(err))  # never a TypeError, even for non-scalar arguments
            return
        assert fast == want


def scalar_point(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES))


def build_error(a, b, qz, qx):
    """The message ``scalar_ssm`` raises at this point, or None if it builds."""
    try:
        scalar_ssm(a, b, qz, qx)
    except ValueError as err:
        return str(err)
    return None


class TestScalarSsmGrid:
    """The grid record accepts exactly the points ``scalar_ssm`` accepts, and raises its message at the first other."""

    @staticmethod
    def point_error(i, a, b, qz, qx, message):
        return f"grid point {i} (a = {float(a)!r}, b = {float(b)!r}, q_state = {float(qz)!r}, q_obs = {float(qx)!r}): {message}"

    def check(self, points):
        a, b, qz, qx = (np.array(col, dtype=float) for col in zip(*points))
        errors = [build_error(*pt) for pt in points]
        bad = [i for i, err in enumerate(errors) if err is not None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the vectorized checks do not warn, not even on overflow or NaN
            if not bad:
                grid = ScalarSsmGrid(a, b, qz, qx)
                for got, want in zip((grid.a, grid.b, grid.q_state, grid.q_obs), (a, b, qz, qx)):
                    assert got.tobytes() == want.tobytes()
                return
            with pytest.raises(ValueError) as raised:
                ScalarSsmGrid(a, b, qz, qx)
        assert str(raised.value) == self.point_error(bad[0], *points[bad[0]], errors[bad[0]])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(scalar_point(-1.2, 1.2), scalar_point(-1e3, 1e3), scalar_point(0.0, 1e3),
                                     scalar_point(0.0, 1e3)), min_size=1, max_size=4))
    def test_accepts_what_scalar_ssm_accepts(self, points):
        self.check(points)

    def test_edge_points(self):
        good = (0.3, 1.0, 1.0, 0.2)
        cases = [
            ((1.0, 1.0, 1.0, 0.2), "spectral radius of A must be < 1"),
            ((-1.0, 1.0, 1.0, 0.2), "spectral radius of A must be < 1"),
            ((np.nan, 1.0, 1.0, 0.2), "A must be finite"),
            ((0.5, np.nan, 1.0, 0.2), "B must be finite"),
            ((0.5, 1.0, 1.0, 0.0), "Qxi must be symmetric positive definite"),
            ((0.5, 1e200, 1.0, 0.2), "R must be symmetric"),  # b^2 q_state overflows
            ((0.5, 1.0, 1e10, 1e-8), "R must be positive definite"),  # 1e10 + 1e-8 == 1e10: R is singular
        ]
        for point, message in cases:
            assert message in build_error(*point)
            for points in ([point], [good, point], [good, point, point]):
                self.check(points)

    def test_scalars_broadcast_and_arrays_are_read_only(self):
        a = np.linspace(-0.9, 0.9, 5)
        grid = ScalarSsmGrid(a, 1.0, 2.0, 0.2)
        np.testing.assert_array_equal(grid.q_state, np.full(5, 2.0))
        a[0] = 0.0  # the record holds its own copy
        assert grid.a[0] == -0.9
        for v in (grid.a, grid.b, grid.q_state, grid.q_obs):
            assert v.dtype == float and v.shape == (5,) and not v.flags.writeable
        for shape in ((), (0,), (2, 3)):
            with pytest.raises(ValueError, match="non-empty"):
                ScalarSsmGrid(np.full(shape, 0.5), 1.0, 1.0, 0.2)

    def test_length_and_boolean_mask(self):
        a = np.linspace(-0.9, 0.9, 7)
        grid = ScalarSsmGrid(a, np.linspace(0.5, 1.5, 7), 1.0, 0.2)
        assert len(grid) == 7
        mask = np.abs(a) >= 0.5
        sub = grid[mask]
        assert isinstance(sub, ScalarSsmGrid) and len(sub) == int(mask.sum())
        for name in ("a", "b", "q_state", "q_obs"):
            got, want = getattr(sub, name), getattr(grid, name)[mask]
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        for bad in (mask.astype(int), mask[:-1], np.zeros(7, bool), mask[:, None]):
            with pytest.raises(ValueError, match="mask"):
                grid[bad]


class TestSymmetryCheck:
    @staticmethod
    def reference(M):
        return bool(np.allclose(M, M.T, atol=1e-10))

    def test_agrees_with_allclose(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 5):
            for _ in range(50):
                A = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-6, 6)
                sym = 0.5 * (A + A.T)
                # asymmetric, symmetric, and perturbations straddling the tolerance
                cases = [A, sym]
                for scale in (0.5e-10, 2e-10, 1e-6, 1e-5, 1e-4):
                    E = np.zeros((d, d))
                    if d > 1:
                        E[0, d - 1] = scale * max(1.0, abs(sym[0, d - 1]))
                    cases.append(sym + E)
                for M in cases:
                    assert _is_symmetric(M) == self.reference(M)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            assert not _is_symmetric(np.array([[1.0, bad], [bad, 1.0]]))
            assert not _is_symmetric(np.array([[bad]]))
        with pytest.raises(ValueError, match="Qzeta"):
            SsmParams(A=[[0.5]], B=[[1.0]], Qzeta=[[np.inf]], Qxi=[[1.0]])
        with pytest.raises(ValueError, match="R must be symmetric"):
            GlmParams(np.zeros((2, 2)), np.array([[1.0, np.inf], [np.inf, 1.0]]), 1, 1)


class TestLazyFactors:
    def ssm2(self):
        return ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], [[1.0, 0.1], [0.1, 0.8]], [[0.3]]))

    def test_build_computes_no_factor(self, monkeypatch):
        calls = {"stationary_cov": 0, "cholesky": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            return wrapper

        monkeypatch.setattr(models, "stationary_cov", counted("stationary_cov", models.stationary_cov))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        specs = [scalar_ssm(0.95), scalar_ssm(0.9999, 0.7, 1.3, 0.4), self.ssm2(),
                 glm_spec(GlmParams([[0.4, 0.2], [0.1, 0.3]], [[1.0, 0.4], [0.4, 1.0]], 1, 1))]
        assert calls == {"stationary_cov": 0, "cholesky": 0}
        # the counters see the factors once a sampler needs them, and only once
        for spec in specs:
            spec.sample_stationary(3, rngmod.substream(0, 0))
            spec.sample_stationary(3, rngmod.substream(0, 0))
        assert calls == {"stationary_cov": 4, "cholesky": 4}

    def test_glm_stationary_cov_computed_once_per_record(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return stationary_cov(*args)

        star = scalar_ssm(0.95, 0.7, 1.3, 0.4).glm
        want = stationary_cov(star.Phi, star.R)
        monkeypatch.setattr(models, "stationary_cov", counted)
        others = [scalar_ssm(a, 0.7, 1.3, 0.4).glm for a in np.linspace(-0.9, 0.9, 50)]
        values = [delta_glm_closed(star, other).value for other in others]
        assert calls[0] == 1
        gamma = glm_stationary_cov(star)
        assert gamma is glm_stationary_cov(star) and gamma.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            gamma[0, 0] = 0.0
        assert calls[0] == 1
        # the same values as a record that computes its own
        fresh = [delta_glm_closed(GlmParams(star.Phi, star.R, 1, 1), other).value for other in others]
        assert values == fresh and calls[0] == len(others) + 1

    def test_kalman_and_simulation_share_one_stationary_covariance(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return stationary_cov(*args)

        monkeypatch.setattr(models, "stationary_cov", counted)
        spec = glm_spec(GlmParams([[0.6, 0.2], [0.3, 0.4]], [[1.0, 0.4], [0.4, 1.0]], 1, 1))
        traj = simulate_complete(spec, Stationary(), 20, seed=3)  # the stationary start draws through chol(Gamma)
        kalman_increments(spec, traj.y[1:], Stationary())  # the filter starts from Gamma
        assert calls[0] == 1

    def test_samplers_match_direct_factors(self):
        chol = np.linalg.cholesky
        for spec in (scalar_ssm(0.95), scalar_ssm(0.9999, 0.7, 1.3, 0.4), self.ssm2()):
            glm, ssm = spec.glm, spec.ssm
            d, p, q = glm.p + glm.q, ssm.p, ssm.q
            z = (np.linspace(-1.0, 1.0, p), np.array([0.3]))
            for _ in range(2):  # the first call computes a factor, the second reuses it
                got = spec.sample_stationary(20, rngmod.substream(1, 0))
                want = rngmod.substream(1, 0).standard_normal((20, d)) @ chol(stationary_cov(glm.Phi, glm.R)).T
                assert np.concatenate(got, axis=1).tobytes() == want.tobytes()
                # a block of one, as simulate_complete draws its start, is the matrix-vector product
                got = spec.sample_stationary(1, rngmod.substream(2, 0))
                want = chol(stationary_cov(glm.Phi, glm.R)) @ rngmod.substream(2, 0).standard_normal(d)
                assert np.concatenate(got, axis=1)[0].tobytes() == want.tobytes()
                got = spec.hmm.stationary_x_sample(20, rngmod.substream(3, 0))
                want = rngmod.substream(3, 0).standard_normal((20, p)) @ chol(stationary_cov(ssm.A, ssm.Qzeta)).T
                assert np.asarray(got).tobytes() == (want[:, 0] if p == 1 else want).tobytes()
                got = spec.sample_step(z, rngmod.substream(4, 0))
                want = glm.Phi @ np.concatenate(z) + chol(glm.R) @ rngmod.substream(4, 0).standard_normal(d)
                assert np.concatenate(got).tobytes() == want.tobytes()
                got = spec.hmm.qx_sample(z[0], rngmod.substream(5, 0))
                want = ssm.A @ z[0] + chol(ssm.Qzeta) @ rngmod.substream(5, 0).standard_normal(p)
                assert got.tobytes() == want.tobytes()
                got = spec.hmm.g_sample(z[0], rngmod.substream(6, 0))
                want = ssm.B @ z[0] + chol(ssm.Qxi) @ rngmod.substream(6, 0).standard_normal(q)
                assert got.tobytes() == want.tobytes()


class TestStationaryCovariance:
    def test_phi_zero_gives_r(self):
        params = GlmParams(np.zeros((2, 2)), np.diag([1.0, 2.0]), 1, 1)
        np.testing.assert_allclose(glm_stationary_cov(params), np.diag([1.0, 2.0]))

    def test_scalar_geometric_series(self):
        params = GlmParams(np.array([[0.5, 0.0], [0.0, 0.0]]), np.eye(2), 1, 1)
        gamma = glm_stationary_cov(params)
        assert abs(gamma[0, 0] - 4.0 / 3.0) < 1e-12

    def test_fixed_point_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = random_stable_glm(rng)
            gamma = glm_stationary_cov(params)
            resid = gamma - params.Phi @ gamma @ params.Phi.T - params.R
            assert np.linalg.norm(resid) < 1e-11

    @staticmethod
    def kronecker_solve(Phi, R):
        # vec Gamma = (I - Phi (x) Phi)^{-1} vec R, independent of the doubling loop
        d = Phi.shape[0]
        return np.linalg.solve(np.eye(d * d) - np.kron(Phi, Phi), R.reshape(-1)).reshape(d, d)

    def test_matches_kronecker_solve_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = random_stable_glm(rng, d=3, p=2, q=1)
            expected = self.kronecker_solve(params.Phi, params.R)
            gamma = glm_stationary_cov(params)
            assert np.abs(gamma - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_matches_kronecker_solve_near_unit_root(self):
        for a in (0.5, 0.99, 0.9999, 0.99999):
            spec = scalar_ssm(a, 1.0, 1.0, 0.2)
            expected = self.kronecker_solve(spec.glm.Phi, spec.glm.R)
            gamma = glm_stationary_cov(spec.glm)
            assert np.abs(gamma - expected).max() <= 1e-10 * np.abs(expected).max()
            assert abs(gamma[0, 0] * (1.0 - a * a) - 1.0) < 1e-10


class TestLinearFamily:
    def test_logdensity_at_origin(self):
        spec = glm_spec(GlmParams(np.zeros((2, 2)), np.eye(2), 1, 1))
        val = spec.trans_logpdf((np.zeros(1), np.zeros(1)), (np.zeros(1), np.zeros(1)))
        assert abs(val - (-LOG2PI)) < 1e-14

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(4)
        params = random_stable_glm(rng)
        spec = glm_spec(params)
        z = (np.array([0.3]), np.array([-0.2]))
        sds = np.sqrt(np.diag(params.R))
        mean = params.Phi @ np.array([0.3, -0.2])
        g0 = np.linspace(mean[0] - 8 * sds[0], mean[0] + 8 * sds[0], 801)
        g1 = np.linspace(mean[1] - 8 * sds[1], mean[1] + 8 * sds[1], 801)
        # log N(z1; Phi z, R) on the whole grid at once
        chol = np.linalg.cholesky(params.R)
        dev = np.stack(np.meshgrid(g0 - mean[0], g1 - mean[1], indexing="ij"))
        u = np.linalg.solve(chol, dev.reshape(2, -1)).reshape(dev.shape)
        vals = -0.5 * (2 * LOG2PI + 2 * np.log(np.diag(chol)).sum() + (u * u).sum(axis=0))
        # the spec's own density agrees with it over the whole grid
        picks = np.vstack([rng.integers(0, 801, size=(300, 2)), [[0, 0], [0, 800], [800, 0], [800, 800], [400, 400]]])
        for i, j in picks:
            got = spec.trans_logpdf(z, (np.array([g0[i]]), np.array([g1[j]])))
            assert abs(got - vals[i, j]) < 1e-12
        integral = np.trapezoid(np.trapezoid(np.exp(vals), g1, axis=1), g0)
        assert abs(integral - 1.0) < 1e-6

    def test_transition_sample_mean(self):
        rng = np.random.default_rng(5)
        params = random_stable_glm(rng)
        spec = glm_spec(params)
        z = (np.array([1.0]), np.array([-1.0]))
        gen = rngmod.substream(77, 0)
        draws = np.array([np.concatenate(spec.sample_step(z, gen)) for _ in range(100_000)])
        target = params.Phi @ np.array([1.0, -1.0])
        se = np.sqrt(np.diag(params.R) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - target) < 3 * se)


class TestSsmEmbedding:
    def test_hand_expansion(self):
        params = SsmParams(A=[[0.0]], B=[[1.0]], Qzeta=[[1.0]], Qxi=[[1.0]])
        glm = ssm_embed(params)
        np.testing.assert_allclose(glm.Phi, np.zeros((2, 2)))
        np.testing.assert_allclose(glm.R, np.array([[1.0, 1.0], [1.0, 2.0]]))

    def test_b_zero_block_diagonal(self):
        params = SsmParams(A=[[0.4]], B=[[0.0]], Qzeta=[[1.5]], Qxi=[[0.7]])
        glm = ssm_embed(params)
        np.testing.assert_allclose(glm.R, np.diag([1.5, 0.7]))

    def test_embedded_spectral_radius_and_rank(self):
        params = SsmParams(A=[[0.6]], B=[[2.0]], Qzeta=[[1.0]], Qxi=[[0.5]])
        glm = ssm_embed(params)
        assert abs(spectral_radius(glm.Phi) - 0.6) < 1e-12
        assert np.linalg.matrix_rank(glm.Phi) == 1

    def test_embedded_kalman_equals_direct(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(-0.9, 0.9)
            b = rng.uniform(0.2, 2.0)
            qz = rng.uniform(0.2, 2.0)
            qx = rng.uniform(0.2, 2.0)
            params = SsmParams(A=[[a]], B=[[b]], Qzeta=[[qz]], Qxi=[[qx]])
            spec = ssm_spec(params)
            obs = np.asarray(
                simulate_complete(spec, Stationary(), 50, seed=int(rng.integers(1 << 30))).y[1:]
            )
            lj = kalman_loglik(spec, obs, Stationary()).value
            ld = ssm_kalman_loglik(params, obs, Stationary()).value
            assert abs(lj - ld) < 1e-9


class TestStochasticVolatility:
    def test_emission_at_origin(self):
        spec = sv_spec(SvParams(1.0, 0.5, 0.9))
        assert abs(spec.hmm.g_logpdf(0.0, 0.0) - (-0.5 * LOG2PI)) < 1e-14

    def test_emission_integral_over_state(self):
        # integral over x of the emission density equals 1/|y|
        spec = sv_spec(SvParams(1.3, 0.5, 0.6))
        y = 2.0
        xs = np.linspace(-60.0, 60.0, 240_001)
        vals = np.exp(spec.hmm.g_logpdf(xs, y))
        integral = np.trapezoid(vals, xs)
        assert abs(integral - 1.0 / abs(y)) < 1e-6

    def test_emission_supremum_over_state(self):
        spec = sv_spec(SvParams(1.3, 0.5, 0.6))
        y = 1.0
        xs = np.linspace(-30.0, 30.0, 200_001)
        sup = np.exp(spec.hmm.g_logpdf(xs, y)).max()
        target = 1.0 / (abs(y) * np.sqrt(2 * np.pi * np.e))
        assert abs(sup - target) < 1e-8

    def test_stationary_state_variance(self):
        params = SvParams(1.0, 0.5, 0.9)
        spec = sv_spec(params)
        gen = rngmod.substream(13, 0)
        xs, _ = spec.sample_stationary(1_000_000, gen)
        target = params.x_var
        se = target * np.sqrt(2.0 / len(xs))
        assert abs(xs.var() - target) < 3 * se


class TestFiniteHmm:
    def test_symmetric_stationary(self):
        params = FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(finite_hmm_stationary(params), [0.5, 0.5])

    def test_zero_probability_entries_never_drawn(self):
        class ZeroUniforms:  # the smallest uniform a generator can return, every time
            def random(self, shape=None):
                return np.zeros(shape)

        P = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        hmm = finite_hmm_spec(FiniteHmmParams(P, [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])).hmm
        states = np.array([0, 1, 2])
        assert hmm.qx_sample(states, ZeroUniforms()).tolist() == [1, 0, 0]
        assert hmm.g_sample(states, ZeroUniforms()).tolist() == [1, 0, 0]
        assert hmm.qx_sample(0, ZeroUniforms()) == 1

    def test_draw_at_a_short_row_total_stays_in_range(self):
        class LargestUniforms:  # the largest uniform a generator can return, every time
            def random(self, shape=None):
                return np.full(shape, 1.0 - 2.0**-53)

        P = [[0.3, 0.3, 0.4 - 4e-13], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]]  # row 0 sums to just under 1
        spec = finite_hmm_spec(FiniteHmmParams(P, [[0.6, 0.4 - 4e-13], [0.5, 0.5], [1.0, 0.0]]))
        hmm = spec.hmm
        states = np.array([0, 1, 2])
        # each row's last positive-probability state, not one past the end
        assert hmm.qx_sample(states, LargestUniforms()).tolist() == [2, 1, 1]
        assert hmm.g_sample(states, LargestUniforms()).tolist() == [1, 1, 0]
        assert hmm.qx_sample(0, LargestUniforms()) == 2
        assert 0 <= hmm.stationary_x_sample(1, LargestUniforms())[0] <= 2
        assert spec.sample_step((np.array([0]), np.array([0])), LargestUniforms())[0].tolist() == [2]

    def test_draws_below_the_row_total_are_the_plain_inverse_cdf(self):
        P = [[0.3, 0.3, 0.4 - 4e-13], [0.0, 0.5, 0.5], [0.25, 0.0, 0.75]]
        G = [[0.5, 0.5], [0.1, 0.9], [0.0, 1.0]]
        hmm = finite_hmm_spec(FiniteHmmParams(P, G)).hmm
        x = np.repeat([0, 1, 2], 2000)
        for seed in range(3):
            rng_hook, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [hmm.qx_sample(x, rng_hook), hmm.g_sample(x, rng_hook)]
            want = []
            for M in (np.asarray(P), np.asarray(G)):
                u = rng_ref.random(len(x))
                want.append(np.array([np.searchsorted(np.cumsum(M[i]), v, side="right") for i, v in zip(x, u)]))
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_stationary_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            P = rng.dirichlet(np.ones(4), size=4)
            params = FiniteHmmParams(P, rng.dirichlet(np.ones(3), size=4))
            pi = finite_hmm_stationary(params)
            assert np.max(np.abs(pi @ P - pi)) < 1e-12

    def test_reducible_and_periodic_rejected(self):
        G = np.eye(2)
        with pytest.raises(ValueError):
            finite_hmm_stationary(FiniteHmmParams(np.eye(2), G))  # reducible
        with pytest.raises(ValueError):
            finite_hmm_stationary(FiniteHmmParams([[0.0, 1.0], [1.0, 0.0]], G))  # periodic

    def test_identity_emissions_reveal_states(self):
        rng = np.random.default_rng(8)
        P = rng.dirichlet(np.ones(3), size=3)
        params = FiniteHmmParams(P, np.eye(3))
        spec = finite_hmm_spec(params)
        pi = finite_hmm_stationary(params)
        ys = np.array([2, 0, 1, 1])
        # states are visible: p(y) = (pi P)(y1) * prod P[y_k, y_{k+1}]
        expected = (pi @ P)[2] * P[2, 0] * P[0, 1] * P[1, 1]
        got = np.exp(forward_loglik(spec, ys, Stationary()).value)
        assert abs(got - expected) < 1e-14

    def test_transition_normalization_exact(self):
        rng = np.random.default_rng(9)
        P = rng.dirichlet(np.ones(3), size=3)
        G = rng.dirichlet(np.ones(4), size=3)
        spec = finite_hmm_spec(FiniteHmmParams(P, G))
        for x in range(3):
            total = sum(
                np.exp(spec.trans_logpdf((np.array([x]), np.array([0])), (np.array([x1]), np.array([y1]))))
                for x1 in range(3)
                for y1 in range(4)
            )
            assert abs(total - 1.0) < 1e-12

    def test_hmm_factorization_ignores_past_observation(self):
        rng = np.random.default_rng(10)
        P = rng.dirichlet(np.ones(2), size=2)
        G = rng.dirichlet(np.ones(2), size=2)
        spec = finite_hmm_spec(FiniteHmmParams(P, G))
        za = (np.array([1]), np.array([0]))
        zb = (np.array([1]), np.array([1]))
        znext = (np.array([0]), np.array([1]))
        assert spec.trans_logpdf(za, znext) == spec.trans_logpdf(zb, znext)


def hmm_family_specs():
    P = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
    G = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    return {
        "sv": sv_spec(SvParams(1.1, 0.4, 0.93)),
        "finite": finite_hmm_spec(FiniteHmmParams(P, G)),
        "iid": iid_gaussian_spec(0.5, 2.0),
    }


class TestHmmJointChain:
    """The joint-chain callables of the HMM families come from their factorization."""

    def test_trans_logpdf_is_the_factorized_sum(self):
        rng = np.random.default_rng(14)
        for name, spec in hmm_family_specs().items():
            hmm = spec.hmm
            for _ in range(200):
                if name == "finite":
                    x, y, x1, y1 = rng.integers(0, [3, 2, 3, 2]).tolist()
                else:
                    x, y, x1, y1 = (3.0 * rng.standard_normal(4)).tolist()
                got = spec.trans_logpdf((np.array([x]), np.array([y])), (np.array([x1]), np.array([y1])))
                assert type(got) is float
                assert got == hmm.qx_logpdf(x, x1) + hmm.g_logpdf(x1, y1)

    def test_samplers_follow_the_hook_sequence(self):
        for spec in hmm_family_specs().values():
            hmm = spec.hmm
            for seed in range(5):
                got = [v[0] for v in spec.sample_stationary(1, rngmod.substream(seed, 0))]  # a block of one
                rng = rngmod.substream(seed, 0)
                x = hmm.stationary_x_sample(1, rng)[0]
                want = (np.array([x]), np.array([hmm.g_sample(x, rng)]))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                z = got
                rng_spec, rng_hooks = rngmod.substream(seed, 1), rngmod.substream(seed, 1)
                for _ in range(20):
                    got = spec.sample_step(z, rng_spec)
                    x1 = hmm.qx_sample(float(z[0][0]), rng_hooks)
                    want = (np.array([x1]), np.array([hmm.g_sample(x1, rng_hooks)]))
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    z = got

    def test_sv_densities_match_the_hooks_on_a_broadcast_grid(self):
        params = SvParams(1.1, 0.4, 0.93)
        hmm = sv_spec(params).hmm
        xs = np.linspace(-6.0, 6.0, 41)
        ys = np.linspace(-4.0, 4.0, 33)
        qx = models.sv_qx_logpdf(params, xs[:, None], xs[None, :])
        g = models.sv_g_logpdf(params, xs[:, None], ys[None, :])
        assert qx.shape == (41, 41) and g.shape == (41, 33)
        for i, x in enumerate(xs.tolist()):
            assert qx[i].tolist() == [hmm.qx_logpdf(x, x1) for x1 in xs.tolist()]
            assert g[i].tolist() == [hmm.g_logpdf(x, y) for y in ys.tolist()]
        for j, y in enumerate(ys.tolist()):
            assert np.array_equal(hmm.g_logpdf(xs, y), g[:, j])


class TestSharedFormulas:
    """The SV hooks are the shared samplers, and ``normal_logpdf`` is the hooks' Gaussian."""

    def test_sv_hooks_draw_what_the_shared_samplers_draw(self):
        params = SvParams(1.1, 0.4, 0.93)
        spec = sv_spec(params)
        hmm = spec.hmm
        beta, sigma, phi, x_sd = params.beta, params.sigma, params.phi, np.sqrt(params.x_var)

        def by_hooks(rng):
            x = hmm.stationary_x_sample(50, rng)
            x1 = hmm.qx_sample(x, rng)
            s = hmm.qx_sample(0.3, rng)
            return [x, x1, s, hmm.g_sample(s, rng), *spec.sample_stationary(40, rng)]

        def by_samplers(rng):
            x = models.sv_stationary_x_sample(params, 50, rng)
            x1 = models.sv_qx_sample(params, x, rng)
            s = models.sv_qx_sample(params, 0.3, rng)
            g = models.sv_g_sample(params, s, rng)
            x0 = models.sv_stationary_x_sample(params, 40, rng)
            return [x, x1, s, g, x0[:, None], models.sv_g_sample(params, x0, rng)[:, None]]

        def written_out(rng):
            x = x_sd * rng.standard_normal(50)
            x1 = phi * x + sigma * rng.standard_normal(50)
            s = phi * 0.3 + sigma * rng.standard_normal()
            g = beta * np.exp(s / 2.0) * rng.standard_normal()
            x0 = x_sd * rng.standard_normal(40)
            return [x, x1, s, g, x0[:, None], (beta * np.exp(x0 / 2.0) * rng.standard_normal(40))[:, None]]

        for seed in range(5):
            got = [np.asarray(v).tobytes() for v in by_hooks(rngmod.substream(seed, 0))]
            assert got == [np.asarray(v).tobytes() for v in by_samplers(rngmod.substream(seed, 0))]
            assert got == [np.asarray(v).tobytes() for v in written_out(rngmod.substream(seed, 0))]

    def test_normal_logpdf_is_the_hooks_gaussian(self):
        sv = SvParams(1.1, 0.4, 0.93)
        sv_hmm = sv_spec(sv).hmm
        ssm_hmm = scalar_ssm(0.7, 1.2, 0.8, 0.3).hmm
        iid_hmm = iid_gaussian_spec(0.5, 2.0).hmm
        xs = np.linspace(-6.0, 6.0, 41)
        normal = models.normal_logpdf
        assert np.array_equal(sv_hmm.qx_logpdf(xs[:, None], xs[None, :]),
                              normal(xs[None, :] - sv.phi * xs[:, None], sv.sigma**2))
        assert np.array_equal(ssm_hmm.qx_logpdf(xs[:, None], xs[None, :]),
                              normal(xs[None, :] - 0.7 * xs[:, None], 0.8))
        for y in xs.tolist():
            assert np.array_equal(ssm_hmm.g_logpdf(xs, y), normal(y - 1.2 * xs, 0.3))
        rng = np.random.default_rng(16)
        for x, x1, y in (3.0 * rng.standard_normal((2000, 3))).tolist():
            assert sv_hmm.qx_logpdf(x, x1) == normal(x1 - sv.phi * x, sv.sigma**2)
            assert iid_hmm.g_logpdf(x, y) == normal(y - 0.5, 4.0)
            assert ssm_hmm.qx_logpdf(x, x1) == normal(x1 - 0.7 * x, 0.8)
            assert ssm_hmm.g_logpdf(x, y) == normal(y - 1.2 * x, 0.3)
            assert iid_hmm.qx_logpdf(x, x1) == normal(x1, 1.0)


def one_expression_normal(dev, var):
    """``normal_logpdf`` as one expression: the reference for its in-place form."""
    return -0.5 * (LOG2PI + np.log(var) + dev * dev / var)


def one_expression_sv_g(params, x, y):
    """``sv_g_logpdf`` as one expression: the reference for its in-place form."""
    b2 = params.beta**2
    return -0.5 * (LOG2PI + np.log(b2) + x + y * y * np.exp(-x) / b2)


class TestInPlaceDensities:
    """The log densities fill one fresh buffer in place and keep the one-expression values."""

    @staticmethod
    def assert_same_bits(got, want):
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_floats_arrays_and_integers(self):
        params = SvParams(1.1, 0.4, 0.93)
        rng = np.random.default_rng(23)
        a, b = 3.0 * rng.standard_normal((2, 300))
        cases = [
            (a, 2.5), (a, b * b), (a[:, None], (b * b)[None, :40]), (1.5, (b * b)[:30]),
            (0.7, 1.3), (np.float64(0.7), 1.3), (np.arange(3), 2.0), (np.arange(-4, 5), 3), (3, 2),
        ]
        for dev, var in cases:
            self.assert_same_bits(models.normal_logpdf(dev, var), one_expression_normal(dev, var))
        cases = [(a, b), (a[None, :], b[:40, None]), (a, 0.7), (0.3, b), (0.3, 0.7), (np.arange(-3, 4), np.arange(7)), (2, 3)]
        for x, y in cases:
            self.assert_same_bits(models.sv_g_logpdf(params, x, y), one_expression_sv_g(params, x, y))

    def test_read_only_inputs_are_not_written(self):
        params = SvParams(1.1, 0.4, 0.93)
        a, b = 3.0 * np.random.default_rng(24).standard_normal((2, 300))
        a.flags.writeable = b.flags.writeable = False
        a0, b0 = a.copy(), b.copy()
        self.assert_same_bits(models.normal_logpdf(a, b * b), one_expression_normal(a, b * b))
        self.assert_same_bits(models.sv_g_logpdf(params, a, b), one_expression_sv_g(params, a, b))
        self.assert_same_bits(models.sv_qx_logpdf(params, a, b), one_expression_normal(b - params.phi * a, params.sigma**2))
        assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


def random_hmm_spec(family, seed):
    """An HMM spec of ``family`` with parameters drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    u = rng.uniform
    if family == "sv":
        return sv_spec(SvParams(u(0.1, 3.0), u(0.05, 2.0), u(-0.99, 0.99)))
    if family == "ssm":
        return scalar_ssm(u(-0.99, 0.99), u(-3.0, 3.0), u(0.01, 5.0), u(0.01, 5.0))
    if family == "iid":
        return iid_gaussian_spec(u(-3.0, 3.0), u(0.1, 3.0))
    k, m = rng.integers(2, 5, size=2)
    # zero entries in P and G exercise -inf densities and zero-probability draws
    P, G = (rng.dirichlet(np.ones(c), size=k) * (rng.random((k, c)) > 0.3) for c in (k, m))
    P[:, 0] += 1e-3
    G[:, 0] += 1e-3
    return finite_hmm_spec(FiniteHmmParams(P / P.sum(1, keepdims=True), G / G.sum(1, keepdims=True)))


class TestBroadcastingHooks:
    """Every hook gives the same bits on one state as on an array of states."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(family=st.sampled_from(["sv", "ssm", "finite", "iid"]), seed=st.integers(0, 2**32 - 1))
    def test_scalar_call_equals_array_entry(self, family, seed):
        spec = random_hmm_spec(family, seed)
        hmm = spec.hmm
        rng = np.random.default_rng(seed)
        if family == "finite":
            k, m = spec.finite.G.shape
            x, x1, y = rng.integers(0, [[k], [k], [m]], (3, 500))
        else:
            x, x1, y = 3.0 * rng.standard_normal((3, 500))
        for hook, a, b in ((hmm.qx_logpdf, x, x1), (hmm.g_logpdf, x, y)):
            batch = hook(a, b)
            for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
                assert np.asarray(hook(ai, bi)).tobytes() == batch[i].tobytes()
        for draw_batch, draw_one in (
            (lambda r: hmm.qx_sample(x, r), lambda r: [hmm.qx_sample(v, r) for v in x.tolist()]),
            (lambda r: hmm.g_sample(x, r), lambda r: [hmm.g_sample(v, r) for v in x.tolist()]),
            (lambda r: hmm.stationary_x_sample(500, r), lambda r: [hmm.stationary_x_sample(1, r)[0] for _ in x]),
        ):
            r_batch, r_one = rngmod.substream(seed % 1000, 0), rngmod.substream(seed % 1000, 0)
            batch = draw_batch(r_batch)
            assert batch.shape == (500,)
            assert np.array(draw_one(r_one), dtype=batch.dtype).tobytes() == batch.tobytes()
            assert r_batch.random() == r_one.random()  # the same stream consumed


def random_linear_spec(family, p, q, seed):
    """A stable linear spec with state and observation dimensions (p, q), drawn from ``seed``.

    ``family`` is ``glm`` (correlated noise) or ``ssm`` (a state-space
    model embedded into the linear family).
    """
    rng = np.random.default_rng(seed)

    def stable(d):
        M = rng.normal(size=(d, d))
        return M * (rng.uniform(0.0, 0.99) / spectral_radius(M))

    def spd(d):
        A = rng.normal(size=(d, d))
        return A @ A.T + rng.uniform(0.05, 1.0) * np.eye(d)

    if family == "glm":
        return glm_spec(GlmParams(stable(p + q), spd(p + q), p, q))
    return ssm_spec(SsmParams(stable(p), rng.normal(size=(q, p)), spd(p), spd(q)))


def random_gaussian_inits(spec, seed):
    """``Stationary``, a point mass and a Gaussian law on the pair of ``spec``, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    p, q = spec.state_dim, spec.obs_dim
    A = rng.normal(size=(p + q, p + q))
    return (
        Stationary(),
        PointMass(2.0 * rng.normal(size=p), 2.0 * rng.normal(size=q)),
        GaussianOnZ(rng.normal(size=p + q), 0.5 * (A @ A.T)),
    )


def random_scalar_ssm(seed):
    """A ``scalar_ssm`` with stable ``a``, either sign of ``b`` and positive variances, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return scalar_ssm(rng.uniform(-0.999, 0.999), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0),
                      rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))


class TestLinearPath:
    """``simulate_complete`` on a linear spec draws the bytes of a ``sample_step`` loop.

    Scalar state-space specs take the plain-float recursion, every other
    linear spec the ``_matvec`` loop; both must give the loop's bytes.
    """

    def check(self, spec, init_kind, n, seed):
        p, q = spec.state_dim, spec.obs_dim
        custom = CustomInit(sampler=lambda rng: (rng.standard_normal(p), rng.standard_normal(q)))
        init = (*random_gaussian_inits(spec, seed), custom)[init_kind]
        traj = simulate_complete(spec, init, n, seed, stream=3)
        rng = rngmod.substream(seed, rngmod.SIMULATE, 3)
        z = _draw_initial(spec, init, rng)
        xs, ys = [z[0]], [z[1]]
        for _ in range(n):
            z = spec.sample_step(z, rng)
            xs.append(z[0])
            ys.append(z[1])
        for got, want in ((traj.x, np.stack(xs)), (traj.y, np.stack(ys))):
            assert got.flags.c_contiguous
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["glm", "ssm", "scalar"]),
        p=st.sampled_from([1, 2]),
        q=st.sampled_from([1, 2]),
        init_kind=st.sampled_from([0, 1, 2, 3]),
        n=st.sampled_from([1, 2, 9, 300]),
        seed=st.integers(0, 2**16),
    )
    @example(family="scalar", p=1, q=1, init_kind=1, n=300, seed=0)
    def test_block_path_equals_step_loop(self, family, p, q, init_kind, n, seed):
        spec = random_scalar_ssm(seed) if family == "scalar" else random_linear_spec(family, p, q, seed)
        self.check(spec, init_kind, n, seed)

    def test_float_path_only_for_a_zero_y_column(self):
        # a general 2 x 2 Phi and a p > 1 embedding keep the matvec loop, and still give the loop's bytes
        rng = np.random.default_rng(37)
        zero_column = rng.normal(size=(2, 2)) * [[0.0, 0.0], [1.0, 0.0]] + [[0.6, 0.0], [0.0, 0.0]]
        cases = [(glm_spec(random_stable_glm(rng)), False), (random_linear_spec("ssm", 2, 1, 5), False),
                 (random_linear_spec("glm", 1, 2, 6), False), (random_scalar_ssm(7), True),
                 (glm_spec(GlmParams(zero_column, np.array([[1.0, 0.3], [0.3, 0.5]]), 1, 1)), True)]
        for spec, on_floats in cases:
            assert (models._float_phi(spec.glm) is not None) == on_floats
            for seed in range(8):
                self.check(spec, seed % 4, 200, seed)

    def test_float_rows_keep_signed_zeros(self):
        # ``0.0 + p0 x + p1 y`` against the matrix product, on signed zeros, tiny and huge entries
        vals = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 3.7, 1e150, -1e150]
        for p0, p1, x, y in itertools.product(vals, [0.0, -0.0], vals, vals):
            want = models._matvec(np.array([[p0, p1], [p0, p1]]), np.array([x, y]))
            assert np.array([0.0 + p0 * x + p1 * y] * 2).tobytes() == want.tobytes()


class TestIidSpecialization:
    def test_transition_independent_of_state(self):
        spec = iid_gaussian_spec(0.5, 2.0)
        z1 = (np.array([0.3]), np.array([1.0]))
        assert spec.trans_logpdf((np.array([-5.0]), np.array([2.0])), z1) == spec.trans_logpdf(
            (np.array([7.0]), np.array([-2.0])), z1
        )

    def test_observation_moments(self):
        spec = iid_gaussian_spec(0.5, 2.0)
        traj = simulate_complete(spec, PointMass(0.0, 0.0), 50_000, seed=21)
        ys = traj.y[1:, 0]
        assert abs(ys.mean() - 0.5) < 3 * 2.0 / np.sqrt(len(ys))
        assert abs(ys.var() - 4.0) < 3 * 4.0 * np.sqrt(2.0 / len(ys))


def family_specs():
    """One spec per family and shape: the linear family, state-space models with p or q above 1, and the HMMs."""
    rng = np.random.default_rng(31)
    return {
        "glm": glm_spec(random_stable_glm(rng)),
        "glm_p2": glm_spec(random_stable_glm(rng, d=3, p=2, q=1)),
        "glm_q2": glm_spec(random_stable_glm(rng, d=3, p=1, q=2)),
        "ssm": scalar_ssm(0.7, 1.2, 0.8, 0.3),
        "ssm_p2": ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]])),
        "ssm_q2": ssm_spec(SsmParams([[0.7]], [[1.0], [-0.4]], [[0.8]], [[0.3, 0.1], [0.1, 0.5]])),
        **hmm_family_specs(),
    }


def random_pairs(spec, rng, n):
    """``n`` pairs ``(x, y)``: arrays of shape (n, state_dim) and (n, obs_dim)."""
    if spec.finite is not None:
        k, m = spec.finite.G.shape
        return rng.integers(0, k, (n, 1)), rng.integers(0, m, (n, 1))
    return 3.0 * rng.standard_normal((n, spec.state_dim)), 3.0 * rng.standard_normal((n, spec.obs_dim))


class TestBroadcastingTransition:
    """Every family's ``trans_logpdf`` and ``sample_step`` broadcast over pairs."""

    def test_array_of_pairs_equals_per_pair_calls(self):
        rng = np.random.default_rng(32)
        for name, spec in family_specs().items():
            z, z1 = random_pairs(spec, rng, 300), random_pairs(spec, rng, 300)
            batch = spec.trans_logpdf(z, z1)
            assert batch.shape == (300,), name
            per_pair = [spec.trans_logpdf((z[0][i], z[1][i]), (z1[0][i], z1[1][i])) for i in range(300)]
            assert all(type(v) is float for v in per_pair)
            assert np.array(per_pair).tobytes() == batch.tobytes(), name
            # any batch shape: a grid of pairs against one pair
            grid = spec.trans_logpdf((z[0].reshape(20, 15, -1), z[1].reshape(20, 15, -1)), (z1[0][0], z1[1][0]))
            assert grid.shape == (20, 15)
            assert grid.ravel().tobytes() == np.array([spec.trans_logpdf((z[0][i], z[1][i]), (z1[0][0], z1[1][0]))
                                                       for i in range(300)]).tobytes(), name

    def test_vector_state_space_hooks_are_batch_invariant(self):
        rng, specs = np.random.default_rng(33), family_specs()
        for name in ("ssm_p2", "ssm_q2"):
            spec = specs[name]
            hmm, p, q = spec.hmm, spec.ssm.p, spec.ssm.q

            def states(n):
                return 3.0 * rng.standard_normal((n, p) if p > 1 else n)

            # an observation keeps its trailing axis unless the factor is scalar (p = q = 1)
            x, x1, y = states(500), states(500), 3.0 * rng.standard_normal((500, q))
            for hook, a, b in ((hmm.qx_logpdf, x, x1), (hmm.g_logpdf, x, y)):
                batch = hook(a, b)
                assert batch.shape == (500,)
                assert np.array([hook(a[i], b[i]) for i in range(500)]).tobytes() == batch.tobytes(), name
            for draw in (hmm.qx_sample, hmm.g_sample):
                r_batch, r_one = rngmod.substream(9, 0), rngmod.substream(9, 0)
                batch = draw(x, r_batch)
                assert np.array([draw(x[i], r_one) for i in range(500)]).tobytes() == batch.tobytes(), name
                assert r_batch.random() == r_one.random()

    def test_linear_sample_step_draws_the_pairs_in_turn(self):
        rng, specs = np.random.default_rng(34), family_specs()
        for name in ("glm", "glm_p2", "glm_q2", "ssm", "ssm_p2", "ssm_q2"):
            spec = specs[name]
            z = random_pairs(spec, rng, 200)
            r_batch, r_one = rngmod.substream(10, 0), rngmod.substream(10, 0)
            x1, y1 = spec.sample_step(z, r_batch)
            assert x1.shape == (200, spec.state_dim) and y1.shape == (200, spec.obs_dim)
            for i in range(200):
                xi, yi = spec.sample_step((z[0][i], z[1][i]), r_one)
                assert (xi.tobytes(), yi.tobytes()) == (x1[i].tobytes(), y1[i].tobytes()), name
            assert r_batch.random() == r_one.random()

    def test_hmm_blocks_draw_every_state_then_every_observation(self):
        # the HMM step and stationary block draw x for every pair, then y for every pair, through the hooks
        rng, specs = np.random.default_rng(36), hmm_family_specs()
        for name, spec in specs.items():
            hmm = spec.hmm
            z = random_pairs(spec, rng, 200)
            r_spec, r_hooks = rngmod.substream(11, 0), rngmod.substream(11, 0)
            x1, y1 = spec.sample_step(z, r_spec)
            want_x1 = hmm.qx_sample(z[0][:, 0], r_hooks)
            want_y1 = hmm.g_sample(want_x1, r_hooks)
            assert x1.shape == y1.shape == (200, 1), name
            assert (x1.tobytes(), y1.tobytes()) == (want_x1[:, None].tobytes(), want_y1[:, None].tobytes()), name
            x0, y0 = spec.sample_stationary(300, r_spec)
            want_x0 = hmm.stationary_x_sample(300, r_hooks)
            want_y0 = hmm.g_sample(want_x0, r_hooks)
            assert x0.shape == y0.shape == (300, 1), name
            assert (x0.tobytes(), y0.tobytes()) == (want_x0[:, None].tobytes(), want_y0[:, None].tobytes()), name
            assert r_spec.random() == r_hooks.random()

    def test_stationary_blocks_have_the_spec_shapes(self):
        for name, spec in family_specs().items():
            x, y = spec.sample_stationary(7, rngmod.substream(12, 0))
            assert (x.shape, y.shape) == ((7, spec.state_dim), (7, spec.obs_dim)), name

    def test_linear_transition_is_the_written_out_gaussian(self):
        # log N(z'; Phi z, R) by a dense solve, to float accuracy
        rng, specs = np.random.default_rng(35), family_specs()
        for name in ("glm", "glm_p2", "glm_q2", "ssm_p2", "ssm_q2"):
            spec = specs[name]
            Phi, R = spec.glm.Phi, spec.glm.R
            z, z1 = random_pairs(spec, rng, 50), random_pairs(spec, rng, 50)
            dev = np.hstack(z1) - np.hstack(z) @ Phi.T
            want = -0.5 * (len(R) * LOG2PI + np.linalg.slogdet(R)[1] + np.sum(dev * np.linalg.solve(R, dev.T).T, axis=1))
            np.testing.assert_allclose(spec.trans_logpdf(z, z1), want, rtol=1e-12, atol=0)
