"""Expected-KLD functionals: closed forms against the Monte Carlo oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pommkit import (
    FiniteHmmParams,
    GlmParams,
    SvParams,
    delta_bar_hmm,
    delta_glm_closed,
    delta_sv_closed,
    finite_hmm_spec,
    gaussian_kl,
    glm_spec,
    glm_stationary_cov,
    iid_gaussian_spec,
    information_denseness_profile,
    scalar_ssm,
    step_kld_mc,
    sv_spec,
    uniform_grid_1d,
)
from pommkit import rng as rngmod
from pommkit.divergence import delta_bar_finite_exact, write_denseness_csv
from pommkit.models import finite_hmm_stationary, sv_g_logpdf, sv_g_sample, sv_qx_logpdf, sv_qx_sample
from pommkit.models import sv_stationary_x_sample
from tests.test_models import hmm_family_specs, random_linear_spec, random_stable_glm


def agrees(value, estimate, atol=1e-12):
    """|value - estimate| within three standard errors plus float noise."""
    return abs(value - estimate.value) <= 3.0 * (estimate.se or 0.0) + atol


class TestWorkedValues:
    def test_variance_only_case(self):
        star = GlmParams(np.zeros((2, 2)), np.eye(2), 1, 1)
        other = GlmParams(np.zeros((2, 2)), 2 * np.eye(2), 1, 1)
        assert abs(delta_glm_closed(star, other).value - 0.5 * (np.log(4) - 1.0)) < 1e-14

    def test_mean_only_case(self):
        star = GlmParams(np.zeros((2, 2)), np.eye(2), 1, 1)
        other = GlmParams(np.diag([0.5, 0.0]), np.eye(2), 1, 1)
        assert abs(delta_glm_closed(star, other).value - 0.125) < 1e-14

    def test_sv_beta_doubling(self):
        star = SvParams(1.0, 0.5, 0.9)
        other = SvParams(2.0, 0.5, 0.9)
        assert abs(delta_sv_closed(star, other).value - (np.log(2) - 3.0 / 8.0)) < 1e-14

    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        glm = random_stable_glm(rng)
        assert delta_glm_closed(glm, glm).value == 0.0
        sv = SvParams(1.7, 0.4, -0.3)
        assert delta_sv_closed(sv, sv).value == 0.0


def two_slogdet_delta(star, other):
    """``delta_glm_closed``'s value by its formula with ``hstack`` and one ``slogdet`` per record per call."""
    gamma = glm_stationary_cov(star)
    dphi = other.Phi - star.Phi
    d = len(dphi)
    solved = np.linalg.solve(other.R, np.hstack([star.R - other.R, dphi @ gamma]))
    trace_term = float(np.trace(solved[:, :d]))
    logdet_term = float(np.linalg.slogdet(star.R)[1] - np.linalg.slogdet(other.R)[1])
    quad_term = float(np.trace(dphi.T @ solved[:, d:]))
    return 0.5 * (trace_term - logdet_term + quad_term)


SCALAR_POINT = st.tuples(st.floats(-0.99, 0.99), st.floats(-3.0, 3.0), st.floats(0.05, 5.0), st.floats(0.05, 5.0))


class TestClosedFormBits:
    """Kept log determinants, read from the record or filled by a scalar build, keep the formula's bits."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(star=SCALAR_POINT, other=SCALAR_POINT, same_triple=st.booleans(), seed=st.integers(0, 2**16))
    @example(star=(0.5, 1.0, 1.0, 0.2), other=(-0.9, 1.0, 1.0, 0.2), same_triple=True, seed=0)
    def test_equals_the_two_slogdet_formula(self, star, other, same_triple, seed):
        if same_triple:
            other = (other[0], *star[1:])
        pairs = [(scalar_ssm(*star).glm, scalar_ssm(*other).glm)]
        pairs += [(random_linear_spec(family, p, q, seed).glm, random_linear_spec(family, p, q, seed + 1).glm)
                  for family, p, q in (("ssm", 2, 1), ("glm", 1, 1), ("glm", 2, 2))]
        for s, o in pairs:
            want = np.float64(two_slogdet_delta(s, o)).tobytes()
            fresh = [GlmParams(r.Phi, r.R, r.p, r.q) for r in (s, o)]  # records that compute their own
            for _ in range(2):  # the second call reads what the first kept
                assert np.float64(delta_glm_closed(s, o).value).tobytes() == want
                assert np.float64(delta_glm_closed(*fresh).value).tobytes() == want
            for record in (s, o):  # a kept log determinant is slogdet's, which the sum above can round away
                assert np.float64(record._logdet_R).tobytes() == np.linalg.slogdet(record.R)[1].tobytes()


class TestMonteCarloOracle:
    def test_zero_at_reference(self):
        glm = random_stable_glm(np.random.default_rng(1))
        est = step_kld_mc(glm_spec(glm), glm_spec(glm), draws=10_000, seed=1)
        assert agrees(0.0, est)

    def test_glm_closed_form_matches(self):
        rng = np.random.default_rng(2)
        for i in range(8):
            star, other = random_stable_glm(rng), random_stable_glm(rng)
            closed = delta_glm_closed(star, other).value
            est = step_kld_mc(glm_spec(star), glm_spec(other), draws=200_000, seed=100 + i)
            assert agrees(closed, est)

    def test_inner_log_ratio_route_matches(self):
        rng = np.random.default_rng(3)
        star, other = random_stable_glm(rng), random_stable_glm(rng)
        closed = delta_glm_closed(star, other).value
        est = step_kld_mc(glm_spec(star), glm_spec(other), draws=400_000, seed=7, inner="logratio")
        assert agrees(closed, est)

    def test_quadratic_term_orientation(self):
        # the inverse innovation covariance must sit between the two
        # transition-matrix differences; the other grouping of the trace
        # is rejected by the Monte Carlo oracle
        rng = np.random.default_rng(8)
        star, other = random_stable_glm(rng), random_stable_glm(rng)
        gamma = glm_stationary_cov(star)
        dphi = other.Phi - star.Phi
        alt_quad = np.trace(np.linalg.solve(other.R, dphi.T @ dphi @ gamma))
        good_quad = np.trace(dphi.T @ np.linalg.solve(other.R, dphi @ gamma))
        alt_value = delta_glm_closed(star, other).value + 0.5 * (alt_quad - good_quad)
        est = step_kld_mc(glm_spec(star), glm_spec(other), draws=400_000, seed=9)
        assert agrees(delta_glm_closed(star, other).value, est)
        assert abs(alt_value - est.value) > 6.0 * est.se

    def test_sv_closed_form_matches(self):
        rng = np.random.default_rng(4)
        for i in range(8):
            star = SvParams(rng.uniform(0.5, 2), rng.uniform(0.2, 1), rng.uniform(-0.9, 0.9))
            other = SvParams(rng.uniform(0.5, 2), rng.uniform(0.2, 1), rng.uniform(-0.9, 0.9))
            closed = delta_sv_closed(star, other).value
            est = step_kld_mc(sv_spec(star), sv_spec(other), draws=200_000, seed=200 + i)
            assert agrees(closed, est)

    def test_generic_route_on_custom_spec(self):
        star = iid_gaussian_spec(0.0, 1.0)
        other = iid_gaussian_spec(0.4, 1.5)
        exact = gaussian_kl([0.0], [[1.0]], [0.4], [[2.25]])
        est = step_kld_mc(star, other, draws=20_000, seed=5)
        assert agrees(exact, est)

    def test_hmm_pairs_draw_in_blocks_through_the_hooks(self):
        # every x0, then every y0, then every x1, then every y1 on the reference stream;
        # on SV these are the family's own samplers and densities, bit for bit
        star, other = SvParams(1.0, 0.3, 0.9), SvParams(1.2, 0.4, 0.8)
        rng = rngmod.substream(3, rngmod.KLD_OUTER)
        x0 = sv_stationary_x_sample(star, 2000, rng)
        sv_g_sample(star, x0, rng)  # y0: drawn with the stationary pair, read by no HMM density
        x1 = sv_qx_sample(star, x0, rng)
        y1 = sv_g_sample(star, x1, rng)
        num, den = (sv_qx_logpdf(p, x0, x1) + sv_g_logpdf(p, x1, y1) for p in (star, other))
        est = step_kld_mc(sv_spec(star), sv_spec(other), draws=2000, seed=3)
        assert est.value == (num - den).mean()
        assert est.se == (num - den).std(ddof=1) / np.sqrt(2000)
        # the same order through the hooks of every HMM family
        specs = hmm_family_specs()
        for star_spec, other in ((specs["sv"], specs["iid"]),
                                 (specs["finite"], finite_hmm_spec(FiniteHmmParams([[0.5, 0.3, 0.2]] * 3, [[0.5, 0.5]] * 3))),
                                 (specs["iid"], iid_gaussian_spec(0.3, 1.5))):
            h, ho = star_spec.hmm, other.hmm
            rng = rngmod.substream(4, rngmod.KLD_OUTER)
            x0 = h.stationary_x_sample(500, rng)
            h.g_sample(x0, rng)
            x1 = h.qx_sample(x0, rng)
            y1 = h.g_sample(x1, rng)
            lr = h.qx_logpdf(x0, x1) + h.g_logpdf(x1, y1) - (ho.qx_logpdf(x0, x1) + ho.g_logpdf(x1, y1))
            est = step_kld_mc(star_spec, other, draws=500, seed=4)
            assert (est.value, est.se) == (lr.mean(), lr.std(ddof=1) / np.sqrt(500))

    def test_mixed_family_pair_matches_closed_form(self):
        # a linear model against the i.i.d. HMM, both ways round: the other transition is
        # N(m, S) with m = (0, mu) and S = diag(1, sd^2) whatever the current state
        Phi, R = np.array([[0.6, 0.2], [0.3, 0.4]]), np.array([[1.0, 0.3], [0.3, 0.8]])
        mu, sd = 0.4, 1.3
        m, S = np.array([0.0, mu]), np.diag([1.0, sd * sd])
        lin, iid = glm_spec(GlmParams(Phi, R, 1, 1)), iid_gaussian_spec(mu, sd)
        gamma = glm_stationary_cov(lin.glm)
        Si, Ri = np.linalg.inv(S), np.linalg.inv(R)
        logdet_ratio = np.linalg.slogdet(S)[1] - np.linalg.slogdet(R)[1]
        # z0 ~ N(0, Gamma) and z1 | z0 ~ N(Phi z0, R) against N(m, S)
        lin_first = 0.5 * (np.trace(Si @ R) - 2 + logdet_ratio + np.trace(Si @ Phi @ gamma @ Phi.T) + m @ Si @ m)
        # gaussian_kl(Phi z0, R, m, S) averaged over z0: the mean term's expectation adds tr(S^-1 Phi Gamma Phi^T)
        assert abs(lin_first - gaussian_kl([0, 0], R, m, S) - 0.5 * np.trace(Si @ Phi @ gamma @ Phi.T)) < 1e-12
        # z0 ~ N(m, S) (y0 counts here) and z1 ~ N(m, S) against N(Phi z0, R)
        dev = (Phi - np.eye(2)) @ m
        iid_first = 0.5 * (np.trace(Ri @ S) - 2 - logdet_ratio + np.trace(Ri @ Phi @ S @ Phi.T) + dev @ Ri @ dev)
        assert abs(iid_first - gaussian_kl(m, S, Phi @ m, R) - 0.5 * np.trace(Ri @ Phi @ S @ Phi.T)) < 1e-12
        for star, other, exact in ((lin, iid, lin_first), (iid, lin, iid_first)):
            est = step_kld_mc(star, other, draws=100_000, seed=21)
            assert est.method == "mc" and agrees(exact, est), (est, exact)

    def test_mixed_family_pair_evaluates_each_density_once(self):
        calls = []

        def counted(spec, name):
            def trans_logpdf(z, z_next):
                calls.append((name, np.shape(z[0])))
                return spec.trans_logpdf(z, z_next)

            return dataclasses.replace(spec, trans_logpdf=trans_logpdf)

        star = counted(glm_spec(GlmParams([[0.6, 0.2], [0.3, 0.4]], np.eye(2), 1, 1)), "star")
        other = counted(sv_spec(SvParams(1.0, 0.5, 0.9)), "other")
        step_kld_mc(star, other, draws=3000, seed=22)
        assert sorted(calls) == [("other", (3000, 1)), ("star", (3000, 1))]

    def test_models_of_different_dimensions_rejected(self):
        lin3 = glm_spec(random_stable_glm(np.random.default_rng(23), d=3, p=2, q=1))
        with pytest.raises(ValueError, match="different"):
            step_kld_mc(lin3, sv_spec(SvParams(1.0, 0.5, 0.9)), draws=100)

    def test_linear_pairs_draw_and_evaluate_through_the_specs(self):
        # every z0 from the stationary sampler, every z1 from the broadcasting step, then
        # trans_logpdf on each side; the closed inner KLD reads the same z0
        rng = np.random.default_rng(13)
        for d, p, q in ((2, 1, 1), (3, 2, 1), (3, 1, 2)):
            star, other = (glm_spec(random_stable_glm(rng, d=d, p=p, q=q)) for _ in range(2))
            r = rngmod.substream(6, rngmod.KLD_OUTER)
            z0 = star.sample_stationary(3000, r)
            z1 = star.sample_step(z0, r)
            lr = star.trans_logpdf(z0, z1) - other.trans_logpdf(z0, z1)
            est = step_kld_mc(star, other, draws=3000, seed=6, inner="logratio")
            assert (est.value, est.se) == (lr.mean(), lr.std(ddof=1) / np.sqrt(3000))
            dphi, Rinv = other.glm.Phi - star.glm.Phi, np.linalg.inv(other.glm.R)
            dev = np.hstack(z0) @ dphi.T
            inner = gaussian_kl(np.zeros(d), star.glm.R, np.zeros(d), other.glm.R) + 0.5 * np.einsum("ni,ij,nj->n", dev, Rinv, dev)
            assert step_kld_mc(star, other, draws=3000, seed=6).value == inner.mean()

    def test_finite_pair_matches_exact_sum(self):
        P1, G1 = np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])
        P2, G2 = np.array([[0.5, 0.5], [0.4, 0.6]]), np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
        pi = finite_hmm_stationary(FiniteHmmParams(P1, G1))
        # sum over x0, x1, y1 of pi(x0) P1(x0, x1) G1(x1, y1) log of the transition density ratio
        joint = pi[:, None, None] * P1[:, :, None] * G1[None, :, :]
        exact = float(np.sum(joint * np.log((P1[:, :, None] * G1[None, :, :]) / (P2[:, :, None] * G2[None, :, :]))))
        est = step_kld_mc(finite_hmm_spec(FiniteHmmParams(P1, G1)), finite_hmm_spec(FiniteHmmParams(P2, G2)),
                          draws=20_000, seed=8)
        assert agrees(exact, est)

    def test_finite_support_mismatch_is_infinite(self):
        star = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]))
        other = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]))
        est = step_kld_mc(star, other, draws=1000, seed=4)
        assert est.value == np.inf and est.flags == ("support_mismatch",)

    def test_se_scaling(self):
        rng = np.random.default_rng(6)
        star, other = random_stable_glm(rng), random_stable_glm(rng)
        se1 = step_kld_mc(glm_spec(star), glm_spec(other), draws=20_000, seed=11).se
        se2 = step_kld_mc(glm_spec(star), glm_spec(other), draws=80_000, seed=11).se
        assert 0.8 * se1 / 2 < se2 < 1.2 * se1 / 2

    def test_nonnegative_up_to_noise(self):
        rng = np.random.default_rng(7)
        for i in range(10):
            star, other = random_stable_glm(rng), random_stable_glm(rng)
            est = step_kld_mc(glm_spec(star), glm_spec(other), draws=50_000, seed=300 + i)
            assert est.value >= -3.0 * est.se


class TestBlockEstimatorProperty:
    """Over random stable pairs the block log-ratio estimator agrees with the closed forms within 5 se."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), d=st.sampled_from([(2, 1, 1), (3, 2, 1), (3, 1, 2)]))
    def test_linear_pairs(self, seed, d):
        rng = np.random.default_rng(seed)
        star, other = (random_stable_glm(rng, *d) for _ in range(2))
        est = step_kld_mc(glm_spec(star), glm_spec(other), draws=20_000, seed=seed, inner="logratio")
        assert abs(est.value - delta_glm_closed(star, other).value) <= 5.0 * est.se

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        star=st.tuples(st.floats(0.5, 2.0), st.floats(0.2, 1.0), st.floats(-0.95, 0.95)),
        other=st.tuples(st.floats(0.5, 2.0), st.floats(0.2, 1.0), st.floats(-0.95, 0.95)),
        seed=st.integers(0, 2**16),
    )
    def test_sv_pairs(self, star, other, seed):
        star, other = SvParams(*star), SvParams(*other)
        est = step_kld_mc(sv_spec(star), sv_spec(other), draws=20_000, seed=seed)
        assert abs(est.value - delta_sv_closed(star, other).value) <= 5.0 * est.se


class TestSvContinuityAtReference:
    def test_shrinking_radius_brings_divergence_below_threshold(self):
        star = SvParams(1.0, 0.5, 0.3)
        rng = np.random.default_rng(12)
        max_at_radius = []
        for radius in (0.4, 0.2, 0.1, 0.05, 0.01):
            worst = 0.0
            for _ in range(200):
                d = rng.normal(size=3)
                d *= radius / np.linalg.norm(d)
                other = SvParams(star.beta + d[0], star.sigma + d[1], star.phi + d[2])
                worst = max(worst, delta_sv_closed(star, other).value)
            max_at_radius.append(worst)
        assert all(a >= b for a, b in zip(max_at_radius, max_at_radius[1:]))
        assert max_at_radius[-1] <= 0.01


class TestEmissionLevelDivergence:
    def test_finite_exact_double_sum(self):
        rng = np.random.default_rng(13)
        P1 = rng.dirichlet(np.ones(2), size=2)
        P2 = rng.dirichlet(np.ones(2), size=2)
        G1 = rng.dirichlet(np.ones(3), size=2)
        G2 = rng.dirichlet(np.ones(3), size=2)
        star, other = FiniteHmmParams(P1, G1), FiniteHmmParams(P2, G2)
        from pommkit import finite_hmm_stationary

        pi_s, pi_o = finite_hmm_stationary(star), finite_hmm_stationary(other)
        expected = 0.0
        for i in range(2):
            for j in range(2):
                kl = np.sum(G1[i] * (np.log(G1[i]) - np.log(G2[j])))
                expected += pi_s[i] * pi_o[j] * kl
        got = delta_bar_hmm(finite_hmm_spec(star), finite_hmm_spec(other))
        assert got.se is None and abs(got.value - expected) < 1e-12
        # at the reference parameter the value is reported, not forced to
        # zero: the two state arguments are independent copies
        self_value = delta_bar_finite_exact(star, star).value
        assert np.isfinite(self_value) and self_value >= 0.0

    def test_iid_collapse(self):
        # emission ignores the state: both divergence notions equal the
        # plain emission KLD
        star = iid_gaussian_spec(0.0, 1.0)
        other = iid_gaussian_spec(0.5, 1.3)
        exact = gaussian_kl([0.0], [[1.0]], [0.5], [[1.69]])
        full = step_kld_mc(star, other, draws=20_000, seed=14)
        emission = delta_bar_hmm(star, other, draws=20_000, seed=15)
        assert agrees(exact, full)
        assert agrees(exact, emission)

    def test_generic_pairs_equal_a_per_draw_loop(self):
        # one emission draw and two log densities per pair of states, in order
        for star, other in ((iid_gaussian_spec(0.0, 1.0), iid_gaussian_spec(0.5, 1.3)),
                            (scalar_ssm(0.6, 1.0, 1.0, 0.3), scalar_ssm(0.4, 1.2, 0.8, 0.5))):
            rng = rngmod.substream(19, rngmod.KLD_OUTER, 1)
            xs = star.hmm.stationary_x_sample(500, rng).tolist()
            xo = other.hmm.stationary_x_sample(500, rng).tolist()
            samples = []
            for x, x_other in zip(xs, xo):
                y = star.hmm.g_sample(x, rng)
                samples.append(star.hmm.g_logpdf(x, y) - other.hmm.g_logpdf(x_other, y))
            samples = np.array(samples)
            est = delta_bar_hmm(star, other, draws=500, seed=19)
            assert est.value == samples.mean()
            assert est.se == samples.std(ddof=1) / np.sqrt(500)

    def test_iid_identity_is_zero(self):
        star = iid_gaussian_spec(1.0, 2.0)
        est = delta_bar_hmm(star, star, draws=10_000, seed=16)
        assert agrees(0.0, est)

    def test_sv_reference_value_is_reported_not_assumed_zero(self):
        # integrating the two state arguments against independent copies
        # of the same marginal does not force the value to vanish
        star = sv_spec(SvParams(1.0, 0.5, 0.9))
        est = delta_bar_hmm(star, star, draws=100_000, seed=17)
        assert np.isfinite(est.value)
        assert est.value > 3.0 * est.se  # strictly positive here

    def test_requires_factorization(self):
        glm = glm_spec(random_stable_glm(np.random.default_rng(18)))
        with pytest.raises(ValueError):
            delta_bar_hmm(glm, glm)


class TestDensenessProfile:
    def grid_with_divergences(self):
        grid = uniform_grid_1d(-0.9, 0.9, 181)
        a_star = float(grid.points[140, 0])  # the reference sits exactly on the grid
        star = GlmParams(np.array([[a_star, 0.0], [a_star, 0.0]]), np.array([[1.0, 1.0], [1.0, 1.2]]), 1, 1)
        divs = []
        for a in grid.points[:, 0]:
            other = GlmParams(np.array([[a, 0.0], [a, 0.0]]), star.R, 1, 1)
            divs.append(delta_glm_closed(star, other).value)
        return grid, np.array(divs)

    def test_infinite_threshold_gives_full_mass(self):
        grid, divs = self.grid_with_divergences()
        rows = information_denseness_profile(grid, divs, [np.inf])
        assert rows[0].prior_mass == 1.0

    def test_zero_threshold_keeps_reference_cell(self):
        grid, divs = self.grid_with_divergences()
        rows = information_denseness_profile(grid, divs, [0.0])
        assert rows[0].prior_mass >= 1.0 / len(grid) - 1e-15

    def test_positive_mass_at_small_thresholds(self):
        grid, divs = self.grid_with_divergences()
        rows = information_denseness_profile(grid, divs, [1e-1, 1e-2, 1e-3])
        assert all(r.prior_mass > 0.0 and r.flag == "" for r in rows)

    def test_zero_mass_flagged(self):
        grid, divs = self.grid_with_divergences()
        rows = information_denseness_profile(grid, divs + 1.0, [1e-6])
        assert rows[0].flag == "zero_mass"

    def test_nan_divergence_or_threshold_rejected(self):
        grid, divs = self.grid_with_divergences()
        bad = divs.copy()
        bad[7] = np.nan
        with pytest.raises(ValueError, match="divergences and deltas must not be NaN"):
            information_denseness_profile(grid, bad, [1e-1])
        with pytest.raises(ValueError, match="divergences and deltas must not be NaN"):
            information_denseness_profile(grid, divs, [1e-1, np.nan])
        assert information_denseness_profile(grid, np.full(len(grid), np.inf), [1.0])[0].flag == "zero_mass"

    def test_csv_round_trip(self, tmp_path):
        grid, divs = self.grid_with_divergences()
        rows = information_denseness_profile(grid, divs, [0.1, 0.01])
        path = tmp_path / "profile.csv"
        write_denseness_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delta,prior_mass,flag"
        assert len(lines) == 3
