"""Likelihood evaluators against each other and against closed forms."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    SvThetaBox,
    b6_audit_sv,
    bpf_loglik,
    conditional_entropy_sequence,
    delta_bar_hmm,
    enumeration_loglik,
    envelope_validity_audit,
    finite_hmm_spec,
    forward_loglik,
    glm_spec,
    grid_increments,
    iid_gaussian_spec,
    increments,
    kalman_increments,
    kalman_loglik,
    loglik,
    project_observations,
    quadrature_loglik,
    scalar_ssm,
    simulate_complete,
    ssm_spec,
    step_kld_mc,
    sv_spec,
    tightness_audit_sv,
)
from pommkit.audit import b6_entropy_floor_sv
from pommkit import likelihood
from pommkit.core import UnsupportedInitError
from pommkit.likelihood import (
    _scalar_kalman_increments,
    _transition_kernel,
    forward_increments,
    ssm_kalman_increments,
    ssm_kalman_loglik,
)
from pommkit.models import glm_stationary_cov, normal_logpdf
from tests.test_models import one_expression_normal, one_expression_sv_g, random_gaussian_inits, random_linear_spec


def simulated_obs(spec, n, seed, init=None):
    return project_observations(simulate_complete(spec, init or Stationary(), n, seed))


class TestKalman:
    def test_iid_closed_form(self):
        # A=0, B=1, Qz=Qx=1: observations are i.i.d. N(0, 2)
        spec = scalar_ssm(0.0, 1.0, 1.0, 1.0)
        ll = kalman_loglik(spec, np.array([0.0]), Stationary())
        assert abs(ll.value - (-0.5 * np.log(4 * np.pi))) < 1e-14
        ys = np.array([0.3, -1.2, 0.7])
        ll3 = kalman_loglik(spec, ys, Stationary()).value
        direct = np.sum(-0.5 * (np.log(4 * np.pi) + ys**2 / 2.0))
        assert abs(ll3 - direct) < 1e-12

    def test_chain_rule(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 30, seed=2)
        inc = kalman_increments(spec, ys, Stationary())
        for n in (1, 7, 30):
            assert abs(kalman_loglik(spec, ys[:n], Stationary()).value - inc[:n].sum()) < 1e-12

    def test_empty_observation_convention(self):
        spec = scalar_ssm(0.5)
        assert kalman_loglik(spec, np.empty((0, 1)), Stationary()).value == 0.0

    def test_non_gaussian_init_rejected(self):
        spec = scalar_ssm(0.5)
        from pommkit import CustomInit

        with pytest.raises(UnsupportedInitError):
            kalman_loglik(spec, np.array([0.1]), CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1))))


class TestQuadratureOracle:
    def test_matches_kalman_on_scalar_ssm(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        for seed in (3, 4):
            ys = simulated_obs(spec, 5, seed=seed)
            k = kalman_loglik(spec, ys, Stationary()).value
            q = quadrature_loglik(spec, ys, Stationary(), nodes=2001).value
            assert abs(k - q) < 1e-6

    def test_matches_kalman_full_transition_matrix(self):
        # a linear model whose transition really uses the past observation
        params = GlmParams(np.array([[0.5, 0.2], [-0.3, 0.4]]), np.array([[1.0, 0.3], [0.3, 0.8]]), 1, 1)
        spec = glm_spec(params)
        ys = simulated_obs(spec, 4, seed=5)
        k = kalman_loglik(spec, ys, Stationary()).value
        q = quadrature_loglik(spec, ys, Stationary(), nodes=1601).value
        assert abs(k - q) < 1e-6

    def test_matches_kalman_point_mass_init(self):
        spec = scalar_ssm(0.6, 1.0, 1.0, 0.5)
        init = PointMass(1.5, 0.0)
        ys = simulated_obs(spec, 4, seed=6, init=init)
        k = kalman_loglik(spec, ys, init).value
        q = quadrature_loglik(spec, ys, init, nodes=2001).value
        assert abs(k - q) < 1e-6

    def test_node_doubling_stability(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 2, seed=7)
        q1 = quadrature_loglik(spec, ys, Stationary(), nodes=2001).value
        q2 = quadrature_loglik(spec, ys, Stationary(), nodes=4001).value
        assert abs(q1 - q2) < 1e-8

    def test_long_sequences_rejected(self):
        spec = scalar_ssm(0.5)
        with pytest.raises(ValueError):
            quadrature_loglik(spec, np.zeros(9), Stationary())

    def test_spec_without_vectorized_hooks_rejected(self):
        ys = np.array([0.3, -0.4])
        ssm = scalar_ssm(0.5)
        # the transition comes from the hook, not from the family's parameters
        full = quadrature_loglik(ssm, ys, Stationary(), nodes=101)
        assert quadrature_loglik(replace(ssm, ssm=None), ys, Stationary(), nodes=101) == full

    def test_point_mass_is_a_gaussian_with_zero_covariance(self):
        # one branch integrates both: a point mass is x0 ~ N(x0, 0)
        for spec in (sv_spec(SvParams(1.0, 0.3, 0.9)), scalar_ssm(0.6, 1.0, 1.0, 0.5)):
            ys = simulated_obs(spec, 5, seed=8)
            for x0, y0 in ((1.5, 0.0), (-0.4, 2.0)):
                for n in (5, 1):
                    want = quadrature_loglik(spec, ys[:n], PointMass(x0, y0), nodes=401)
                    assert quadrature_loglik(spec, ys[:n], GaussianOnZ([x0, y0], np.zeros((2, 2))), nodes=401) == want

    def test_custom_init_rejected(self):
        init = CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1)))
        linear = glm_spec(GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))
        for spec in (sv_spec(SvParams(1.0, 0.3, 0.9)), scalar_ssm(0.5), linear):
            with pytest.raises(UnsupportedInitError, match="CustomInit"):
                quadrature_loglik(spec, np.array([0.3, -0.4]), init, nodes=101)


class TestQuadratureProperty:
    """Over random scalar state-space models the node-grid quadrature equals the Kalman filter.

    The box keeps the trapezoid rule deep in its regime of exponential
    convergence for Gaussian integrands. The node grid spans 16 stationary
    standard deviations, at most 16 sqrt(2 / (1 - 0.81)) = 52, widened by
    at most 8 for the initial laws below, so 801 nodes lie at most 0.075
    apart. The narrowest kernels are the transition, of width
    sqrt(Qz) >= 0.45, and the emission as a function of x, of width
    sqrt(Qxi) / |b| >= 0.22, so the spacing stays within about a third of
    each kernel's width.
    """

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        a=st.floats(-0.9, 0.9),
        b=st.floats(0.5, 2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        qz=st.floats(0.2, 2.0),
        qx=st.floats(0.2, 2.0),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_quadrature_equals_kalman(self, a, b, sign, qz, qx, n, seed):
        spec = scalar_ssm(a, sign * b, qz, qx)
        rng = np.random.default_rng(seed)
        x0, sd0, rho = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(-0.9, 0.9)
        gaussian = GaussianOnZ([x0, 0.5], [[sd0**2, rho * sd0], [rho * sd0, 1.0]])
        for init in (Stationary(), PointMass(x0, 0.0), gaussian):
            ys = simulated_obs(spec, n, seed=seed, init=init)
            q = quadrature_loglik(spec, ys, init, nodes=801).value
            assert abs(q - kalman_loglik(spec, ys, init).value) < 1e-10


def one_shot_quadrature(qx, g, sd, ys, x0=None, nodes=2001):
    """The quadrature of an HMM as the scaled forward recursion on the nodes, each kernel exponentiated in one expression."""
    c = 0.0 if x0 is None else x0
    grid = np.linspace(min(0.0, c) - 8.0 * sd - abs(c), max(0.0, c) + 8.0 * sd + abs(c), nodes)
    w = np.full(nodes, grid[1] - grid[0])
    w[0] = w[-1] = w[0] / 2.0
    if x0 is None:
        t, wh = np.polynomial.hermite.hermgauss(80)
        x0n, alpha = 0.0 + np.sqrt(2.0) * sd * t, wh / np.sqrt(np.pi)
    else:
        x0n, alpha = np.array([x0]), np.ones(1)
    kernel = np.exp(qx(x0n[:, None], grid[None, :]))
    trans = np.exp(qx(grid[:, None], grid[None, :]))
    incs = []
    for y in ys:
        gy = g(grid, y)
        alpha = (alpha @ kernel) * (np.exp(gy - gy.max()) * w)
        total = alpha.sum()
        incs.append(np.log(total) + gy.max())
        alpha = alpha / total
        kernel = trans
    return float(np.sum(incs))


class TestBlockedQuadratureKernel:
    """``quadrature_loglik`` builds its kernel in row blocks and gives the one-shot bits."""

    def test_sv_matches_one_shot(self):
        params = SvParams(1.0, 0.3, 0.9)
        spec = sv_spec(params)
        ys = simulated_obs(spec, 8, seed=11)
        sd = float(np.sqrt(params.x_var))
        for init, x0 in ((Stationary(), None), (PointMass(1.5, 0.0), 1.5)):
            want = one_shot_quadrature(
                lambda x, x1: one_expression_normal(x1 - params.phi * x, params.sigma**2),
                lambda x, y: one_expression_sv_g(params, x, y),
                sd, ys[:, 0].tolist(), x0,
            )
            assert quadrature_loglik(spec, ys, init, nodes=2001).value == want

    def test_scalar_ssm_matches_one_shot(self):
        a, b, q_state, q_obs = 0.6, 1.0, 1.0, 0.2
        spec = scalar_ssm(a, b, q_state, q_obs)
        ys = simulated_obs(spec, 8, seed=12)
        sd = float(np.sqrt(glm_stationary_cov(spec.glm)[0, 0]))
        for init, x0 in ((Stationary(), None), (PointMass(-0.8, 0.0), -0.8)):
            want = one_shot_quadrature(
                lambda x, x1: one_expression_normal(x1 - a * x, q_state), lambda x, y: one_expression_normal(y - b * x, q_obs),
                sd, ys[:, 0].tolist(), x0,
            )
            assert quadrature_loglik(spec, ys, init, nodes=2001).value == want


class TestForward:
    def test_symmetric_two_state(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        for ys in ([0, 1, 1, 0], [1, 1, 1, 1, 1]):
            ll = forward_loglik(spec, np.array(ys), Stationary()).value
            assert abs(ll - len(ys) * np.log(0.5)) < 1e-13

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            K, L = rng.integers(2, 4), rng.integers(2, 4)
            P = rng.dirichlet(np.ones(K), size=K)
            G = rng.dirichlet(np.ones(L), size=K)
            spec = finite_hmm_spec(FiniteHmmParams(P, G))
            ys = rng.integers(0, L, size=10)
            fwd = forward_loglik(spec, ys, Stationary()).value
            enu = enumeration_loglik(spec, ys, Stationary())
            assert abs(fwd - enu) < 1e-12

    def test_one_step_marginalization(self):
        rng = np.random.default_rng(9)
        P = rng.dirichlet(np.ones(3), size=3)
        G = rng.dirichlet(np.ones(2), size=3)
        spec = finite_hmm_spec(FiniteHmmParams(P, G))
        from pommkit import finite_hmm_stationary

        pi = finite_hmm_stationary(spec.finite)
        expected = float(((pi @ P) * G[:, 1]).sum())
        got = np.exp(forward_loglik(spec, np.array([1]), Stationary()).value)
        assert abs(got - expected) < 1e-14

    def test_out_of_alphabet_symbol(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            forward_loglik(spec, np.array([0, 3]), Stationary())

    def test_impossible_sequence_gives_minus_inf(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]))
        assert forward_loglik(spec, np.array([0, 1]), Stationary()).value == -np.inf


class TestParticleFilter:
    def test_determinism(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 20, seed=10)
        a = bpf_loglik(spec, ys, Stationary(), particles=256, seed=99)
        b = bpf_loglik(spec, ys, Stationary(), particles=256, seed=99)
        assert a.value == b.value and a.se == b.se

    def test_variance_shrinks_with_more_particles(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 20, seed=11)
        small = np.array([bpf_loglik(spec, ys, Stationary(), 512, seed=s).value for s in range(60)])
        large = np.array([bpf_loglik(spec, ys, Stationary(), 1024, seed=s).value for s in range(60)])
        assert large.var() < small.var()

    def test_needs_factorization(self):
        params = GlmParams(np.array([[0.5, 0.2], [0.1, 0.3]]), np.eye(2), 1, 1)
        with pytest.raises(ValueError):
            bpf_loglik(glm_spec(params), np.array([0.1]), Stationary(), 256, seed=0)

    def test_exact_on_iid_model(self):
        # the emission ignores the state, so every particle carries the same
        # weight and the filter adds the emission log densities in order
        mu, sd = 0.5, 1.5
        spec = iid_gaussian_spec(mu, sd)
        ys = simulated_obs(spec, 200, seed=7)
        want = np.cumsum(normal_logpdf(ys[:, 0] - mu, sd**2))[-1]
        for init in (Stationary(), PointMass(0.3, 0.0)):
            ll = bpf_loglik(spec, ys, init, particles=64, seed=3)
            assert ll.value == want and ll.se == 0.0

    def test_all_zero_weights_flagged(self):
        # symbol 1 is impossible under every state: weights vanish at step 2
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]))
        ll = bpf_loglik(spec, np.array([0, 1]), Stationary(), particles=64, seed=1)
        assert ll.value == -np.inf
        assert "zero_weights" in ll.flags

    def test_reported_se_is_calibrated(self):
        # within-run se should be the right order of magnitude versus
        # the spread across independent replicates
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 20, seed=12)
        runs = [bpf_loglik(spec, ys, Stationary(), 512, seed=s) for s in range(60)]
        spread = np.std([r.value for r in runs])
        mean_se = np.mean([r.se for r in runs])
        assert 0.3 < mean_se / spread < 3.0


def _bpf_pin_case(name):
    """Model, observations and initial law of a pinned particle-filter case."""
    sv = sv_spec(SvParams(1.0, 0.3, 0.9))
    ssm = scalar_ssm(0.7)
    p2 = ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]]))
    q2 = ssm_spec(SsmParams([[0.6]], [[1.0], [-0.5]], [[1.0]], [[0.3, 0.1], [0.1, 0.4]]))
    finite = finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1, 0.0], [0.2, 0.5, 0.3]]))
    # symbol 2 is impossible under every state, so the weights vanish at step 5
    zero = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.7, 0.3, 0.0], [0.4, 0.6, 0.0]]))
    cases = {
        "sv_stationary": lambda: (sv, simulated_obs(sv, 40, seed=1), Stationary()),
        "sv_point_mass": lambda: (sv, simulated_obs(sv, 40, seed=1), PointMass(1.5, 0.0)),
        "ssm_stationary": lambda: (ssm, simulated_obs(ssm, 40, seed=2), Stationary()),
        "ssm_point_mass": lambda: (ssm, simulated_obs(ssm, 40, seed=2), PointMass(-2.0, 0.5)),
        "ssm_p2": lambda: (p2, simulated_obs(p2, 40, seed=3), Stationary()),
        "ssm_q2": lambda: (q2, simulated_obs(q2, 40, seed=4), Stationary()),
        "finite": lambda: (finite, simulated_obs(finite, 40, seed=5), Stationary()),
        "finite_zero_weights": lambda: (zero, np.array([0, 1, 1, 0, 2, 1]), Stationary()),
    }
    return cases[name]()


# (particles, stream, float.hex of value, float.hex of se, flags) of bpf_loglik at seed 7.
# Any change to the filter's arithmetic or to the order of its draws moves these bits.
BPF_PINS = {
    "sv_stationary": [
        (2, 0, "-0x1.19985a479c376p+6", "0x1.0ac7f687304cfp+0", ()),
        (2, 3, "-0x1.0d41a5ec0160bp+6", "0x1.e43f096f7ddc1p-1", ()),
        (37, 0, "-0x1.0c74c91bb6605p+6", "0x1.58aaeee35107cp-2", ()),
        (37, 3, "-0x1.09afa6000260ap+6", "0x1.867d9594dd096p-2", ()),
        (512, 0, "-0x1.07a095b590a28p+6", "0x1.7f4169fd61b6fp-4", ()),
        (512, 3, "-0x1.08429cd56fcfbp+6", "0x1.7e56a380ae40bp-4", ()),
    ],
    "sv_point_mass": [
        (2, 0, "-0x1.1b1eac98fa8bap+6", "0x1.ed8c41429417ep-1", ()),
        (2, 3, "-0x1.10524f3b77b72p+6", "0x1.36217f20d67bdp+0", ()),
        (37, 0, "-0x1.146426e1af2b4p+6", "0x1.4e0c7358719e3p-2", ()),
        (37, 3, "-0x1.14639edc1c589p+6", "0x1.63a2185aa92e7p-2", ()),
        (512, 0, "-0x1.128f476c08349p+6", "0x1.63d9ee8b2bfaap-4", ()),
        (512, 3, "-0x1.136a2a4148453p+6", "0x1.732eef7d3824dp-4", ()),
    ],
    "ssm_stationary": [
        (2, 0, "-0x1.284f44cfe41edp+7", "0x1.c3145fcf47f59p+1", ()),
        (2, 3, "-0x1.c5adade94e4aap+6", "0x1.dd70f6544b96dp+1", ()),
        (37, 0, "-0x1.f7c927d2ca003p+5", "0x1.d0cc1efc32978p+0", ()),
        (37, 3, "-0x1.e976f444e3ec4p+5", "0x1.bbe2d784ba125p+0", ()),
        (512, 0, "-0x1.d81463159e670p+5", "0x1.c4a25b02d792fp-2", ()),
        (512, 3, "-0x1.d97ee76262e4fp+5", "0x1.c1f40bc902d45p-2", ()),
    ],
    "ssm_point_mass": [
        (2, 0, "-0x1.51bd632c231d8p+7", "0x1.e568f9725d159p+1", ()),
        (2, 3, "-0x1.4b048b15fc765p+7", "0x1.04480b0a0adb3p+2", ()),
        (37, 0, "-0x1.1b35356f60db3p+6", "0x1.99d800ff676ebp+0", ()),
        (37, 3, "-0x1.0c2674866f0eep+6", "0x1.c14b3678625fbp+0", ()),
        (512, 0, "-0x1.f7170a02b4839p+5", "0x1.40b45243a7b28p-1", ()),
        (512, 3, "-0x1.f9c80942d54a0p+5", "0x1.6e36ad0046037p-1", ()),
    ],
    "ssm_p2": [
        (2, 0, "-0x1.fea3a6927e1b7p+6", "0x1.af32c3154b686p+1", ()),
        (2, 3, "-0x1.21aba1b3de6d0p+7", "0x1.e34841943cb81p+1", ()),
        (37, 0, "-0x1.04627723e2bc4p+6", "0x1.7f37d7e5446e4p+0", ()),
        (37, 3, "-0x1.0f6e2cbeaaf09p+6", "0x1.86de6cd234193p+0", ()),
        (512, 0, "-0x1.02f7c784d3c30p+6", "0x1.ad4d41d1f5064p-2", ()),
        (512, 3, "-0x1.022acf43f3254p+6", "0x1.9cb2b4165ad61p-2", ()),
    ],
    "ssm_q2": [
        (2, 0, "-0x1.7a4fe9810bf58p+7", "0x1.b9a1830975e53p+1", ()),
        (2, 3, "-0x1.416185dd53df3p+7", "0x1.f07220530ff3fp+1", ()),
        (37, 0, "-0x1.8e025268f7e3bp+6", "0x1.874535eedee1cp+0", ()),
        (37, 3, "-0x1.8f155daa8affdp+6", "0x1.b438d7c2f8a71p+0", ()),
        (512, 0, "-0x1.8139264ca6576p+6", "0x1.aae7a72d0c274p-2", ()),
        (512, 3, "-0x1.80bc75d80e86dp+6", "0x1.a94099d252998p-2", ()),
    ],
    "finite": [
        (2, 0, "-inf", None, ("zero_weights",)),
        (2, 3, "-0x1.f4c41a2cb894bp+4", "0x1.175a8086e78b6p+1", ()),
        (37, 0, "-0x1.bb822586b4c5fp+4", "0x1.41557e734a0fep-1", ()),
        (37, 3, "-0x1.ac964b3905f8fp+4", "0x1.406f2025f9965p-1", ()),
        (512, 0, "-0x1.bfb75d3e423c5p+4", "0x1.6254ee1a74294p-3", ()),
        (512, 3, "-0x1.c3995a62120bbp+4", "0x1.66b162a1fd9cap-3", ()),
    ],
    "finite_zero_weights": [
        (2, 0, "-inf", None, ("zero_weights",)),
        (2, 3, "-inf", None, ("zero_weights",)),
        (37, 0, "-inf", None, ("zero_weights",)),
        (37, 3, "-inf", None, ("zero_weights",)),
        (512, 0, "-inf", None, ("zero_weights",)),
        (512, 3, "-inf", None, ("zero_weights",)),
    ],
}


class TestParticleFilterBits:
    @pytest.mark.parametrize("case", list(BPF_PINS))
    def test_pinned_bits(self, case):
        spec, ys, init = _bpf_pin_case(case)
        for particles, stream, value, se, flags in BPF_PINS[case]:
            ll = bpf_loglik(spec, ys, init, particles, seed=7, stream=stream)
            got = (ll.value.hex(), None if ll.se is None else ll.se.hex(), ll.flags)
            assert got == (value, se, flags), (particles, stream)


class TestEntropySequence:
    def test_iid_model_constant(self):
        # one state: observations i.i.d., predictive log density constant
        params = FiniteHmmParams([[1.0]], [[0.3, 0.7]])
        spec = finite_hmm_spec(params)
        seq = conditional_entropy_sequence(spec, 6)
        target = 0.3 * np.log(0.3) + 0.7 * np.log(0.7)
        np.testing.assert_allclose(seq, target, atol=1e-12)

    def test_symmetric_two_state(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        seq = conditional_entropy_sequence(spec, 8)
        np.testing.assert_allclose(seq, np.log(0.5), atol=1e-12)

    def test_monotone_on_random_models(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            K = int(rng.integers(2, 4))
            P = rng.dirichlet(np.ones(K), size=K)
            G = rng.dirichlet(np.ones(2), size=K)
            spec = finite_hmm_spec(FiniteHmmParams(P, G))
            seq = conditional_entropy_sequence(spec, 10)
            assert np.all(np.diff(seq) >= -1e-12)

    def test_enumeration_cap(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            conditional_entropy_sequence(spec, 25)


class TestForwardProperty:
    """Over random finite HMMs the scaled forward recursion equals the sum over hidden paths."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([2, 3]),
        L=st.sampled_from([2, 3]),
        n=st.integers(1, 7),
        sparse=st.booleans(),  # one symbol that no state emits, so that most sequences are impossible
        seed=st.integers(0, 2**16),
    )
    def test_forward_equals_enumeration(self, K, L, n, sparse, seed):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(K), size=K)
        G = rng.dirichlet(np.ones(L), size=K)
        if sparse:
            G[:, rng.integers(0, L)] = 0.0
            G /= G.sum(axis=1, keepdims=True)
        spec = finite_hmm_spec(FiniteHmmParams(P, G))
        ys = rng.integers(0, L, size=n)
        for init in (Stationary(), PointMass(int(rng.integers(0, K)), int(rng.integers(0, L))), rng.dirichlet(np.ones(K))):
            fwd = forward_loglik(spec, ys, init).value
            enu = enumeration_loglik(spec, ys, init)
            assert fwd == enu if enu == -np.inf else abs(fwd - enu) < 1e-12


class TestForwardIncrements:
    def test_chain_rule_exact(self):
        rng = np.random.default_rng(14)
        P = rng.dirichlet(np.ones(3), size=3)
        G = rng.dirichlet(np.ones(2), size=3)
        spec = finite_hmm_spec(FiniteHmmParams(P, G))
        ys = rng.integers(0, 2, size=12)
        inc = forward_increments(spec, ys, Stationary())
        for n in (1, 5, 12):
            assert abs(forward_loglik(spec, ys[:n], Stationary()).value - inc[:n].sum()) < 1e-12


class TestDispatch:
    def test_scalar_ssm_matches_joint_filter(self):
        inits = (
            Stationary(),
            PointMass(4.0, 4.0),
            GaussianOnZ([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
        )
        for a in (0.5, 0.99):
            spec = scalar_ssm(a, 1.0, 1.0, 0.2)
            ys = simulated_obs(spec, 300, seed=30)
            for init in inits:
                inc = increments(spec, ys, init, "kalman")
                # the scalar state-space model takes the hidden-state filter
                np.testing.assert_array_equal(inc, ssm_kalman_increments(spec.ssm, ys, init))
                np.testing.assert_allclose(inc, kalman_increments(spec, ys, init), rtol=0, atol=1e-10)
                ll = loglik(spec, ys, init, "kalman")
                assert (ll.n, ll.method) == (300, "kalman")
                assert abs(ll.value - kalman_loglik(spec, ys, init).value) < 1e-10

    def test_vector_state_space_models_use_joint_filter(self):
        # the hidden-state filter is scalar only; every other shape is the joint-chain filter, bit for bit
        gauss = GaussianOnZ([0.2, 0.1, -0.3], np.diag([0.5, 0.4, 0.2]))
        for params, point in (
            (SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]]), PointMass([1.0, -0.5], 0.3)),
            (SsmParams([[0.7]], [[1.0], [-0.4]], [[0.8]], [[0.3, 0.1], [0.1, 0.5]]), PointMass(1.0, [0.3, -0.2])),
        ):
            spec = ssm_spec(params)
            ys = simulated_obs(spec, 60, seed=31)
            for init in (Stationary(), point, gauss):
                inc = ssm_kalman_increments(params, ys, init)
                np.testing.assert_array_equal(inc, kalman_increments(spec, ys, init))
                np.testing.assert_array_equal(inc, increments(spec, ys, init, "kalman"))
                assert ssm_kalman_loglik(params, ys, init).value == float(inc.sum())

    def test_general_linear_model_uses_joint_filter(self):
        spec = glm_spec(GlmParams([[0.4, 0.2], [0.1, 0.3]], [[1.0, 0.4], [0.4, 1.0]], 1, 1))
        ys = simulated_obs(spec, 50, seed=32)
        np.testing.assert_array_equal(
            increments(spec, ys, Stationary(), "kalman"), kalman_increments(spec, ys, Stationary())
        )

    def test_finite_matches_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            P = rng.dirichlet(np.ones(3), size=3)
            G = rng.dirichlet(np.ones(2), size=3)
            spec = finite_hmm_spec(FiniteHmmParams(P, G))
            ys = rng.integers(0, 2, size=9)
            for init in (Stationary(), PointMass(1, 0)):
                ll = loglik(spec, ys, init, "forward")
                assert ll.method == "forward"
                assert abs(ll.value - enumeration_loglik(spec, ys, init)) < 1e-12

    def test_approximate_methods_forward_their_options(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ys = simulated_obs(spec, 6, seed=34)
        bpf = loglik(spec, ys, Stationary(), "bpf", particles=64, seed=5, stream=2)
        assert bpf == bpf_loglik(spec, ys, Stationary(), 64, 5, stream=2)
        quad = loglik(spec, ys, Stationary(), "quadrature", nodes=401)
        assert quad == quadrature_loglik(spec, ys, Stationary(), 401)

    def test_unknown_and_inexact_methods_rejected(self):
        spec = scalar_ssm(0.5)
        ys = np.array([0.1, 0.2])
        with pytest.raises(ValueError):
            increments(spec, ys, Stationary(), "bpf")
        with pytest.raises(ValueError):
            loglik(spec, ys, Stationary(), "exact")
        with pytest.raises(TypeError):
            loglik(spec, ys, Stationary(), "bpf", particle=3)
        # sizes must be integers >= 2, named when they are not; the Monte Carlo
        # divergences and the SV audits check their draw counts the same way
        sv, sv_star, box = sv_spec(SvParams(1.0, 0.3, 0.9)), SvParams(1.0, 0.3, 0.9), SvThetaBox(0.1, 0.1, 0.95, 2.5)
        for bad in (1, 0, -3, 2001.0, 100.0, "512", None, True):
            with pytest.raises(ValueError, match="nodes must be an integer >= 2"):
                loglik(spec, ys, Stationary(), "quadrature", nodes=bad)
            with pytest.raises(ValueError, match="nodes must be an integer >= 2"):
                quadrature_loglik(spec, np.empty(0), Stationary(), bad)
            with pytest.raises(ValueError, match="particles must be an integer >= 2"):
                loglik(spec, ys, Stationary(), "bpf", particles=bad)
            with pytest.raises(ValueError, match="particles must be an integer >= 2"):
                bpf_loglik(spec, ys, Stationary(), bad, seed=0)
            for count in (
                lambda: step_kld_mc(sv, sv, bad, 1),
                lambda: step_kld_mc(spec, spec, bad, 1),
                lambda: delta_bar_hmm(sv, sv, bad, 1),
                lambda: envelope_validity_audit(box, bad, 5),
                lambda: b6_entropy_floor_sv(sv_star, bad, 5),
                lambda: b6_audit_sv(sv_star, box, True, bad, 5),
            ):
                with pytest.raises(ValueError, match="draws must be an integer >= 2"):
                    count()
            with pytest.raises(ValueError, match="sims must be an integer >= 2"):
                tightness_audit_sv(sv_star, box, [100.0], bad, 5)
        assert np.isfinite(loglik(spec, ys, Stationary(), "quadrature", nodes=np.int64(2)).value)
        assert np.isfinite(loglik(spec, ys, Stationary(), "bpf", particles=np.int64(2)).value)
        # two draws give a finite standard error
        assert np.isfinite(step_kld_mc(sv, sv_spec(SvParams(1.1, 0.3, 0.8)), np.int64(2), 1).se)
        assert envelope_validity_audit(box, np.int64(2), 5).sims == 2
        assert np.isfinite(b6_entropy_floor_sv(sv_star, 2, 5).ci_hi)
        assert np.isfinite(tightness_audit_sv(sv_star, box, [100.0], 2, 5)[1].ci_hi)

    def test_non_finite_observations_rejected(self):
        spec = scalar_ssm(0.5)
        ys = np.array([0.1, 0.2, np.nan, 0.3])
        with pytest.raises(ValueError, match="observation 2 is not finite"):
            increments(spec, ys, Stationary(), "kalman")
        for method in ("kalman", "bpf", "quadrature"):
            with pytest.raises(ValueError, match="observation 2 is not finite"):
                loglik(spec, ys, Stationary(), method)
        finite = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            loglik(finite, np.array([0.0, np.inf]), Stationary(), "forward")

    def test_oracle_evaluators_reject_non_finite_observations(self):
        spec = scalar_ssm(0.5)
        ys = [0.1, np.nan, 0.3]
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            kalman_loglik(spec, ys, Stationary())
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            ssm_kalman_loglik(spec.ssm, ys, Stationary())
        finite = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError, match="observation 2 is not finite"):
            forward_loglik(finite, [0, 1, -np.inf], Stationary())

    def test_non_finite_initial_state_vector_rejected(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.2, 0.8]], [[0.9, 0.1], [0.1, 0.9]]))
        for dist in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="probability vector"):
                forward_loglik(spec, [0, 1], np.array(dist))
        assert np.isfinite(forward_loglik(spec, [0, 1], np.array([0.25, 0.75])).value)


class TestGridIncrements:
    INITS = (
        Stationary(),
        PointMass(4.0, 4.0),
        GaussianOnZ([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
    )

    def random_scalar_grid(self, seed):
        rng = np.random.default_rng(seed)
        a = np.concatenate([[-0.9999, 0.9999], rng.uniform(-0.99, 0.99, 8)])
        b = rng.uniform(0.2, 2.0, a.size) * rng.choice([-1.0, 1.0], a.size)
        qz = rng.uniform(0.1, 3.0, a.size)
        qx = rng.uniform(0.05, 2.0, a.size)
        return [scalar_ssm(*theta) for theta in zip(a, b, qz, qx)]

    def test_batched_scalar_filter_matches_oracles(self):
        for seed in (40, 41):
            specs = self.random_scalar_grid(seed)
            ys = simulated_obs(specs[3], 200, seed=seed)
            for init in self.INITS:
                inc = grid_increments(specs, ys, init, "kalman")
                assert inc.shape == (len(specs), 200)
                for row, spec in zip(inc, specs):
                    np.testing.assert_allclose(row, ssm_kalman_increments(spec.ssm, ys, init), rtol=1e-12, atol=0)
                    np.testing.assert_allclose(row, kalman_increments(spec, ys, init), rtol=0, atol=1e-10)

    def test_other_grids_stack_per_spec_rows(self):
        scalar = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        ssm2 = ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]]))
        linear = glm_spec(GlmParams([[0.4, 0.2], [0.1, 0.3]], [[1.0, 0.4], [0.4, 1.0]], 1, 1))
        ys = simulated_obs(scalar, 40, seed=42)
        specs = [scalar, ssm2, linear, scalar_ssm(-0.3)]
        expected = np.vstack([increments(s, ys, Stationary(), "kalman") for s in specs])
        np.testing.assert_array_equal(grid_increments(specs, ys, Stationary(), "kalman"), expected)

        rng = np.random.default_rng(43)
        finite = [finite_hmm_spec(FiniteHmmParams(rng.dirichlet(np.ones(2), 2), rng.dirichlet(np.ones(3), 2)))
                  for _ in range(4)]
        symbols = rng.integers(0, 3, size=25)
        expected = np.vstack([increments(s, symbols, PointMass(1, 0), "forward") for s in finite])
        np.testing.assert_array_equal(grid_increments(finite, symbols, PointMass(1, 0), "forward"), expected)

    def test_rows_equal_single_spec_increments(self):
        for seed in (44, 45, 46):
            specs = self.random_scalar_grid(seed)
            ys = simulated_obs(specs[2], 150, seed=seed)
            for init in self.INITS:
                inc = grid_increments(specs, ys, init, "kalman")
                for row, spec in zip(inc, specs):
                    assert np.array_equal(row, increments(spec, ys, init, "kalman"))

    def test_batched_path_rejects_unsupported_init(self):
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        init = CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1)))
        with pytest.raises(UnsupportedInitError):
            grid_increments(specs, np.array([0.1, 0.2]), init, "kalman")
        with pytest.raises(UnsupportedInitError):
            grid_increments(ScalarSsmGrid([0.2, 0.5], 1.0, 1.0, 0.2), np.array([0.1, 0.2]), init, "kalman")

    def test_record_rows_equal_single_spec_increments(self):
        for seed in (47, 48):
            specs = self.random_scalar_grid(seed)
            params = [(s.ssm.A.item(), s.ssm.B.item(), s.ssm.Qzeta.item(), s.ssm.Qxi.item()) for s in specs]
            record = ScalarSsmGrid(*zip(*params))
            ys = simulated_obs(specs[1], 300, seed=seed)
            for init in self.INITS:
                rows = grid_increments(record, ys, init, "kalman")
                assert rows.shape == (len(specs), 300) and rows.flags.c_contiguous
                np.testing.assert_array_equal(rows, grid_increments(specs, ys, init, "kalman"))
                for row, spec in zip(rows, specs):
                    assert np.array_equal(row, increments(spec, ys, init, "kalman"))

    def test_record_takes_only_the_kalman_method(self):
        for method in ("forward", "bpf", "quadrature"):
            with pytest.raises(ValueError, match=f"exact kalman likelihood, got '{method}'"):
                grid_increments(ScalarSsmGrid([0.2, 0.5], 1.0, 1.0, 0.2), np.array([0.1, 0.2]), Stationary(), method)


def full_recursion_increments(a, b, qz, qx, ys, m, pv):
    """The scalar filter with no steady-state shortcut: every step runs the variance recursion too.

    Plain floats, with the operations in the filter's order; the log
    densities are formed over the whole series at the end, as the filter does.
    """
    s_list, innov_list = [], []
    for y in ys:
        m = a * m
        pv = a * a * pv + qz
        s = b * b * pv + qx
        innov = y - b * m
        s_list.append(s)
        innov_list.append(innov)
        gain = pv * b / s
        m = m + gain * innov
        pv = pv - gain * b * pv
    s, u = np.array(s_list), np.array(innov_list)
    return -0.5 * (np.log(s) + np.log(2.0 * np.pi) + u * u / s)


def riccati_period(a, b, qz, qx, pv, steps=5000):
    """Period of the cycle the filter's variance state ends in, or None if it does not repeat within ``steps``."""
    seen = {}
    for k in range(steps):
        if pv in seen:
            return k - seen[pv]
        seen[pv] = k
        pp = a * a * pv + qz
        gain = pp * b / (b * b * pp + qx)
        pv = pp - gain * b * pp
    return None


# the perfbench Metropolis oracle grid; some of its points end in a cycle of period 2
MH_GRID = np.linspace(0.5, 0.999, 500)
PERIOD_3 = (0.6611967562552636, -1.4427065631673313, 0.022785286114335623, 0.033187939831408574)
PERIOD_4 = (-0.8958660164247867, 2.079559585595966, 3.469982272124825, 2.8292030026468797)
FIXED_POINT = (0.9999, 1.0, 1.0, 0.2)


class TestSteadyStateScalarFilter:
    """The scalar filter's steady-state shortcut keeps every bit of the full recursion."""

    INITS = (
        (Stationary(), None),
        (PointMass(1.5, 0.0), (1.5, 0.0)),
        (GaussianOnZ([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]), (0.5, 2.0)),
    )

    @staticmethod
    def cycling(period):
        return [float(a) for a in MH_GRID if riccati_period(float(a), 1.0, 1.0, 0.2, 1.0 / (1.0 - a * a)) == period]

    def check(self, a, b, qz, qx, ys):
        for init, start in self.INITS:
            m, pv = start if start is not None else (0.0, qz / (1.0 - a * a))
            want = full_recursion_increments(a, b, qz, qx, ys[:, 0].tolist(), m, pv)
            got = _scalar_kalman_increments(a, b, qz, qx, ys, init)
            np.testing.assert_array_equal(got, want)
            if len(ys):
                np.testing.assert_array_equal(increments(scalar_ssm(a, b, qz, qx), ys, init, "kalman"), want)
                assert ssm_kalman_loglik(scalar_ssm(a, b, qz, qx).ssm, ys, init).value == float(want.sum())

    def test_cases_reach_the_intended_cycles(self):
        assert len(self.cycling(2)) >= 10
        for theta, period in ((PERIOD_3, 3), (PERIOD_4, 4), (FIXED_POINT, 1)):
            a, b, qz, qx = theta
            # from each initial variance of INITS
            assert [riccati_period(a, b, qz, qx, pv) for pv in (qz / (1.0 - a * a), 0.0, 2.0)] == [period] * 3

    def test_matches_full_recursion(self):
        ys = simulated_obs(scalar_ssm(0.95), 400, seed=51)
        cases = [FIXED_POINT, (0.5, 1.0, 1.0, 0.2), (-0.7, 2.0, 0.3, 1.5), PERIOD_3, PERIOD_4]
        cases += [(a, 1.0, 1.0, 0.2) for a in self.cycling(2)[:6]]
        for case in cases:
            for n in (0, 1, 7, 8, 9, 16, 17, 400):  # around the points where the filter checks for a repeat
                self.check(*case, ys[:n])

    def test_grid_with_cycling_points_equals_single_specs(self):
        ys = simulated_obs(scalar_ssm(0.95), 401, seed=52)
        params = [(a, 1.0, 1.0, 0.2) for a in self.cycling(2)]
        params += [PERIOD_3, PERIOD_4, FIXED_POINT, (0.3, -0.8, 2.0, 0.1)]
        specs = [scalar_ssm(*theta) for theta in params]
        for init, _ in self.INITS:
            rows = grid_increments(specs, ys, init, "kalman")
            for row, spec in zip(rows, specs):
                np.testing.assert_array_equal(row, increments(spec, ys, init, "kalman"))
            # every sub-grid, whether one period fits all its points or none does, keeps the rows
            for drop in ([], [-4], [-3], [-4, -3]):
                keep = np.delete(np.arange(len(specs)), drop)
                np.testing.assert_array_equal(grid_increments([specs[i] for i in keep], ys, init, "kalman"), rows[keep])

    def test_cycles_up_to_period_4_take_the_shortcut(self, monkeypatch):
        periods = []

        def recorded(*args, _fn=likelihood._riccati):
            head, cycle = _fn(*args)
            periods.append(len(cycle))  # the cycle's gains; none means no shortcut
            return head, cycle

        monkeypatch.setattr(likelihood, "_riccati", recorded)
        ys = simulated_obs(scalar_ssm(0.95), 401, seed=53)
        period_2 = [(a, 1.0, 1.0, 0.2) for a in self.cycling(2)]
        cases = [([FIXED_POINT], 1), (period_2[:1], 2), ([PERIOD_3], 3), ([PERIOD_4], 4),
                 # a grid takes the least period that fits every point, and none if no period up to 4 does
                 (period_2 + [FIXED_POINT], 2), ([PERIOD_3, FIXED_POINT], 3), (period_2 + [PERIOD_4], 4),
                 (period_2 + [PERIOD_3], None), ([PERIOD_3, PERIOD_4], None)]
        for params, period in cases:
            for init, _ in self.INITS:
                periods.clear()
                if len(params) == 1:
                    increments(scalar_ssm(*params[0]), ys, init, "kalman")
                else:
                    grid_increments([scalar_ssm(*theta) for theta in params], ys, init, "kalman")
                assert periods == [0 if period is None else period]


class TestScalarFilterProperty:
    """Over random stable parameters the steady-state scalar filter agrees with the joint-chain filter."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        a=st.floats(-0.999, 0.999),
        b=st.floats(0.1, 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        qz=st.floats(0.05, 5.0),
        qx=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_scalar_joint_and_batched_filters_agree(self, a, b, sign, qz, qx, seed):
        spec = scalar_ssm(a, sign * b, qz, qx)
        ys = simulated_obs(spec, 150, seed=seed)
        for init in (Stationary(), PointMass(1.0, 0.0)):
            scalar = increments(spec, ys, init, "kalman")
            np.testing.assert_allclose(scalar, kalman_increments(spec, ys, init), rtol=0, atol=1e-10)
            np.testing.assert_array_equal(grid_increments([scalar_ssm(0.3), spec], ys, init, "kalman")[1], scalar)


class TestRescaledHiddenState:
    """(a, b, Qzeta, Qxi) and (a, b / c, c^2 Qzeta, Qxi) are one law of the observations, with x scaled by c.

    No filter computes this identity, so it checks the scalar, joint and
    batched filters from outside. A point mass scales its x0 by c; the
    batched filter takes one initial law for every row, so its point mass
    sits at x0 = 0, which the scaling keeps.
    """

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        a=st.floats(-0.99, 0.99),
        b=st.floats(0.1, 3.0),
        c=st.floats(0.2, 5.0),
        signs=st.sampled_from([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]),
        qz=st.floats(0.05, 5.0),
        qx=st.floats(0.05, 5.0),
        x0=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_same_increments(self, a, b, c, signs, qz, qx, x0, seed):
        b, c = signs[0] * b, signs[1] * c
        spec, rescaled = scalar_ssm(a, b, qz, qx), scalar_ssm(a, b / c, c * c * qz, qx)
        ys = simulated_obs(spec, 150, seed=seed)
        for init, rescaled_init in ((Stationary(), Stationary()), (PointMass(x0, 0.5), PointMass(c * x0, 0.5))):
            for evaluate in (lambda s, i: increments(s, ys, i, "kalman"), lambda s, i: kalman_increments(s, ys, i)):
                np.testing.assert_allclose(evaluate(rescaled, rescaled_init), evaluate(spec, init), rtol=0, atol=1e-10)
        for init in (Stationary(), PointMass(0.0, 0.5)):
            rows = grid_increments([spec, rescaled], ys, init, "kalman")
            np.testing.assert_allclose(rows[1], rows[0], rtol=0, atol=1e-10)


def reference_joint_increments(spec, ys, init):
    """The joint-chain filter with no steady-state shortcut, one log density per step.

    Every step runs the covariance recursion, factors its own innovation
    covariance and forms its log density from that factor, in the
    filter's operations and order.
    """
    Phi, R, p, q = spec.glm.Phi, spec.glm.R, spec.glm.p, spec.glm.q
    if isinstance(init, Stationary):
        m, P = np.zeros(p + q), glm_stationary_cov(spec.glm)
    elif isinstance(init, PointMass):
        m, P = np.concatenate([init.x, init.y]).astype(float), np.zeros((p + q, p + q))
    else:
        m, P = init.mean, init.cov
    yi = slice(p, p + q)
    out = []
    for y in ys:
        m = Phi @ m
        P = Phi @ P @ Phi.T + R
        S = P[yi, yi]
        chol = np.linalg.cholesky(S)
        innov = y - m[yi]
        u = np.linalg.solve(chol, innov)
        out.append(-0.5 * (q * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol))) + u @ u))
        gain = np.linalg.solve(S, P[yi, :]).T
        m = m + gain @ innov
        P = P - gain @ P[yi, :]
        P = 0.5 * (P + P.T)
    return np.array(out)


def joint_riccati_period(spec, steps=5000):
    """Period of the cycle the joint filter's covariance state ends in from ``Stationary``, or None."""
    Phi, R, p, q = spec.glm.Phi, spec.glm.R, spec.glm.p, spec.glm.q
    yi = slice(p, p + q)
    P, seen = glm_stationary_cov(spec.glm), {}
    for k in range(steps):
        if P.tobytes() in seen:
            return k - seen[P.tobytes()]
        seen[P.tobytes()] = k
        P = Phi @ P @ Phi.T + R
        P = P - np.linalg.solve(P[yi, yi], P[yi, :]).T @ P[yi, :]
        P = 0.5 * (P + P.T)
    return None


# scalar state-space points whose joint-chain covariance ends in a cycle of period 3 and 4
JOINT_PERIOD_3 = (0.4471818526911526, -1.6414591038171356, 1.0006205284834375, 1.8220034832462546)
JOINT_PERIOD_4 = (-0.40990079306483307, 2.5720226654515965, 1.5341253385493003, 0.9978889593879571)


class TestSteadyStateJointFilter:
    """The joint-chain filter's steady-state shortcut keeps every bit of the full recursion."""

    def check(self, spec, n, seed):
        ys = 2.0 * np.random.default_rng(seed).normal(size=(n, spec.obs_dim))
        for init in random_gaussian_inits(spec, seed):
            np.testing.assert_array_equal(kalman_increments(spec, ys, init), reference_joint_increments(spec, ys, init))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["glm", "ssm"]),
        p=st.sampled_from([1, 2]),
        q=st.sampled_from([1, 2]),
        n=st.sampled_from([1, 7, 8, 9, 300]),  # the first check falls on step 8
        seed=st.integers(0, 2**16),
    )
    def test_equals_full_recursion(self, family, p, q, n, seed):
        self.check(random_linear_spec(family, p, q, seed), n, seed)

    def test_longer_cycles_equal_the_full_recursion(self):
        period_3, period_4 = scalar_ssm(*JOINT_PERIOD_3), scalar_ssm(*JOINT_PERIOD_4)
        assert joint_riccati_period(period_3) == 3
        assert joint_riccati_period(period_4) == 4
        # the scalar filter's period-3 point settles to a fixed point on the joint chain
        assert joint_riccati_period(scalar_ssm(*PERIOD_3)) == 1
        for spec in (period_3, period_4, scalar_ssm(*PERIOD_3)):
            for n in (1, 7, 8, 9, 15, 16, 17, 300):
                self.check(spec, n, seed=61)

    def test_cycles_of_period_3_and_4_take_the_shortcut(self, monkeypatch):
        # one solve per step of the covariance recursion and one stacked solve after the loop
        calls = [0]
        solve = np.linalg.solve

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        ys = 2.0 * np.random.default_rng(63).normal(size=(300, 1))
        for theta in (JOINT_PERIOD_3, JOINT_PERIOD_4):
            calls[0] = 0
            kalman_increments(scalar_ssm(*theta), ys, Stationary())
            assert calls[0] == 17  # the recursion stops at the second check, step 15

    def test_no_observations(self):
        spec = random_linear_spec("glm", 2, 2, 62)
        assert kalman_increments(spec, np.empty((0, 2)), Stationary()).shape == (0,)


def matrix_mean_increments(spec, ys, init):
    """``kalman_increments`` with its mean recursion on matrices, ``m = Phi @ m`` and ``m = m + gain @ innov``."""
    Phi, R, p, q = spec.glm.Phi, spec.glm.R, spec.glm.p, spec.glm.q
    ys = np.asarray(ys, dtype=float).reshape(-1, q)
    m, P = likelihood._gaussian_init_moments(spec, init)
    yi = slice(p, p + q)

    def step(P):
        Pp = Phi @ P @ Phi.T + R
        gain = np.linalg.solve(Pp[yi, yi], Pp[yi, :]).T
        Pu = Pp - gain @ Pp[yi, :]
        return Pp[yi, yi], gain, 0.5 * (Pu + Pu.T)

    s_buf = np.empty((len(ys), q, q))
    head, cycle = likelihood._riccati(step, P, s_buf, np.array_equal)
    innov_buf = np.empty((len(ys), q))
    for k, y in enumerate(ys):
        gain = head[k] if k < len(head) else cycle[(k - len(head)) % len(cycle)]
        m = Phi @ m
        innov_buf[k] = y - m[yi]
        m = m + gain @ innov_buf[k]
    chol = np.linalg.cholesky(s_buf)
    u = np.linalg.solve(chol, innov_buf[:, :, None])[:, :, 0]
    uu = u[:, 0] * u[:, 0] if q == 1 else np.array([v @ v for v in u])
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=-1)
    return -0.5 * (q * np.log(2.0 * np.pi) + logdet + uu)


class TestEmbeddedMeanRecursion:
    """On a scalar state-space embedding the joint filter's float mean recursion keeps the matrix loop's bits."""

    def check(self, spec, ys, seed):
        for init in (*random_gaussian_inits(spec, seed), PointMass(-0.0, -0.0)):
            got = kalman_increments(spec, ys, init)
            assert got.tobytes() == matrix_mean_increments(spec, ys, init).tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        a=st.floats(-0.999, 0.999),
        b=st.floats(0.1, 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        qz=st.floats(0.05, 5.0),
        qx=st.floats(0.05, 5.0),
        n=st.sampled_from([1, 7, 8, 9, 300]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_matrix_mean_recursion(self, a, b, sign, qz, qx, n, seed):
        spec = scalar_ssm(a, sign * b, qz, qx)
        self.check(spec, 2.0 * np.random.default_rng(seed).normal(size=n), seed)

    def test_cycles_and_zero_y_column_glm(self):
        ys = 2.0 * np.random.default_rng(64).normal(size=300)
        zero_column = glm_spec(GlmParams([[0.6, 0.0], [-1.3, 0.0]], [[1.0, 0.3], [0.3, 0.5]], 1, 1))
        for spec in (scalar_ssm(*JOINT_PERIOD_3), scalar_ssm(*JOINT_PERIOD_4), scalar_ssm(*PERIOD_3), zero_column):
            self.check(spec, ys, 65)


class TestFiniteParticleFilterInput:
    """The particle filter checks finite-alphabet symbols as the forward recursion does."""

    spec = finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.2, 0.8]]))

    def test_rejects_what_forward_rejects(self):
        for ys in ([0, 1.5, 1.2, 0], [0, -1, 1, 0], [0, 1, 2, 0]):
            for call in (
                lambda: forward_loglik(self.spec, np.array(ys), Stationary()),
                lambda: bpf_loglik(self.spec, np.array(ys), Stationary(), particles=64, seed=0),
            ):
                with pytest.raises(ValueError, match=r"observation symbols must lie in 0\.\.1"):
                    call()

    def test_float_codes_of_symbols_are_accepted(self):
        ints = bpf_loglik(self.spec, np.array([0, 1, 1, 0]), Stationary(), particles=64, seed=0)
        floats = bpf_loglik(self.spec, np.array([0.0, 1.0, 1.0, 0.0]), Stationary(), particles=64, seed=0)
        assert ints == floats


class TestInitialLawDimension:
    """Every likelihood path rejects a point mass or Gaussian initial law of the wrong (x, y) dimension."""

    BAD = (
        GaussianOnZ([0.3, 9.0, 9.0], np.eye(3)),
        PointMass([0.3, 7.0], 0.0),
        PointMass(0.3, [0.0, 7.0]),
    )

    def test_scalar_paths_reject_extra_coordinates(self):
        ssm, sv = scalar_ssm(0.5), sv_spec(SvParams(1.0, 0.3, 0.9))
        ys = np.array([0.1, 0.2])
        for init in self.BAD:
            calls = (
                lambda: increments(ssm, ys, init, "kalman"),
                lambda: ssm_kalman_increments(ssm.ssm, ys, init),
                lambda: kalman_increments(ssm, ys, init),
                lambda: grid_increments([scalar_ssm(0.4), ssm], ys, init, "kalman"),
                lambda: quadrature_loglik(sv, ys, init, nodes=101),
                lambda: quadrature_loglik(ssm, ys, init, nodes=101),
                lambda: bpf_loglik(sv, ys, init, particles=16, seed=0),
                lambda: bpf_loglik(ssm, ys, init, particles=16, seed=0),
            )
            for call in calls:
                with pytest.raises(ValueError, match="point mass has dimensions|Gaussian init has dimension"):
                    call()

    def test_vector_paths_check_both_blocks(self):
        # p = 2, q = 1: a point mass needs two state and one observation coordinate
        spec = ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]]))
        ys = simulated_obs(spec, 5, seed=41)
        for init in (PointMass(1.0, [0.3, -0.5]), PointMass([1.0, 0.2, 0.3], 0.1), GaussianOnZ([0.1, 0.2], np.eye(2))):
            for call in (lambda: kalman_increments(spec, ys, init), lambda: bpf_loglik(spec, ys, init, particles=16, seed=0)):
                with pytest.raises(ValueError, match="point mass has dimensions|Gaussian init has dimension"):
                    call()
        good = PointMass([1.0, -0.5], 0.3)
        assert np.isfinite(kalman_increments(spec, ys, good)).all()
        assert np.isfinite(bpf_loglik(spec, ys, good, particles=16, seed=0).value)


class TestLinearQuadrature:
    """The linear quadrature takes every factor from ``trans_logpdf``, through the shared row-block kernel."""

    def test_matches_kalman_for_every_initial_law(self):
        spec = glm_spec(GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))
        ys = simulated_obs(spec, 3, seed=42)
        for init in (Stationary(), PointMass(1.5, -0.5), GaussianOnZ([0.2, 0.1], [[0.5, 0.1], [0.1, 0.4]])):
            assert abs(quadrature_loglik(spec, ys, init, nodes=801).value - kalman_loglik(spec, ys, init).value) < 1e-6

    def test_row_block_kernel_is_the_one_shot_kernel(self):
        spec = glm_spec(GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))

        def log_q(z0, z1):
            return spec.trans_logpdf((z0[..., :1], z0[..., 1:]), (z1[..., :1], z1[..., 1:]))

        rng = np.random.default_rng(43)
        rows, cols = rng.standard_normal((700, 2)), rng.standard_normal((300, 2))  # 700 rows span several blocks
        assert _transition_kernel(log_q, rows, cols).tobytes() == np.exp(log_q(rows[:, None], cols[None, :])).tobytes()
        qx = scalar_ssm(0.6).hmm.qx_logpdf
        grid = np.linspace(-5.0, 5.0, 401)
        assert _transition_kernel(qx, grid, grid).tobytes() == np.exp(qx(grid[:, None], grid[None, :])).tobytes()


_REAL = scalar_ssm(0.5)
_JOINT = glm_spec(GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))
_FINITE = finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.2, 0.8]]))

# every public likelihood entry point: name -> (spec, call on (spec, obs, init))
ENTRY_POINTS = {
    "kalman_increments": (_REAL, kalman_increments),
    "kalman_increments/joint": (_JOINT, kalman_increments),
    "kalman_loglik": (_REAL, kalman_loglik),
    "kalman_loglik/joint": (_JOINT, kalman_loglik),
    "ssm_kalman_increments": (_REAL, lambda s, y, i: ssm_kalman_increments(s.ssm, y, i)),
    "ssm_kalman_loglik": (_REAL, lambda s, y, i: ssm_kalman_loglik(s.ssm, y, i)),
    "increments/kalman": (_REAL, lambda s, y, i: increments(s, y, i, "kalman")),
    "grid_increments/kalman": (_REAL, lambda s, y, i: grid_increments([s, scalar_ssm(0.4)], y, i, "kalman")),
    "grid_increments/joint": (_JOINT, lambda s, y, i: grid_increments([s, s], y, i, "kalman")),
    "grid_increments/record": (_REAL, lambda s, y, i: grid_increments(ScalarSsmGrid([0.5, 0.4], 1.0, 1.0, 0.2), y, i, "kalman")),
    "loglik/kalman": (_REAL, lambda s, y, i: loglik(s, y, i, "kalman")),
    "loglik/bpf": (_REAL, lambda s, y, i: loglik(s, y, i, "bpf", particles=16)),
    "loglik/quadrature": (_REAL, lambda s, y, i: loglik(s, y, i, "quadrature", nodes=101)),
    "bpf_loglik": (_REAL, lambda s, y, i: bpf_loglik(s, y, i, particles=16, seed=0)),
    "quadrature_loglik": (_REAL, lambda s, y, i: quadrature_loglik(s, y, i, nodes=101)),
    "quadrature_loglik/joint": (_JOINT, lambda s, y, i: quadrature_loglik(s, y, i, nodes=101)),
    "forward_increments": (_FINITE, forward_increments),
    "forward_loglik": (_FINITE, forward_loglik),
    "enumeration_loglik": (_FINITE, enumeration_loglik),
    "increments/forward": (_FINITE, lambda s, y, i: increments(s, y, i, "forward")),
    "grid_increments/forward": (_FINITE, lambda s, y, i: grid_increments([s, s], y, i, "forward")),
    "loglik/forward": (_FINITE, lambda s, y, i: loglik(s, y, i, "forward")),
    "loglik/bpf/finite": (_FINITE, lambda s, y, i: loglik(s, y, i, "bpf", particles=16)),
    "bpf_loglik/finite": (_FINITE, lambda s, y, i: bpf_loglik(s, y, i, particles=16, seed=0)),
}

_CUSTOM = CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1)))
# malformed input class -> (obs on a real chain, obs on a finite chain, init, the error it raises); None: no such input
MALFORMED = {
    "nan": ([0.1, np.nan, 0.2], [0, np.nan, 1], Stationary(), "observation 1 is not finite"),
    "wrong_shape": (np.zeros((3, 2)), np.zeros((3, 2), int), Stationary(), r"observations must have shape \(n, 1\), got \(3, 2\)"),
    "fractional_symbol": (None, [0, 1.5, 1], Stationary(), r"observation symbols must lie in 0\.\.1"),
    "symbol_too_large": (None, [0, 1e300, 1], Stationary(), r"observation symbols must lie in 0\.\.1"),
    "negative_symbol": (None, [0, -1, 1], Stationary(), r"observation symbols must lie in 0\.\.1"),
    "empty_custom_init": (np.empty(0), np.empty(0), _CUSTOM, "CustomInit"),
    "empty_point_mass_of_wrong_dimension": (np.empty(0), [], PointMass([0.0, 1.0], 0.0), "point mass has dimensions"),
    "empty_point_mass_off_the_chain": (None, np.empty(0), PointMass(5, 0), r"point-mass state must be an integer in 0\.\.1"),
}


def _boundary_cases():
    for entry, (spec, _) in ENTRY_POINTS.items():
        for case, (real, symbols, _, _) in MALFORMED.items():
            if (symbols if spec.finite is not None else real) is not None:
                yield pytest.param(entry, case, id=f"{entry}-{case}")


class TestObservationBoundary:
    """Every public likelihood entry point rejects each class of malformed input, at every length."""

    @pytest.mark.parametrize("entry, case", list(_boundary_cases()))
    def test_rejects_malformed_input(self, entry, case):
        spec, call = ENTRY_POINTS[entry]
        real, symbols, init, message = MALFORMED[case]
        obs = symbols if spec.finite is not None else real
        with pytest.raises(ValueError, match=message):
            call(spec, obs, init)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_empty_sequence_has_likelihood_one(self, entry):
        spec, call = ENTRY_POINTS[entry]
        out = call(spec, np.empty(0), Stationary())
        assert getattr(out, "n", 0) == 0
        assert float(np.sum(getattr(out, "value", out))) == 0.0


class TestNumpyOnlyRuntime:
    """numpy is the only runtime dependency: no evaluator imports scipy."""

    SCRIPT = """
import sys
import numpy as np
import pommkit as pk

ssm = pk.scalar_ssm(0.5)
linear = pk.glm_spec(pk.GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))
sv = pk.sv_spec(pk.SvParams(1.0, 0.3, 0.9))
finite = pk.finite_hmm_spec(pk.FiniteHmmParams([[0.7, 0.3], [0.2, 0.8]], [[0.9, 0.1], [0.2, 0.8]]))
ys, symbols = np.array([0.3, -0.4]), np.array([0, 1])
pk.loglik(ssm, ys, pk.Stationary(), "kalman")
pk.loglik(linear, ys, pk.Stationary(), "kalman")
pk.loglik(finite, symbols, pk.Stationary(), "forward")
pk.enumeration_loglik(finite, symbols, pk.Stationary())
pk.loglik(sv, ys, pk.Stationary(), "bpf", particles=16)
pk.loglik(sv, ys, pk.Stationary(), "quadrature", nodes=101)
pk.loglik(linear, ys, pk.Stationary(), "quadrature", nodes=101)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""

    def test_evaluators_do_not_import_scipy(self):
        src = str(Path(likelihood.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.strip() == "[]"
