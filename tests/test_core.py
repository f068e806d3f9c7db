"""Simulation, projection and initial-law basics."""

import numpy as np
import pytest

from pommkit import (
    CustomInit,
    FiniteHmmParams,
    GaussianOnZ,
    NoStationarySamplerError,
    PointMass,
    Stationary,
    SvParams,
    bpf_loglik,
    finite_hmm_spec,
    forward_loglik,
    iid_gaussian_spec,
    mh_posterior,
    project_observations,
    simulate_complete,
    sv_spec,
)
from pommkit.core import UnsupportedInitError
from pommkit.models import GlmParams, glm_spec, scalar_ssm


def make_iid_glm():
    # Phi = 0, R = I: the chain is i.i.d. N(0, I2), stationary law N(0, I2)
    return glm_spec(GlmParams(np.zeros((2, 2)), np.eye(2), 1, 1))


class TestSimulation:
    def test_stationary_marginal_covariance(self):
        spec = make_iid_glm()
        traj = simulate_complete(spec, Stationary(), 100_000, seed=1)
        z = np.hstack([traj.x, traj.y])
        cov = np.cov(z.T)
        # var of a squared standard normal sample mean: se ~ sqrt(2/n)
        se = np.sqrt(2.0 / len(z))
        assert np.all(np.abs(np.diag(cov) - 1.0) < 3 * se)
        assert abs(cov[0, 1]) < 3 * np.sqrt(1.0 / len(z))

    def test_point_mass_start(self):
        spec = make_iid_glm()
        traj = simulate_complete(spec, PointMass(2.0, -1.0), 1, seed=0)
        assert len(traj) == 2
        assert traj.x[0, 0] == 2.0 and traj.y[0, 0] == -1.0

    def test_same_seed_bitwise_identical(self):
        spec = scalar_ssm(0.5)
        t1 = simulate_complete(spec, Stationary(), 200, seed=42)
        t2 = simulate_complete(spec, Stationary(), 200, seed=42)
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)
        t3 = simulate_complete(spec, Stationary(), 200, seed=43)
        assert not np.array_equal(t1.y, t3.y)

    def test_custom_init(self):
        spec = make_iid_glm()
        init = CustomInit(sampler=lambda rng: (np.array([9.0]), np.array([9.0])))
        traj = simulate_complete(spec, init, 1, seed=0)
        assert traj.x[0, 0] == 9.0

    def test_custom_draws_checked(self):
        spec = scalar_ssm(0.5)
        wrong_size = CustomInit(sampler=lambda rng: (np.zeros(2), np.zeros(1)))
        with pytest.raises(ValueError, match=r"CustomInit drew .* dimensions \(2, 1\), expected \(1, 1\)"):
            simulate_complete(spec, wrong_size, 3, seed=0)
        for bad in (np.nan, np.inf):
            init = CustomInit(sampler=lambda rng, bad=bad: (np.array([bad]), np.zeros(1)))
            with pytest.raises(ValueError, match="CustomInit drew .* must be finite"):
                simulate_complete(spec, init, 3, seed=0)
        # a draw that takes nothing from the stream starts the path a point mass starts
        fixed = simulate_complete(spec, CustomInit(sampler=lambda rng: (0.3, [-1.0])), 5, seed=4)
        point = simulate_complete(spec, PointMass(0.3, -1.0), 5, seed=4)
        assert fixed.x.tobytes() == point.x.tobytes() and fixed.y.tobytes() == point.y.tobytes()

    def test_missing_stationary_sampler(self):
        spec = make_iid_glm()
        broken = type(spec)(
            state_dim=1,
            obs_dim=1,
            trans_logpdf=spec.trans_logpdf,
            sample_step=spec.sample_step,
            sample_stationary=None,
        )
        with pytest.raises(NoStationarySamplerError):
            simulate_complete(broken, Stationary(), 5, seed=0)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_complete(make_iid_glm(), Stationary(), 0, seed=0)

    def test_n_must_be_an_integer(self):
        for n in (1.5, 2.0, "3"):
            with pytest.raises(ValueError, match="n must be an integer"):
                simulate_complete(make_iid_glm(), Stationary(), n, seed=0)
        assert len(simulate_complete(make_iid_glm(), Stationary(), np.int64(3), seed=0)) == 4

    def test_initial_law_of_the_wrong_dimension_rejected(self):
        bad = (PointMass([0.3, 7.0], 0.0), PointMass(0.3, [0.0, 7.0]), GaussianOnZ([0.3, 9.0, 9.0], np.eye(3)))
        for spec in (scalar_ssm(0.5), sv_spec(SvParams(1.0, 0.3, 0.9)), iid_gaussian_spec(0.5, 1.5)):
            for init in bad:
                with pytest.raises(ValueError, match="point mass has dimensions|Gaussian init has dimension"):
                    simulate_complete(spec, init, 3, 0)
            assert len(simulate_complete(spec, PointMass(0.3, 0.0), 3, 0)) == 4


class TestSeedsAndStreams:
    """Seeds and stream indices are non-negative integers: a float is rejected, never truncated."""

    def test_rejected_at_every_entry_point(self):
        spec, ys = scalar_ssm(0.5), np.array([0.1, -0.2])

        def mh(seed):
            return mh_posterior(lambda th: spec, lambda th: 0.0, ys, Stationary(), [0.5], 2, [0.1], seed)

        for bad in (1.5, 2.0, -1, np.float64(2.0), "3"):
            for call in (
                lambda: bpf_loglik(spec, ys, Stationary(), 16, seed=bad),
                lambda: simulate_complete(spec, Stationary(), 3, seed=bad),
                lambda: mh(bad),
            ):
                with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                    call()
            for call in (
                lambda: bpf_loglik(spec, ys, Stationary(), 16, seed=0, stream=bad),
                lambda: simulate_complete(spec, Stationary(), 3, 0, stream=bad),
            ):
                with pytest.raises(ValueError, match="stream path .* must hold non-negative integers"):
                    call()

    def test_numpy_integers_are_integers(self):
        spec, ys = scalar_ssm(0.5), np.array([0.1, -0.2])
        want = bpf_loglik(spec, ys, Stationary(), 16, seed=1, stream=2).value
        assert bpf_loglik(spec, ys, Stationary(), 16, seed=np.int64(1), stream=np.uint8(2)).value == want


class TestProjection:
    def test_drops_initial_state(self):
        spec = make_iid_glm()
        traj = simulate_complete(spec, Stationary(), 2, seed=5)
        obs = project_observations(traj)
        assert obs.shape == (2, 1)
        assert np.array_equal(obs, traj.y[1:])

    def test_length_one_trajectory_rejected(self):
        spec = make_iid_glm()
        traj = simulate_complete(spec, Stationary(), 1, seed=5)
        clipped = type(traj)(x=traj.x[:1], y=traj.y[:1])
        with pytest.raises(ValueError):
            project_observations(clipped)

    def test_stationary_composition_moment_stability(self):
        # simulate under the stationary law; first and second halves of the
        # observation stream must agree in mean and variance up to MC noise
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(spec, Stationary(), 40_000, seed=9))[:, 0]
        half = len(obs) // 2
        a, b = obs[:half], obs[half:]
        se_mean = np.sqrt(np.var(obs) / half) * 3  # ignores autocorrelation: use 5x margin
        assert abs(a.mean() - b.mean()) < 5 * se_mean
        assert abs(a.var() / b.var() - 1.0) < 0.15


class TestInitialDistributions:
    def test_gaussian_on_z_validation(self):
        with pytest.raises(ValueError):
            GaussianOnZ(np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
        init = GaussianOnZ(np.zeros(2), np.zeros((2, 2)))  # point mass as degenerate Gaussian
        assert init.cov.shape == (2, 2)

    def test_non_finite_laws_rejected_when_built(self):
        for x, y in ((np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf), ([0.0, np.nan], 1.0)):
            with pytest.raises(ValueError, match="point mass must be finite"):
                PointMass(x, y)
        for mean, cov in (([np.nan, 0.0], np.eye(2)), ([0.0, np.inf], np.eye(2)),
                          ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]), ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="mean and cov must be finite"):
                GaussianOnZ(mean, cov)

    def test_gaussian_on_z_sampling_moments(self):
        spec = make_iid_glm()
        init = GaussianOnZ(np.array([3.0, -3.0]), 0.25 * np.eye(2))
        starts = np.array(
            [simulate_complete(spec, init, 1, seed=s).x[0, 0] for s in range(4000)]
        )
        assert abs(starts.mean() - 3.0) < 3 * 0.5 / np.sqrt(4000)


class TestFiniteInitialState:
    """A finite chain's point mass must sit on a state: simulation, forward and the particle filter agree."""

    spec = finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.2, 0.8]]))

    def calls(self, init):
        return (
            lambda: simulate_complete(self.spec, init, 3, seed=0),
            lambda: forward_loglik(self.spec, np.array([0, 1]), init),
            lambda: bpf_loglik(self.spec, np.array([0, 1]), init, particles=16, seed=0),
        )

    def test_rejects_states_off_the_chain(self):
        for x0 in (1.7, -1, 5):
            for call in self.calls(PointMass(x0, 0)):
                with pytest.raises(ValueError, match=r"point-mass state must be an integer in 0\.\.1"):
                    call()
        with pytest.raises(ValueError, match="point mass must be finite"):  # NaN is rejected when built
            PointMass(np.nan, 0)

    def test_rejects_symbols_off_the_alphabet(self):
        # y0 = 7 would be recorded as an observation, 0.5 would turn the y codes into floats
        for y0 in (7, -1, 0.5):
            for call in self.calls(PointMass(0, y0)):
                with pytest.raises(ValueError, match=r"point-mass symbol must be an integer in 0\.\.1"):
                    call()

    def test_gaussian_law_not_simulated(self):
        # its draws are not states: x0 = 0.296 was recorded and the chain stepped from state 0
        with pytest.raises(UnsupportedInitError, match="finite models take"):
            simulate_complete(self.spec, GaussianOnZ([0.4, 0.6], 0.01 * np.eye(2)), 3, seed=0)

    def test_gaussian_law_not_filtered(self):
        # the particle filter returned a finite value where the forward recursion refuses
        for call in self.calls(GaussianOnZ([0.4, 0.6], 0.01 * np.eye(2)))[1:]:
            with pytest.raises(UnsupportedInitError, match="finite models take"):
                call()

    def test_gaussian_law_off_the_chain_is_not_an_index_error(self):
        with pytest.raises(UnsupportedInitError, match="finite models take"):
            simulate_complete(self.spec, GaussianOnZ([5.0, 0.0], np.eye(2)), 3, seed=0)

    def test_custom_draws_off_the_chain_rejected(self):
        for x0, y0 in ((0.5, 0), (2, 0), (0, 3)):
            init = CustomInit(sampler=lambda rng, x0=x0, y0=y0: (np.array([x0]), np.array([y0])))
            with pytest.raises(ValueError, match="CustomInit drew an invalid initial pair: point-mass"):
                simulate_complete(self.spec, init, 3, seed=0)

    def test_accepts_integer_valued_states(self):
        for x0 in (0, 1, 1.0):
            traj, ll, pf = (call() for call in self.calls(PointMass(x0, 0)))
            assert traj.x[0, 0] == x0 and np.isfinite(ll.value) and np.isfinite(pf.value)
