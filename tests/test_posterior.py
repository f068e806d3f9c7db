"""Grid posteriors, concentration, AMLE, merging, remoteness, MH, identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pommkit import (
    CustomInit,
    DegeneratePosteriorError,
    FiniteHmmParams,
    ParamGrid,
    PointMass,
    ScalarSsmGrid,
    Stationary,
    amle_grid,
    concentration_profile,
    enumeration_loglik,
    finite_hmm_spec,
    forward_loglik,
    grid_loglik_profiles,
    grid_posterior,
    image_density_check,
    image_ratio_markov_check,
    loglik,
    merging_curve,
    mh_posterior,
    posterior_from_profiles,
    project_observations,
    remoteness_rate,
    scalar_ssm,
    simulate_complete,
    uniform_grid_1d,
)
from pommkit.posterior import write_concentration_csv, write_posterior_csv


def finite_family(e_values, p_stay=0.7):
    """2-state HMMs indexed by an emission-accuracy parameter."""
    specs = []
    for e in np.atleast_1d(e_values):
        P = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
        G = np.array([[e, 1 - e], [1 - e, e]])
        specs.append(finite_hmm_spec(FiniteHmmParams(P, G)))
    return specs


class TestGridPosterior:
    def grid3(self):
        return ParamGrid(np.array([[0.6], [0.75], [0.9]]), np.array([0.2, 0.5, 0.3]))

    def test_non_finite_grid_points_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ParamGrid([[bad], [1.0]])
            with pytest.raises(ValueError, match="finite"):
                uniform_grid_1d(bad, 1.0, 3)
            with pytest.raises(ValueError, match="finite"):
                uniform_grid_1d(0.0, bad, 3)

    def test_empty_or_zero_dimensional_grid_rejected(self):
        for points in (np.empty((0, 1)), [], np.empty((3, 0))):
            with pytest.raises(ValueError, match=r"points must be a \(G, d\) array with G, d >= 1"):
                ParamGrid(points)

    def test_non_finite_or_negative_cell_volume_rejected(self):
        for volume in ([np.inf, 1.0], [np.nan, 1.0], [-0.1, 1.0]):
            with pytest.raises(ValueError, match="cell volumes must be finite and non-negative"):
                ParamGrid([[0.0], [1.0]], cell_volume=volume)
        assert ParamGrid([[0.0], [1.0]], cell_volume=[0.0, 1.0]).cell_volume[0] == 0.0

    def test_non_integer_count_rejected(self):
        for count in (2.0, 3.5, True):
            with pytest.raises(ValueError, match="need an integer count >= 2"):
                uniform_grid_1d(0.0, 1.0, count)
        assert len(uniform_grid_1d(0.0, 1.0, np.int64(3))) == 3

    def test_empty_sequence_checks_the_initial_law(self):
        grid = self.grid3()
        specs = [scalar_ssm(float(a)) for a in grid.points[:, 0]]
        custom = CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1)))
        for method in ("kalman", "bpf", "quadrature"):
            with pytest.raises(ValueError, match="CustomInit"):
                grid_posterior(specs, grid, np.empty(0), custom, method)
            with pytest.raises(ValueError, match="point mass has dimensions"):
                grid_posterior(specs, grid, np.empty(0), PointMass([0.0, 1.0], 0.0), method)
        with pytest.raises(ValueError, match=r"point-mass state must be an integer in 0\.\.1"):
            grid_posterior(finite_family(grid.points[:, 0]), grid, np.empty(0), PointMass(5, 0), "forward")

    def test_no_data_returns_normalized_prior(self):
        grid = self.grid3()
        post = grid_posterior(finite_family(grid.points[:, 0]), grid, np.empty(0), Stationary(), "forward")
        np.testing.assert_allclose(post.masses(), [0.2, 0.5, 0.3], atol=1e-15)

    def test_matches_brute_force_bayes(self):
        grid = self.grid3()
        specs = finite_family(grid.points[:, 0])
        ys = np.array([0, 1, 1, 0])
        post = grid_posterior(specs, grid, ys, Stationary(), "forward")
        liks = np.array([np.exp(enumeration_loglik(s, ys, Stationary())) for s in specs])
        expected = grid.prior_weight * liks
        expected /= expected.sum()
        np.testing.assert_allclose(post.masses(), expected, atol=1e-12)

    def test_prior_rescaling_invariance_exact(self):
        grid = self.grid3()
        specs = finite_family(grid.points[:, 0])
        ys = np.array([0, 1, 0])
        post1 = grid_posterior(specs, grid, ys, Stationary(), "forward")
        scaled = ParamGrid(grid.points, 7.0 * grid.prior_weight, grid.cell_volume)
        post2 = grid_posterior(specs, scaled, ys, Stationary(), "forward")
        # exact ratio identity; floats leave only rounding of log(7 w)
        np.testing.assert_allclose(post1.log_mass, post2.log_mass, rtol=0, atol=1e-13)

    def test_loglik_constant_shift_invariance_exact(self):
        # adding any constant to all log likelihoods cancels in the ratio
        grid = self.grid3()
        with np.errstate(divide="ignore"):
            log_prior = np.log(grid.prior_weight)
        lls = np.array([-10.0, -12.0, -9.0])
        from pommkit.posterior import _normalize_log_mass

        a = _normalize_log_mass(log_prior + lls, 3, grid)
        b = _normalize_log_mass(log_prior + (lls + 123.456), 3, grid)
        np.testing.assert_allclose(a.log_mass, b.log_mass, rtol=0, atol=1e-13)

    def test_normalization(self):
        grid = self.grid3()
        specs = finite_family(grid.points[:, 0])
        ys = np.array([0, 1, 1, 0, 0, 1])
        post = grid_posterior(specs, grid, ys, Stationary(), "forward")
        assert abs(post.masses().sum() - 1.0) < 1e-10
        assert abs((np.exp(post.log_density()) * grid.cell_volume).sum() - 1.0) < 1e-10

    def test_degenerate_posterior_raises(self):
        # emissions that make the observed string impossible for every theta
        specs = [finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]))] * 2
        grid = ParamGrid(np.array([[0.0], [1.0]]))
        with pytest.raises(DegeneratePosteriorError):
            grid_posterior(specs, grid, np.array([0, 1]), Stationary(), "forward")

    def test_misspelt_likelihood_option_rejected(self):
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        grid = uniform_grid_1d(0.2, 0.5, 2)
        with pytest.raises(TypeError):
            grid_posterior(specs, grid, np.array([0.1, 0.3]), Stationary(), "bpf", particle=3)
        # rejected before the no-data shortcut and before the batched exact path
        with pytest.raises(TypeError):
            grid_posterior(specs, grid, np.empty(0), Stationary(), "bpf", particle=3)
        with pytest.raises(TypeError):
            amle_grid(specs, grid, np.array([0.1, 0.3]), Stationary(), "kalman", particle=3)

    def test_non_finite_observations_rejected(self):
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        grid = uniform_grid_1d(0.2, 0.5, 2)
        obs = np.array([0.1, 0.3, -0.2, np.nan, 0.4])
        for method in ("kalman", "bpf", "quadrature"):
            with pytest.raises(ValueError, match="observation 3 is not finite"):
                grid_posterior(specs, grid, obs, Stationary(), method)
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            grid_posterior(finite_family([0.6, 0.8]), grid, np.array([0.0, np.inf]), Stationary(), "forward")

    def test_batched_sweep_matches_per_spec_loglik(self):
        spec_star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(spec_star, Stationary(), 300, seed=8))
        grid = uniform_grid_1d(-0.8, 0.8, 17)
        grid = ParamGrid(grid.points, np.where(np.arange(17) == 4, 0.0, grid.prior_weight), grid.cell_volume)
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        for init in (Stationary(), PointMass(4.0, 4.0)):
            lls = np.array([loglik(s, obs, init, "kalman").value for s in specs])
            with np.errstate(divide="ignore"):
                log_unnorm = np.log(grid.prior_weight) + lls
            top = log_unnorm.max()
            expected = log_unnorm - (top + np.log(np.exp(log_unnorm - top).sum()))
            post = grid_posterior(specs, grid, obs, init, "kalman")
            np.testing.assert_allclose(post.log_mass, expected, rtol=0, atol=1e-12)
            res = amle_grid(specs, grid, obs, init, "kalman")
            assert res.index == int(np.argmax(lls))
            assert abs(res.loglik - lls.max()) <= 1e-12 * abs(lls.max())

    def test_profiles_agree_with_direct_evaluation(self):
        spec_star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(spec_star, Stationary(), 60, seed=3))
        grid = uniform_grid_1d(-0.8, 0.8, 17)
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        profiles = grid_loglik_profiles(specs, obs, Stationary())
        for n in (1, 30, 60):
            direct = grid_posterior(specs, grid, obs[:n], Stationary(), "kalman")
            from_prof = posterior_from_profiles(grid, profiles, n)
            np.testing.assert_allclose(direct.log_mass, from_prof.log_mass, atol=1e-9)


    def test_profiles_reject_non_finite_observations(self):
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            grid_loglik_profiles(specs, np.array([0.1, np.inf, 0.2]), Stationary())


class TestConcentration:
    def test_point_mass_posterior(self):
        grid = uniform_grid_1d(-1.0, 1.0, 21)
        log_mass = np.full(21, -np.inf)
        log_mass[10] = 0.0
        from pommkit.posterior import PosteriorGrid

        post = PosteriorGrid(grid=grid, n=5, log_mass=log_mass)
        rows = concentration_profile([post], np.array([0.0]), ps=[1, 2, 5, 100])
        assert all(r.mass_outside == 0.0 for r in rows)

    def test_uniform_on_unit_interval(self):
        # support strictly inside the closed unit ball around the center
        centers = np.linspace(-0.95, 0.95, 20)[:, None]
        grid = ParamGrid(centers, np.full(20, 0.05), np.full(20, 0.1))
        from pommkit.posterior import PosteriorGrid

        post = PosteriorGrid(grid=grid, n=1, log_mass=np.log(np.full(20, 1.0 / 20)))
        rows = concentration_profile([post], np.array([0.0]), ps=[1])
        assert rows[0].mass_outside == 0.0

    def test_non_integer_radius_rejected(self):
        post = posterior_from_profiles(uniform_grid_1d(-1.0, 1.0, 5), np.zeros((5, 0)), 0)
        for ps in ([2.5], [0], [2, 2.0], [True]):
            with pytest.raises(ValueError):
                concentration_profile([post], np.array([0.0]), ps=ps)

    def test_theta_star_must_be_finite_with_the_grid_dimension(self):
        post = posterior_from_profiles(uniform_grid_1d(-1.0, 1.0, 5), np.zeros((5, 0)), 0)
        for theta_star in ([np.nan], [np.inf], [0.5, 0.1], [[0.5]], []):
            with pytest.raises(ValueError, match=r"theta_star must be finite, of shape \(1,\)"):
                concentration_profile([post], np.array(theta_star), ps=[2])

    def test_sample_size_must_be_an_integer(self):
        grid = uniform_grid_1d(-1.0, 1.0, 5)
        profiles = np.zeros((5, 3))
        for n in (1.5, 2.0, True):
            with pytest.raises(ValueError, match=r"n must be an integer in 0\.\.3"):
                posterior_from_profiles(grid, profiles, n)
        assert posterior_from_profiles(grid, profiles, np.int64(2)).n == 2

    # one row would broadcast to every point, 180 rows would not broadcast, a 1-D profile has no rows
    @pytest.mark.parametrize("shape", [(1, 40), (180, 40), (40,)], ids=["one_row", "too_few_rows", "one_dimensional"])
    def test_profiles_need_one_row_per_grid_point(self, shape):
        grid = uniform_grid_1d(-0.9, 0.9, 181)
        message = rf"profiles of shape {re.escape(str(shape))} need one row per point of a grid of shape \(181, 1\)"
        with pytest.raises(ValueError, match=message):
            posterior_from_profiles(grid, np.zeros(shape), 20)
        assert posterior_from_profiles(grid, np.zeros((181, 40)), 20).n == 20

    def test_closed_complement_convention(self):
        # cells at distance exactly 1/p count as outside
        grid = ParamGrid(np.array([[0.0], [0.5], [1.0]]))
        from pommkit.posterior import PosteriorGrid

        post = PosteriorGrid(grid=grid, n=1, log_mass=np.log(np.full(3, 1.0 / 3)))
        rows = concentration_profile([post], np.array([0.0]), ps=[2])
        assert abs(rows[0].mass_outside - 2.0 / 3.0) < 1e-15


class TestAmle:
    def test_singleton_grid(self):
        grid = ParamGrid(np.array([[0.8]]))
        res = amle_grid(finite_family([0.8]), grid, np.array([0, 1, 0]), Stationary(), "forward")
        assert res.index == 0 and res.point[0] == 0.8

    def test_tie_breaks_to_lowest_index(self):
        # three identical models tie exactly; the first index wins
        grid = ParamGrid(np.array([[0.8], [0.8], [0.8]]))
        specs = finite_family(grid.points[:, 0])
        res = amle_grid(specs, grid, np.array([0, 1, 0, 0]), Stationary(), "forward")
        assert res.index == 0

    def test_identifiable_model_recovers_truth(self):
        e_star = 0.8
        truth = finite_family([e_star])[0]
        obs = project_observations(simulate_complete(truth, Stationary(), 500, seed=77)).reshape(-1)
        grid = uniform_grid_1d(0.55, 0.95, 9)  # step 0.05, contains 0.8
        specs = finite_family(grid.points[:, 0])
        star_ll = forward_loglik(truth, obs, Stationary()).value
        res = amle_grid(specs, grid, obs, Stationary(), "forward", star_loglik=star_ll)
        assert abs(res.point[0] - e_star) < 0.051
        assert res.epsilon_n is not None and abs(res.epsilon_n) < 0.05

    def test_all_impossible_raises(self):
        specs = [finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]))]
        grid = ParamGrid(np.array([[0.0]]))
        with pytest.raises(ValueError):
            amle_grid(specs, grid, np.array([1]), Stationary(), "forward")

    def test_non_finite_observations_rejected(self):
        grid = uniform_grid_1d(0.2, 0.5, 2)
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        with pytest.raises(ValueError, match="observation 0 is not finite"):
            amle_grid(specs, grid, np.array([np.nan, 0.1]), Stationary())

    def test_one_spec_per_grid_point_required(self):
        grid = uniform_grid_1d(0.2, 0.5, 2)
        obs = np.array([0.1, 0.3])
        for specs in ([scalar_ssm(a) for a in (0.2, 0.3, 0.5)], [scalar_ssm(0.2)]):
            with pytest.raises(ValueError, match="one model per grid point"):
                amle_grid(specs, grid, obs, Stationary())

    def test_argmax_invariant_under_monotone_rescaling(self):
        # the argmax over the grid does not care about the likelihood scale
        grid = uniform_grid_1d(0.55, 0.95, 9)
        specs = finite_family(grid.points[:, 0])
        obs = project_observations(simulate_complete(specs[5], Stationary(), 200, seed=30)).reshape(-1)
        res = amle_grid(specs, grid, obs, Stationary(), "forward")
        lls = np.array([forward_loglik(s, obs, Stationary()).value for s in specs])
        assert res.index == int(np.argmax(lls)) == int(np.argmax(3.0 * lls + 7.0)) == int(np.argmax(np.exp(lls - lls.max())))


class TestScalarSsmGridRecord:
    """The grid calls give a ``ScalarSsmGrid`` the bits of its list of specs."""

    def setup(self, n=400, seed=11):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=seed))
        grid = uniform_grid_1d(-0.9, 0.9, 37)
        grid = ParamGrid(grid.points, np.linspace(1.0, 2.0, 37), grid.cell_volume)
        a = grid.points[:, 0]
        record = ScalarSsmGrid(a, 1.3, 0.8, 0.2)
        specs = [scalar_ssm(float(v), 1.3, 0.8, 0.2) for v in a]
        return star, obs, grid, record, specs

    def test_posterior_amle_and_remoteness_equal_the_spec_list(self):
        star, obs, grid, record, specs = self.setup()
        mask = np.abs(grid.points[:, 0] - 0.5) >= 0.5
        ns = list(range(50, 401, 50))
        for init in (Stationary(), PointMass(1.5, -0.5)):
            got, want = grid_posterior(record, grid, obs, init), grid_posterior(specs, grid, obs, init)
            assert (got.n, got.log_mass.tobytes()) == (want.n, want.log_mass.tobytes())
            star_ll = loglik(star, obs, Stationary(), "kalman").value
            got, want = (amle_grid(m, grid, obs, init, star_loglik=star_ll) for m in (record, specs))
            assert (got.index, got.point.tobytes(), got.loglik, got.epsilon_n) == (
                want.index, want.point.tobytes(), want.loglik, want.epsilon_n)
            for select in (mask, np.ones(len(grid), bool), lambda pt: pt[0] <= -0.3):
                got, want = (remoteness_rate(m, grid, select, obs, init, star, ns) for m in (record, specs))
                assert (got.slope, got.decaying, got.flags) == (want.slope, want.decaying, want.flags)
                assert (got.ns.tobytes(), got.log_ratio.tobytes()) == (want.ns.tobytes(), want.log_ratio.tobytes())

    def test_record_checks(self):
        star, obs, grid, record, specs = self.setup(n=50)
        short = ScalarSsmGrid(grid.points[:-1, 0], 1.3, 0.8, 0.2)
        for call in (lambda: grid_posterior(short, grid, obs, Stationary()),
                     lambda: amle_grid(short, grid, obs, Stationary()),
                     lambda: remoteness_rate(short, grid, np.ones(37, bool), obs, Stationary(), star, [10, 20])):
            with pytest.raises(ValueError, match="one model per grid point"):
                call()
        for method, kw in (("bpf", {"particles": 16}), ("quadrature", {"nodes": 11}), ("forward", {})):
            with pytest.raises(ValueError, match="a scalar state-space grid uses the exact kalman likelihood"):
                grid_posterior(record, grid, obs[:5], Stationary(), method, **kw)


class TestPosteriorInvariance:
    """A grid posterior is unchanged when every prior weight is scaled and every log likelihood shifted."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=12),
        log_scale=st.floats(-6.0, 6.0),
        shift=st.floats(-100.0, 100.0),
        n=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_prior_scale_and_loglik_shift(self, weights, log_scale, shift, n, seed):
        g = len(weights)
        points = np.linspace(-0.9, 0.9, g)[:, None]
        grid = ParamGrid(points, np.array(weights))
        scaled = ParamGrid(points, 10.0**log_scale * np.array(weights))
        record = ScalarSsmGrid(points[:, 0], 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(scalar_ssm(0.5), Stationary(), 60, seed=seed))
        profiles = grid_loglik_profiles(record, obs, Stationary())
        want = posterior_from_profiles(grid, profiles, n).log_mass
        for post in (
            posterior_from_profiles(scaled, profiles, n),
            posterior_from_profiles(grid, profiles + shift, n),
            posterior_from_profiles(scaled, profiles + shift, n),
            grid_posterior(record, grid, obs[:n], Stationary()),
            grid_posterior(record, scaled, obs[:n], Stationary()),
        ):
            np.testing.assert_allclose(post.log_mass, want, rtol=0, atol=1e-12)


class TestMerging:
    def test_stationary_numerator_is_identically_zero(self):
        spec = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(spec, Stationary(), 50, seed=5))
        curve = merging_curve(spec, obs, Stationary())
        assert np.array_equal(curve, np.zeros(50))

    def test_finite_model_point_mass_start(self):
        spec = finite_family([0.8])[0]
        obs = project_observations(simulate_complete(spec, Stationary(), 400, seed=6)).reshape(-1)
        curve = merging_curve(spec, obs, PointMass(0, 0))
        assert abs(curve[-1]) < 0.02
        assert abs(curve[-1]) <= abs(curve[0]) + 1e-12

    def test_wrong_parameter_level_respects_divergence_bound(self):
        # against the true reference in the denominator, the curve of a
        # wrong parameter settles no lower than minus the transition KLD
        from pommkit import delta_glm_closed

        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        wrong = scalar_ssm(0.2, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), 2000, seed=7))
        curve = merging_curve(wrong, obs, Stationary(), den_spec=star)
        delta = delta_glm_closed(star.glm, wrong.glm).value
        assert curve[-1] >= -delta - 0.05
        assert curve[-1] < 0.0  # a wrong parameter does lose likelihood

    def test_non_finite_observations_rejected(self):
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            merging_curve(scalar_ssm(0.5), np.array([0.1, np.nan, 0.3]), PointMass(1.0, 1.0))


class TestRemoteness:
    def setup_ssm(self, n=1200, seed=8):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=seed))
        grid = uniform_grid_1d(-0.9, 0.9, 37)
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        return star, obs, grid, specs

    def test_far_set_decays_and_reference_set_does_not(self):
        star, obs, grid, specs = self.setup_ssm()
        ns = list(range(100, 1201, 100))
        far = remoteness_rate(specs, grid, np.abs(grid.points[:, 0] - 0.5) >= 0.5, obs, Stationary(), star, ns)
        assert far.decaying and far.slope < -0.01
        whole = remoteness_rate(specs, grid, np.ones(len(grid), bool), obs, Stationary(), star, ns)
        assert whole.slope >= -0.01 and not whole.decaying

    def test_callable_selector(self):
        star, obs, grid, specs = self.setup_ssm(n=300)
        res = remoteness_rate(specs, grid, lambda pt: pt[0] <= -0.3, obs, Stationary(), star, [100, 200, 300])
        assert res.log_ratio.shape == (3,)

    def test_empty_selection_raises(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        with pytest.raises(ValueError):
            remoteness_rate(specs, grid, np.zeros(len(grid), bool), obs, Stationary(), star, [100])

    def test_non_finite_observations_rejected(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        obs[150] = np.nan
        with pytest.raises(ValueError, match="observation 150 is not finite"):
            remoteness_rate(specs, grid, np.ones(len(grid), bool), obs, Stationary(), star, [100, 200])

    def test_non_integer_sample_sizes_rejected(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        for ns in ([100, 10.5], [100.0, 200], [True, 100]):
            with pytest.raises(ValueError, match="sample sizes must be integers"):
                remoteness_rate(specs, grid, np.ones(len(grid), bool), obs, Stationary(), star, ns)

    def test_one_spec_per_grid_point_required(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        with pytest.raises(ValueError, match="one model per grid point"):
            remoteness_rate(specs[:5], grid, np.ones(len(grid), bool), obs, Stationary(), star, [100, 200])
        with pytest.raises(ValueError, match="one model per grid point"):
            remoteness_rate(specs + specs[:1], grid, np.ones(len(grid), bool), obs, Stationary(), star, [100, 200])

    def test_label_swap_duplicate_blocks_decay(self):
        # a permuted copy of the reference parameter produces the same
        # observation law, so a set containing it cannot be remote
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        G = np.array([[0.9, 0.1], [0.2, 0.8]])
        star = finite_hmm_spec(FiniteHmmParams(P, G))
        swapped = finite_hmm_spec(FiniteHmmParams(P[::-1, ::-1], G[::-1, :]))
        decoy = finite_hmm_spec(FiniteHmmParams(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.6, 0.4], [0.4, 0.6]])))
        obs = project_observations(simulate_complete(star, Stationary(), 800, seed=9)).reshape(-1)
        grid = ParamGrid(np.array([[0.0], [1.0]]))
        res = remoteness_rate(
            [swapped, decoy], grid, np.ones(2, bool), obs, Stationary(), star,
            list(range(100, 801, 100)), method="forward",
        )
        assert not res.decaying and "no_decay" in res.flags


class TestMetropolis:
    def flat_prior(self, lo=-0.9, hi=0.9):
        def logpdf(th):
            return 0.0 if lo <= th[0] <= hi else -np.inf

        return logpdf

    def build(self, th):
        a = float(th[0])
        return scalar_ssm(a, 1.0, 1.0, 0.2) if abs(a) < 1 else None

    def test_matches_grid_oracle_mean(self):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), 100, seed=10))
        grid = uniform_grid_1d(-0.9, 0.9, 181)
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        oracle = grid_posterior(specs, grid, obs, Stationary(), "kalman").mean()[0]
        res = mh_posterior(
            self.build, self.flat_prior(), obs, Stationary(),
            theta0=np.array([0.0]), steps=6000, proposal_sd=np.array([0.15]), seed=11,
        )
        chain = res.samples[1000:, 0]
        batches = chain.reshape(10, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(10)
        assert 0.1 < res.acceptance_rate < 0.9
        assert abs(chain.mean() - oracle) < 3 * se + 0.005

    def test_two_seeds_agree(self):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), 100, seed=12))
        means, ses = [], []
        for seed in (13, 14):
            res = mh_posterior(
                self.build, self.flat_prior(), obs, Stationary(),
                theta0=np.array([0.0]), steps=6000, proposal_sd=np.array([0.15]), seed=seed,
            )
            chain = res.samples[1000:, 0]
            means.append(chain.mean())
            ses.append(chain.reshape(10, -1).mean(axis=1).std(ddof=1) / np.sqrt(10))
        assert abs(means[0] - means[1]) < 3 * np.hypot(*ses)

    def test_zero_proposal_flagged(self):
        obs = np.array([0.1, -0.2])
        res = mh_posterior(
            self.build, self.flat_prior(), obs, Stationary(),
            theta0=np.array([0.3]), steps=50, proposal_sd=np.array([0.0]), seed=15,
        )
        assert "degenerate_proposal" in res.flags
        assert np.all(res.samples == 0.3)

    def test_zero_density_start_raises(self):
        with pytest.raises(ValueError):
            mh_posterior(
                self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                theta0=np.array([5.0]), steps=10, proposal_sd=np.array([0.1]), seed=16,
            )

    def test_non_finite_start_rejected(self):
        for theta0 in ([np.nan], [np.inf]):
            with pytest.raises(ValueError, match="theta0 must be finite"):
                mh_posterior(
                    self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                    theta0=np.array(theta0), steps=10, proposal_sd=np.array([0.1]), seed=16,
                )

    def test_proposal_sd_must_be_finite_non_negative_of_the_start_length(self):
        for sd in ([np.nan], [np.inf], [-0.1], [0.1, 0.1], [[0.1]]):
            with pytest.raises(ValueError, match="proposal_sd must hold 1 finite non-negative entries"):
                mh_posterior(
                    self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                    theta0=np.array([0.0]), steps=10, proposal_sd=np.array(sd), seed=16,
                )

    def test_steps_must_be_a_positive_integer(self):
        for steps in (0, -3, 2.5, True):
            with pytest.raises(ValueError):
                mh_posterior(
                    self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                    theta0=np.array([0.0]), steps=steps, proposal_sd=np.array([0.1]), seed=16,
                )

    def test_determinism(self):
        obs = np.array([0.1, -0.2, 0.4])
        kw = dict(theta0=np.array([0.2]), steps=200, proposal_sd=np.array([0.2]), seed=17)
        a = mh_posterior(self.build, self.flat_prior(), obs, Stationary(), **kw)
        b = mh_posterior(self.build, self.flat_prior(), obs, Stationary(), **kw)
        assert np.array_equal(a.samples, b.samples)

    def test_pseudo_marginal_flagged_and_runs(self):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), 30, seed=18))
        res = mh_posterior(
            self.build, self.flat_prior(), obs, Stationary(),
            theta0=np.array([0.2]), steps=200, proposal_sd=np.array([0.2]), seed=19,
            method="bpf", particles=128,
        )
        assert "pseudo_marginal" in res.flags
        assert 0.0 < res.acceptance_rate < 1.0


class TestImageDensityIdentity:
    def random_pair(self, rng):
        P1 = rng.dirichlet(np.ones(2), size=2)
        P2 = rng.dirichlet(np.ones(2), size=2)
        G1 = rng.dirichlet(np.ones(2), size=2)
        G2 = rng.dirichlet(np.ones(2), size=2)
        return finite_hmm_spec(FiniteHmmParams(P1, G1)), finite_hmm_spec(FiniteHmmParams(P2, G2))

    def test_identity_at_reference(self):
        rng = np.random.default_rng(20)
        star, _ = self.random_pair(rng)
        resid = image_density_check(star, star, Stationary(), n=3)
        assert resid < 1e-12

    def test_identity_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            star, other = self.random_pair(rng)
            assert image_density_check(star, other, Stationary(), n=3) < 1e-12

    def test_point_mass_inference_init(self):
        rng = np.random.default_rng(22)
        star, other = self.random_pair(rng)
        assert image_density_check(star, other, PointMass(0, 0), n=3) < 1e-12

    def test_markov_exceedance_bound(self):
        rng = np.random.default_rng(23)
        star, other = self.random_pair(rng)
        n, sims = 4, 3000
        frac, bound = image_ratio_markov_check(star, other, Stationary(), n=n, sims=sims, seed=24)
        se = np.sqrt(bound * (1 - bound) / sims)
        assert frac <= bound + 3 * se


class TestSerialization:
    def test_posterior_csv(self, tmp_path):
        grid = uniform_grid_1d(-0.5, 0.5, 11)
        from pommkit.posterior import PosteriorGrid

        post = PosteriorGrid(grid=grid, n=3, log_mass=np.log(np.full(11, 1.0 / 11)))
        path = tmp_path / "post.csv"
        write_posterior_csv(post, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta0,log_post"
        assert len(lines) == 12

    def test_concentration_csv(self, tmp_path):
        from pommkit.posterior import ConcentrationRow

        rows = [ConcentrationRow(100, 5, 0.25), ConcentrationRow(400, 5, 0.01)]
        path = tmp_path / "conc.csv"
        write_concentration_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,p,mass_outside"
        assert lines[1] == "100,5,0.25"
