"""Grid posteriors, concentration, AMLE, merging, remoteness, MH, identities."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pommkit import (
    CustomInit,
    DegeneratePosteriorError,
    FiniteHmmParams,
    GaussianOnZ,
    LogLik,
    ParamGrid,
    PointMass,
    ScalarSsmGrid,
    SsmParams,
    Stationary,
    SvParams,
    amle_grid,
    concentration_profile,
    enumeration_loglik,
    finite_hmm_spec,
    forward_loglik,
    grid_loglik_profiles,
    grid_posterior,
    image_density_check,
    image_ratio_markov_check,
    increments,
    loglik,
    merging_curve,
    mh_posterior,
    posterior_from_profiles,
    project_observations,
    remoteness_rate,
    scalar_ssm,
    simulate_complete,
    ssm_spec,
    sv_spec,
    uniform_grid_1d,
)
from pommkit import likelihood, posterior
from pommkit import rng as rngmod
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
            assert direct.log_mass.tobytes() == from_prof.log_mass.tobytes()

    def test_profiles_reject_non_finite_observations(self):
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        with pytest.raises(ValueError, match="observation 1 is not finite"):
            grid_loglik_profiles(specs, np.array([0.1, np.inf, 0.2]), Stationary())


class TestGridLoglikIsTheProfileEntry:
    """An exact grid log likelihood is the last entry of the point's prefix profile, bit for bit.

    A spec list's buffer is F-order, where numpy's ``sum(axis=0)`` is
    pairwise, as it is on any (n, 1) array; only the cumulated profile
    gives every grid call one summation order.
    """

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(["record", "specs", "forward"]),
        g=st.integers(1, 7),
        n=st.integers(0, 500),
        point_mass=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(case="record", g=3, n=0, point_mass=False, seed=0)
    @example(case="specs", g=1, n=500, point_mass=False, seed=1)
    @example(case="forward", g=1, n=0, point_mass=True, seed=2)
    @example(case="forward", g=4, n=500, point_mass=False, seed=3)
    def test_posterior_and_amle_read_the_profile(self, case, g, n, point_mass, seed):
        rng = np.random.default_rng(seed)
        points = np.sort(rng.uniform(-0.9, 0.9, g))
        grid = ParamGrid(points[:, None], rng.uniform(0.1, 1.0, g))
        if case == "forward":
            models = finite_family(0.55 + 0.2 * (points + 1.0))
            init = PointMass(1, 0) if point_mass else Stationary()
        else:
            models = ScalarSsmGrid(points, 1.0, 1.0, 0.2)
            if case == "specs":
                models = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in points]
            init = PointMass(1.5, -0.5) if point_mass else Stationary()
        star = finite_family([0.75])[0] if case == "forward" else scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), 500, seed=seed))
        if case == "forward":
            obs = obs.reshape(-1)
        method = "forward" if case == "forward" else "kalman"
        profiles = grid_loglik_profiles(models, obs, init, method)
        event(f"{case}, {'n = 0' if n == 0 else 'n > 0'}, {'one point' if g == 1 else 'several points'}")
        post = grid_posterior(models, grid, obs[:n], init, method)
        assert post.log_mass.tobytes() == posterior_from_profiles(grid, profiles, n).log_mass.tobytes()
        res = amle_grid(models, grid, obs[:n], init, method)
        if n:
            assert res.index == int(np.argmax(profiles[:, n - 1]))
            assert res.loglik == profiles[res.index, n - 1]
        else:
            assert (res.index, res.loglik) == (0, 0.0)


class TestProfileMemory:
    def test_profiles_allocate_one_step_by_point_buffer(self):
        # an n-length variance buffer, a transposed copy and a cumulative copy kept two (n, G) buffers alive at once
        G, n = 181, 20_000
        grid = ScalarSsmGrid(np.linspace(-0.9, 0.9, G), 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(scalar_ssm(0.5), Stationary(), n, 3))
        tracemalloc.start()
        try:
            profiles = grid_loglik_profiles(grid, obs, Stationary())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profiles.shape == (G, n)
        assert peak < 1.5 * n * G * 8


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

    def test_nan_or_plus_inf_profile_entry_rejected_naming_its_row(self):
        grid = uniform_grid_1d(-1.0, 1.0, 2)
        for profiles, row in (([[np.nan, 1.0], [0.0, 1.0]], 0), ([[0.0, 1.0], [np.inf, 1.0]], 1)):
            with pytest.raises(ValueError, match=f"profile row {row} holds log likelihood (nan|inf) at n = 1"):
                posterior_from_profiles(grid, np.array(profiles), 1)
            # only the column of the requested n is read
            assert posterior_from_profiles(grid, np.array(profiles), 2).n == 2
        # -inf is zero likelihood
        post = posterior_from_profiles(grid, np.array([[-np.inf, 1.0], [0.0, 1.0]]), 1)
        assert post.masses().tolist() == [0.0, 1.0]

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

    def test_non_finite_star_loglik_rejected(self):
        grid = uniform_grid_1d(0.2, 0.5, 2)
        specs = [scalar_ssm(a) for a in (0.2, 0.5)]
        obs = np.array([0.1, 0.3])
        for star in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="star_loglik must be a finite log likelihood"):
                amle_grid(specs, grid, obs, Stationary(), star_loglik=star)
        assert np.isfinite(amle_grid(specs, grid, obs, Stationary(), star_loglik=-1.0).epsilon_n)

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


LAWS = {
    "stationary": Stationary(),
    "point_mass": PointMass(1.5, -0.5),
    "gaussian": GaussianOnZ([0.4, -0.2], [[0.5, 0.1], [0.1, 0.9]]),
}


def count_grid_sweeps(monkeypatch) -> list:
    """Counts the scalar filter's calls over arrays of grid parameters, one entry per sweep."""
    sweeps, filt = [], likelihood._scalar_kalman_increments

    def counted(a, *args):
        if isinstance(a, np.ndarray):
            sweeps.append(len(a))
        return filt(a, *args)

    monkeypatch.setattr(likelihood, "_scalar_kalman_increments", counted)
    return sweeps


def cold_remoteness(models, grid, mask, obs, init, star, ns, method="kalman"):
    """``remoteness_rate``'s log ratios from a sweep of the selected points alone, with no kept sweep."""
    if isinstance(models, ScalarSsmGrid):
        sub = ScalarSsmGrid(*(getattr(models, name)[mask] for name in ("a", "b", "q_state", "q_obs")))
    else:
        sub = [m for m, keep in zip(models, mask) if keep]
    profiles = grid_loglik_profiles(sub, obs, init, method)
    ref = np.cumsum(increments(star, obs, Stationary(), method))
    log_prior = np.log(grid.prior_weight[mask])
    return np.array([posterior._logsumexp(log_prior + profiles[:, n - 1]) - ref[n - 1] for n in sorted(ns)])


class TestOneSweepPerStudy:
    """A study's grid calls read one sweep of the whole grid, with the bits of cold sweeps; a one-pass grid keeps it."""

    def setup(self, case="specs", g=9, n=60, seed=4):
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=seed))
        grid = uniform_grid_1d(-0.9, 0.9, g)
        record = ScalarSsmGrid(grid.points[:, 0], 1.0, 1.0, 0.2)
        models = record if case == "record" else [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        return star, obs, grid, models

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(["record", "specs"]),
        g=st.integers(1, 8),
        n=st.integers(2, 300),
        law=st.sampled_from(sorted(LAWS)),
        order=st.sampled_from(["far_whole_amle", "amle_far", "repeats"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_warm_calls_equal_cold_sub_grid_sweeps(self, case, g, n, law, order, seed, data):
        mask = np.isin(np.arange(g), list(data.draw(st.sets(st.integers(0, g - 1), min_size=1), label="selected")))
        ns = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=8, unique=True), label="ns")
        rng = np.random.default_rng(seed)
        a, qz, qx = rng.uniform(-0.95, 0.95, g), rng.uniform(0.1, 2.0, g), rng.uniform(0.05, 1.0, g)
        b = rng.choice([-1.0, 1.0], g) * rng.uniform(0.3, 2.0, g)
        models = ScalarSsmGrid(a, b, qz, qx)
        if case == "specs":
            models = [scalar_ssm(*point) for point in zip(a.tolist(), b.tolist(), qz.tolist(), qx.tolist())]
        grid = ParamGrid(np.sort(rng.uniform(-1.0, 1.0, g))[:, None], rng.uniform(0.1, 1.0, g))
        star, init = scalar_ssm(0.5, 1.0, 1.0, 0.2), LAWS[law]
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=seed))
        whole = np.ones(g, bool)
        calls = {
            "far_whole_amle": ["far", "whole", "amle", "posterior"],
            "amle_far": ["amle", "far", "posterior"],
            "repeats": ["far", "far", "whole", "amle", "amle", "posterior", "far", "whole"],
        }[order]
        event(f"{case}, {order}, {'one point selected' if mask.sum() == 1 else 'several points selected'}")

        def call(name):
            if name in ("far", "whole"):
                res = remoteness_rate(models, grid, mask if name == "far" else whole, obs, init, star, ns)
                return res.ns.tobytes(), res.log_ratio.tobytes(), res.slope, res.flags
            if name == "amle":
                res = amle_grid(models, grid, obs, init)
                return res.index, res.loglik
            return grid_posterior(models, grid, obs, init).log_mass.tobytes()

        posterior._SWEEP = None
        warm = [(name, call(name)) for name in calls]
        posterior._SWEEP = None
        profiles = grid_loglik_profiles(models, obs, init)
        cold = {
            "far": cold_remoteness(models, grid, mask, obs, init, star, ns).tobytes(),
            "whole": cold_remoteness(models, grid, whole, obs, init, star, ns).tobytes(),
            "amle": (int(np.argmax(profiles[:, -1])), float(profiles[:, -1].max())),
            "posterior": posterior_from_profiles(grid, profiles, n).log_mass.tobytes(),
        }
        for name, got in warm:
            if name in ("far", "whole"):
                assert got[:2] == (np.array(sorted(ns)).tobytes(), cold[name])
                posterior._SWEEP = None
                assert got == call(name)  # a cold call on the same input
            else:
                assert got == cold[name]
        posterior._SWEEP = None

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(["forward", "p2", "mixed"]),
        g=st.integers(1, 6),
        n=st.integers(2, 60),
        law=st.integers(0, 2),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_per_spec_grids_equal_cold_sub_grid_sweeps(self, case, g, n, law, seed, data):
        # a forward list and Kalman lists with a p = 2 spec are swept whole on every call, and keep no sweep
        mask = np.isin(np.arange(g), list(data.draw(st.sets(st.integers(0, g - 1), min_size=1), label="selected")))
        ns = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=6, unique=True), label="ns")
        rng = np.random.default_rng(seed)
        method = "forward" if case == "forward" else "kalman"
        if case == "forward":
            models = [finite_hmm_spec(FiniteHmmParams(rng.dirichlet([2.0, 2.0], 2), rng.dirichlet([1.0] * 3, 2)))
                      for _ in range(g)]
            init = (Stationary(), PointMass(1, 0), np.array([0.3, 0.7]))[law]
        else:
            params = zip(rng.uniform(-0.6, 0.6, g), rng.uniform(-0.3, 0.3, g), rng.uniform(0.1, 1.0, g))
            models = [ssm_spec(SsmParams([[a, 0.2], [c, 0.5]], [[1.0, 0.4]], [[1.0, 0.3], [0.3, 0.8]], [[qx]]))
                      for a, c, qx in params]
            init = (Stationary(), PointMass([1.5, -0.5], 0.2), GaussianOnZ([0.4, -0.3, 0.1], 0.5 * np.eye(3)))[law]
            if case == "mixed":  # scalar specs among p = 2 ones, under the one law that fits both
                scalars = [scalar_ssm(a) for a in rng.uniform(-0.9, 0.9, g).tolist()]
                models = [scalars[i] if i % 2 else m for i, m in enumerate(models)]
                init = Stationary()
        star = models[0]
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=seed)).reshape(-1)
        grid = ParamGrid(np.sort(rng.uniform(-1.0, 1.0, g))[:, None], rng.uniform(0.1, 1.0, g))
        event(f"{case}, {'one point selected' if mask.sum() == 1 else 'several points selected'}")
        posterior._SWEEP = None
        for select in (mask, np.ones(g, bool)):
            res = remoteness_rate(models, grid, select, obs, init, star, ns, method)
            want = cold_remoteness(models, grid, select, obs, init, star, ns, method)
            assert res.log_ratio.tobytes() == want.tobytes()
        profiles = grid_loglik_profiles(models, obs, init, method)
        got = grid_posterior(models, grid, obs, init, method).log_mass
        assert got.tobytes() == posterior_from_profiles(grid, profiles, n).log_mass.tobytes()
        amle = amle_grid(models, grid, obs, init, method)
        assert (amle.index, amle.loglik) == (int(np.argmax(profiles[:, -1])), float(profiles[:, -1].max()))
        assert posterior._SWEEP is None

    def test_demo_study_sweeps_once_and_keeps_columns_only(self, monkeypatch):
        sweeps = count_grid_sweeps(monkeypatch)
        monkeypatch.setattr(posterior, "_SWEEP", None)
        star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
        grid = uniform_grid_1d(-0.9, 0.9, 181)
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        far = np.abs(grid.points[:, 0] - 0.5) >= 0.5

        def study(obs, ns):
            remoteness_rate(specs, grid, far, obs, Stationary(), star, ns)
            remoteness_rate(specs, grid, np.ones(len(grid), bool), obs, Stationary(), star, ns)
            return amle_grid(specs, grid, obs, Stationary())

        study(project_observations(simulate_complete(star, Stationary(), 2000, seed=0)), list(range(100, 2001, 100)))
        assert sweeps == [181]  # one sweep of the whole grid, where a sweep per call made three
        n = 20_000
        obs = project_observations(simulate_complete(star, Stationary(), n, seed=1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            amle = study(obs, list(range(1000, n + 1, 1000)))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sweeps == [181, 181]
        assert amle.loglik == grid_loglik_profiles(specs, obs, Stationary())[amle.index, -1]
        assert posterior._SWEEP[2].shape == (181, 20)
        assert kept < 100_000  # the (G, 20) kept columns, not the (n, G) buffer of 29 MB

    def test_a_changed_input_sweeps_afresh(self, monkeypatch):
        sweeps = count_grid_sweeps(monkeypatch)
        monkeypatch.setattr(posterior, "_SWEEP", None)
        star, obs, grid, specs = self.setup()

        def fresh(models, data, init):
            """``amle_grid`` on a warm memo must sweep and give the bits of a cold call."""
            count = len(sweeps)
            warm = amle_grid(models, grid, data, init)
            assert len(sweeps) == count + 1
            saved, posterior._SWEEP = posterior._SWEEP, None
            cold = amle_grid(models, grid, data, init)
            posterior._SWEEP = saved
            assert (warm.index, warm.loglik) == (cold.index, cold.loglik)
            return warm.loglik

        first = fresh(specs, obs, Stationary())
        count = len(sweeps)
        amle_grid(specs, grid, obs.copy(), Stationary())
        assert len(sweeps) == count  # equal content is a hit
        obs[5] += 1.0  # mutated in place
        assert fresh(specs, obs, Stationary()) != first
        lls = [fresh(specs, obs, PointMass(4.0, 4.0)), fresh(specs, obs, PointMass(4.0 + 1e-12, 4.0))]
        assert lls[0] != lls[1] and repr(PointMass(4.0, 4.0)) == repr(PointMass(4.0 + 1e-12, 4.0))  # repr rounds
        zeros = obs.copy()
        zeros[3] = 0.0
        fresh(specs, zeros, Stationary())
        zeros[3] = -0.0
        fresh(specs, zeros, Stationary())
        fresh(specs, zeros.astype(np.float32), Stationary())
        for law in ("gaussian", "point_mass", "stationary"):
            fresh(specs, zeros, LAWS[law])
        record = ScalarSsmGrid(grid.points[:, 0], 1.0, 1.0, 0.2)
        count = len(sweeps)
        amle_grid(record, grid, zeros, Stationary())
        assert len(sweeps) == count  # a record and its spec list are the same content
        fresh(ScalarSsmGrid(grid.points[:, 0], 1.0, 1.0, 0.2 + 1e-15), zeros, Stationary())
        # another method never reads a Kalman sweep
        count = len(sweeps)
        want = amle_grid(specs, grid, zeros, Stationary(), "bpf", particles=16)
        posterior._SWEEP = None
        got = amle_grid(specs, grid, zeros, Stationary(), "bpf", particles=16)
        assert (got.index, got.loglik) == (want.index, want.loglik) and len(sweeps) == count
        assert posterior._sweep_key((grid.points[:, 0],) * 4, zeros[:, None], Stationary(), "kalman") != (
            posterior._sweep_key((grid.points[:, 0],) * 4, zeros[:, None], Stationary(), "forward"))

    def test_laws_without_a_key_sweep_every_call(self, monkeypatch):
        sweeps = count_grid_sweeps(monkeypatch)
        monkeypatch.setattr(posterior, "_SWEEP", None)
        star, obs, grid, specs = self.setup()

        class Shifted(PointMass):
            pass

        for _ in range(2):
            amle_grid(specs, grid, obs, Shifted(1.0, 1.0))
        assert len(sweeps) == 2 and posterior._SWEEP is None
        params = (grid.points[:, 0],) * 4
        assert posterior._sweep_key(params, obs[:, None], Shifted(1.0, 1.0), "kalman") is None
        boxed = PointMass(1.0, 1.0)
        object.__setattr__(boxed, "x", np.array([1.0], dtype=object))  # an object array's bytes are pointers
        assert posterior._sweep_key(params, obs[:, None], boxed, "kalman") is None
        assert posterior._sweep_key(params, obs[:, None], PointMass(1.0, 1.0), "kalman") is not None

    def test_malformed_input_raises_on_every_call(self):
        star, obs, grid, record = self.setup("record")
        specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        ns = [20, 40, 60]
        whole = np.ones(len(grid), bool)
        for models in (record, specs):
            amle_grid(models, grid, obs, Stationary())  # a kept sweep of this grid and data
            bad = obs.copy()
            bad[7] = np.inf
            for _ in range(2):
                for call in (lambda: amle_grid(models, grid, bad, Stationary()),
                             lambda: grid_posterior(models, grid, bad, Stationary()),
                             lambda: remoteness_rate(models, grid, whole, bad, Stationary(), star, ns)):
                    with pytest.raises(ValueError, match="observation 7 is not finite"):
                        call()
        for _ in range(2):
            for call in (lambda: amle_grid(record, grid, obs, Stationary(), "forward"),
                         lambda: grid_posterior(record, grid, obs, Stationary(), "forward"),
                         lambda: remoteness_rate(record, grid, whole, obs, Stationary(), star, ns, "forward")):
                with pytest.raises(ValueError, match="a scalar state-space grid uses the exact kalman likelihood"):
                    call()

    def test_no_data_posterior_checks_the_law_on_every_call(self):
        star, obs, grid, record = self.setup("record")
        custom = CustomInit(sampler=lambda rng: (np.zeros(1), np.zeros(1)))
        for models in (record, [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]):
            assert grid_posterior(models, grid, np.empty(0), Stationary()).n == 0  # a kept sweep at n = 0
            for _ in range(2):
                with pytest.raises(ValueError, match="CustomInit"):
                    grid_posterior(models, grid, np.empty(0), custom)
                with pytest.raises(ValueError, match="point mass has dimensions"):
                    grid_posterior(models, grid, np.empty(0), PointMass([0.0, 1.0], 0.0))
                with pytest.raises(ValueError, match="Gaussian init has dimension 3"):
                    grid_posterior(models, grid, np.empty(0), GaussianOnZ(np.zeros(3), np.eye(3)))


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
        with pytest.raises(ValueError, match="the selected set of 0 grid points has zero prior mass"):
            remoteness_rate(specs, grid, np.zeros(len(grid), bool), obs, Stationary(), star, [100])

    def test_selection_must_be_a_boolean_mask(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        for select in (np.full(len(grid), np.nan), np.full(len(grid), 2), [1] * len(grid), np.ones(3, bool)):
            with pytest.raises(ValueError, match="a callable or a boolean mask with one entry per grid point"):
                remoteness_rate(specs, grid, select, obs, Stationary(), star, [100, 200])

    def test_selection_without_prior_mass_raises(self):
        star, obs, grid, specs = self.setup_ssm(n=200)
        mask = grid.points[:, 0] <= -0.5
        weighted = ParamGrid(grid.points, np.where(mask, 0.0, 1.0), grid.cell_volume)
        with pytest.raises(ValueError, match="the selected set of 9 grid points has zero prior mass"):
            remoteness_rate(specs, weighted, mask, obs, Stationary(), star, [100, 200])

    def test_repeated_sample_sizes_rejected(self):
        star, obs, grid, specs = self.setup_ssm(n=300)
        mask = np.abs(grid.points[:, 0] - 0.5) >= 0.5
        for ns in ([100, 300, 300, 300], [200, 200]):
            with pytest.raises(ValueError, match="the decay rate needs at least two distinct sample sizes"):
                remoteness_rate(specs, grid, mask, obs, Stationary(), star, ns)
        unsorted = remoteness_rate(specs, grid, mask, obs, Stationary(), star, [300, 100, 200])
        ordered = remoteness_rate(specs, grid, mask, obs, Stationary(), star, [100, 200, 300])
        assert unsorted.ns.tolist() == [100, 200, 300]
        assert (unsorted.slope, unsorted.log_ratio.tobytes()) == (ordered.slope, ordered.log_ratio.tobytes())

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

    def test_start_must_be_a_scalar_or_a_vector(self):
        for theta0, shape in ((np.array([[0.0]]), r"\(1, 1\)"), (np.zeros((2, 1)), r"\(2, 1\)")):
            with pytest.raises(ValueError, match=rf"theta0 must be a scalar or a 1-D vector, got shape {shape}"):
                mh_posterior(
                    self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                    theta0=theta0, steps=10, proposal_sd=np.array([0.1]), seed=16,
                )
        scalar = mh_posterior(self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                              theta0=0.2, steps=10, proposal_sd=np.array([0.1]), seed=16)
        vector = mh_posterior(self.build, self.flat_prior(), np.array([0.1]), Stationary(),
                              theta0=np.array([0.2]), steps=10, proposal_sd=np.array([0.1]), seed=16)
        assert scalar.samples.tobytes() == vector.samples.tobytes()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_prior_raises_naming_theta(self, bad):
        obs = np.array([0.1, -0.2])
        kw = dict(theta0=np.array([0.3]), steps=50, proposal_sd=np.array([0.2]), seed=20)
        # at the start
        with pytest.raises(ValueError, match=rf"the prior log density at theta = \[0\.3\] is {bad}"):
            mh_posterior(self.build, lambda th: bad, obs, Stationary(), **kw)
        # at a proposal
        with pytest.raises(ValueError, match=r"the prior log density at theta = \[0\.[4-9]\d*\] is"):
            mh_posterior(self.build, lambda th: bad if th[0] > 0.4 else 0.0, obs, Stationary(), **kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_likelihood_raises_naming_theta(self, bad, monkeypatch):
        obs = np.array([0.1, -0.2])
        kw = dict(theta0=np.array([0.3]), steps=50, proposal_sd=np.array([0.2]), seed=21)

        def fake_loglik(lo):
            def value(spec, *args, **kwargs):
                return LogLik(bad if spec.ssm.A[0, 0] > lo else -1.0, 2, "kalman")

            return value

        monkeypatch.setattr(posterior, "loglik", fake_loglik(0.0))
        with pytest.raises(ValueError, match=rf"the likelihood log density at theta = \[0\.3\] is {bad}"):
            mh_posterior(self.build, self.flat_prior(), obs, Stationary(), **kw)
        monkeypatch.setattr(posterior, "loglik", fake_loglik(0.4))
        with pytest.raises(ValueError, match=r"the likelihood log density at theta = \[0\.[4-9]\d*\] is"):
            mh_posterior(self.build, self.flat_prior(), obs, Stationary(), **kw)

    def test_minus_inf_rejects_the_proposal(self, monkeypatch):
        obs = np.array([0.1, -0.2])
        kw = dict(theta0=np.array([0.3]), steps=200, proposal_sd=np.array([0.2]), seed=22)

        def zero_above(spec, *args, **kwargs):
            return LogLik(-np.inf if spec.ssm.A[0, 0] > 0.3 else 0.0, 2, "kalman")

        monkeypatch.setattr(posterior, "loglik", zero_above)
        res = mh_posterior(self.build, lambda th: -np.inf if th[0] < -0.5 else 0.0, obs, Stationary(), **kw)
        assert res.samples.max() <= 0.3 and res.samples.min() >= -0.5
        assert 0.0 < res.acceptance_rate < 1.0

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


def reference_chain(build, prior_logpdf, obs, init, theta0, steps, proposal_sd, seed, method, particles):
    """``mh_posterior``'s chain written out, calling public ``loglik`` on the raw observations at every step."""
    rng = rngmod.substream(seed, rngmod.MH)

    def logpost(th, stream):
        lp = prior_logpdf(th)
        if lp == -np.inf:
            return -np.inf
        spec = build(th)
        if spec is None:
            return -np.inf
        return lp + loglik(spec, obs, init, method, particles=particles, seed=seed, stream=stream).value

    theta = np.array(theta0, dtype=float)
    current = logpost(theta, 0)
    samples = np.empty((steps, theta.size))
    accepted = 0
    for step in range(steps):
        prop = theta + proposal_sd * rng.standard_normal(theta.size)
        cand = logpost(prop, step + 1)
        if np.log(rng.random()) < cand - current:
            theta, current = prop, cand
            accepted += 1
        samples[step] = theta
    return samples, accepted / steps


def _outcome(run):
    """A run's result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:  # the property compares errors too
        return type(exc), str(exc)


_TWO_STATE = finite_hmm_spec(FiniteHmmParams([[0.7, 0.3], [0.2, 0.8]], [[0.9, 0.1], [0.2, 0.8]]))
# case -> (likelihood method, dimension of the hidden state of its linear specs)
CHAIN_CASES = {
    "scalar_kalman": ("kalman", 1),
    "joint_kalman_p2": ("kalman", 2),
    "scalar_bpf": ("bpf", 1),
    "finite_and_linear_bpf": ("bpf", 1),  # one chain reads the data as symbols and as reals
    "two_observation_dims": ("kalman", 1),  # q = 1 below a = 0, q = 2 from it
    "malformed": ("kalman", 1),
}


class TestPreparedChainProperty:
    """Every chain, and every error, equals a loop calling ``loglik`` on the raw observations at every step."""

    @staticmethod
    def build_for(case, b, qx):
        def build(th):
            a = float(th[0])
            if not abs(a) < 0.95:
                return None
            if case == "joint_kalman_p2":
                return ssm_spec(SsmParams([[a, 0.1], [0.0, 0.3]], [[b, 0.5]], np.eye(2), [[qx]]))
            if case == "finite_and_linear_bpf" and a < 0.0:
                return _TWO_STATE
            if case == "two_observation_dims" and a >= 0.0:
                return ssm_spec(SsmParams([[a]], [[b], [0.5]], [[1.0]], qx * np.eye(2)))
            return scalar_ssm(a, b, 1.0, qx)

        return build

    @staticmethod
    def init_for(kind, p, x0, rng):
        if kind == "stationary":
            return Stationary()
        if kind == "point_mass":
            return PointMass(np.full(p, x0), 0.0)
        cov = rng.standard_normal((p + 1, p + 1))
        return GaussianOnZ(rng.standard_normal(p + 1), cov @ cov.T + np.eye(p + 1))

    @staticmethod
    def observations(case, n, seed, bad):
        if case == "finite_and_linear_bpf":
            return project_observations(simulate_complete(_TWO_STATE, Stationary(), max(n, 1), seed))[:n]
        ys = project_observations(simulate_complete(scalar_ssm(0.5), Stationary(), max(n, 1), seed))[:n]
        if case != "malformed" or not n:
            return ys
        if bad == "nan":
            ys[seed % n, 0] = np.nan
            return ys
        if bad == "shape":
            return np.hstack([ys, ys])
        return ys[:, 0].tolist()[:-1] + [np.inf]

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        init_kind=st.sampled_from(("stationary", "point_mass", "gaussian")),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 12),
        theta0=st.floats(-0.9, 0.9),
        sd=st.floats(0.0, 0.6),
        b=st.floats(0.3, 2.0),
        qx=st.floats(0.05, 1.5),
        x0=st.floats(-3.0, 3.0),
        bad=st.sampled_from(("nan", "shape", "inf_last")),
    )
    def test_chain_equals_a_raw_loglik_loop(self, case, init_kind, n, seed, steps, theta0, sd, b, qx, x0, bad):
        method, p = CHAIN_CASES[case]
        if case == "two_observation_dims":  # start on q = 1, so that a move to q = 2 meets a record checked for q = 1
            theta0 = -abs(theta0)
        build = self.build_for(case, b, qx)
        init = self.init_for(init_kind, p, x0, np.random.default_rng(seed))
        obs = self.observations(case, n, seed, bad)
        args = (build, lambda th: 0.0 if abs(th[0]) <= 0.9 else -np.inf, obs, init, np.array([theta0]), steps,
                np.array([sd]), seed)
        want = _outcome(lambda: reference_chain(*args, method, 16))
        got = _outcome(lambda: mh_posterior(*args, method=method, particles=16))
        event(f"{init_kind}: {'raises' if isinstance(want[0], type) else 'chain'}")
        if isinstance(want[0], type):
            assert got == want
        else:
            assert got.samples.tobytes() == want[0].tobytes()
            assert got.acceptance_rate == want[1]


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

    @pytest.mark.parametrize("n", [2.5, float("nan"), -1, 0, True, "3"])
    def test_density_check_rejects_bad_length(self, n):
        star, other = self.random_pair(np.random.default_rng(25))
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            image_density_check(star, other, Stationary(), n)

    @pytest.mark.parametrize("bad", [{"sims": 0}, {"sims": 2.5}, {"sims": True}, {"sims": -3}, {"n": 2.5}, {"n": 0}, {"n": True}])
    def test_markov_check_rejects_bad_sizes(self, bad):
        star, other = self.random_pair(np.random.default_rng(26))
        args = {"n": 3, "sims": 5, **bad}
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            image_ratio_markov_check(star, other, Stationary(), seed=1, **args)

    def test_sizes_take_numpy_integers(self):
        star, other = self.random_pair(np.random.default_rng(27))
        assert image_density_check(star, other, Stationary(), np.int64(2)) == image_density_check(star, other, Stationary(), 2)
        want = image_ratio_markov_check(star, other, Stationary(), n=3, sims=4, seed=1)
        assert image_ratio_markov_check(star, other, Stationary(), n=np.int32(3), sims=np.int64(4), seed=1) == want

    def test_checks_reject_non_finite_specs(self):
        star, _ = self.random_pair(np.random.default_rng(28))
        sv = sv_spec(SvParams(1.0, 0.3, 0.9))
        for pair in ((star, sv), (sv, star)):
            with pytest.raises(ValueError, match="finite models"):
                image_density_check(*pair, Stationary(), 2)
            with pytest.raises(ValueError, match="finite models"):
                image_ratio_markov_check(*pair, Stationary(), n=2, sims=3, seed=1)


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

    def test_posterior_csv_text_two_coordinates(self, tmp_path):
        from pommkit.posterior import ParamGrid, PosteriorGrid

        points = np.array([[-0.0, 0.1], [1e300, 5e-324], [0.25, -3.0]])
        post = PosteriorGrid(ParamGrid(points, cell_volume=[0.5, 0.0, 2.0]), 3, np.log([0.2, 0.3, 0.5]))
        path = tmp_path / "post.csv"
        write_posterior_csv(post, path)
        dens = post.log_density()
        want = "theta0,theta1,log_post\n" + "".join(
            f"{pt[0]:.17g},{pt[1]:.17g},{ld:.17g}\n" for pt, ld in zip(points, dens))
        assert path.read_bytes() == want.encode()
        assert "-0,0.10000000000000001," in want and ",inf\n" in want

    def test_concentration_csv(self, tmp_path):
        from pommkit.posterior import ConcentrationRow

        rows = [ConcentrationRow(100, 5, 0.25), ConcentrationRow(400, 5, 0.01)]
        path = tmp_path / "conc.csv"
        write_concentration_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,p,mass_outside"
        assert lines[1] == "100,5,0.25"
