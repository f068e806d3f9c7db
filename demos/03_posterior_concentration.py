"""Posterior concentration at the true parameter, empirically.

Reproduces the shipped reference experiment: a scalar linear Gaussian
state-space model with AR coefficient 0.5, a uniform prior over a
181-point grid on [-0.9, 0.9], and posterior mass outside shrinking
balls around the truth as the sample grows. Also shows the two
diagnostics behind the asymptotics: likelihood merging across initial
laws, and the exponential decay of prior-averaged likelihood ratios
over parameter sets that exclude the truth.
"""
from dataclasses import replace

import numpy as np

from pommkit import (
    PointMass,
    Stationary,
    amle_grid,
    delta_glm_closed,
    merging_curve,
    project_observations,
    remoteness_rate,
    scalar_ssm,
    simulate_complete,
    uniform_grid_1d,
)
from pommkit.experiment import reference_config, run_experiment

cfg = reference_config()
print("reference experiment:", cfg.family, "a* =", cfg.model["a"], "seed", cfg.seed)

result = run_experiment(cfg)
print("\nposterior mass outside |a - a*| >= 1/p:")
print("      n   p=2        p=5        p=10")
for n in cfg.n_list:
    row = {r.p: r.mass_outside for r in result.concentration if r.n == n}
    print(f"  {n:5d}   {row[2]:.2e}   {row[5]:.2e}   {row[10]:.2e}")

# the conclusion is insensitive to how the data chain was started
shifted = run_experiment(replace(cfg, init_true="pointmass 4.0 4.0"))
final = [r.mass_outside for r in shifted.concentration if r.p == 5][-1]
print("\nsame run started far from equilibrium: final mass", f"{final:.2e}")

# ---------------------------------------------------------------------------
# Merging: the initial law washes out of the likelihood at rate o(n)
# ---------------------------------------------------------------------------
star = scalar_ssm(0.5, 1.0, 1.0, 0.2)
obs = project_observations(simulate_complete(star, Stationary(), 2000, seed=cfg.seed))
curve = merging_curve(star, obs, PointMass(4.0, 4.0))
print("\nnormalized log ratio of displaced vs stationary start:")
for n in (10, 100, 500, 2000):
    print(f"  n={n:5d}: {curve[n - 1]:+.5f}")

# a wrong parameter loses likelihood, but no faster than its divergence
wrong = scalar_ssm(0.2, 1.0, 1.0, 0.2)
level = merging_curve(wrong, obs, Stationary(), den_spec=star)[-1]
bound = -delta_glm_closed(star.glm, wrong.glm).value
print(f"\nwrong parameter a=0.2: level {level:+.4f} vs divergence bound {bound:+.4f}")

# ---------------------------------------------------------------------------
# Remoteness: sets away from the truth lose likelihood exponentially fast
# ---------------------------------------------------------------------------
grid = uniform_grid_1d(-0.9, 0.9, 181)
specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
mask = np.abs(grid.points[:, 0] - 0.5) >= 0.5
res = remoteness_rate(specs, grid, mask, obs, Stationary(), star, list(range(100, 2001, 100)))
deltas = np.array([delta_glm_closed(star.glm, s.glm).value for s in specs])
# The slope tends to -K, with K the Kullback-Leibler rate of the observed
# process. Delta is the complete chain's transition divergence, and the
# data-processing inequality gives K <= Delta, not equality: at a = 0, the
# set's nearest point, the spectral density of y gives K = 0.1217 against
# Delta = 0.1667.
print("\nprior-averaged likelihood-ratio decay over {|a - 0.5| >= 0.5}:")
print("  fitted slope per observation:", round(res.slope, 4))
print("  smallest transition divergence Delta on the set:", round(float(deltas[mask].min()), 4),
      "(an upper bound on the decay rate K, not its limit: K <= Delta)")

whole = remoteness_rate(specs, grid, np.ones(len(grid), bool), obs, Stationary(), star,
                        list(range(100, 2001, 100)))
print("  slope when the set contains the truth:", round(whole.slope, 6), "(no decay)")

# ---------------------------------------------------------------------------
# The grid maximum likelihood estimate tracks the truth
# ---------------------------------------------------------------------------
from pommkit import kalman_loglik

star_ll = kalman_loglik(star, obs, Stationary()).value
amle = amle_grid(specs, grid, obs, Stationary(), star_loglik=star_ll)
print("\ngrid AMLE at n=2000:", float(amle.point[0]), " normalized defect:", round(amle.epsilon_n, 6))
