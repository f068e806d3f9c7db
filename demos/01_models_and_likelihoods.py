"""Simulating partially observed Markov chains and evaluating likelihoods.

Walks through the model families and shows the exact and approximate
likelihood evaluators agreeing on the same data.
"""
import numpy as np

from pommkit import (
    FiniteHmmParams,
    PointMass,
    Stationary,
    bpf_loglik,
    enumeration_loglik,
    finite_hmm_spec,
    forward_loglik,
    kalman_loglik,
    project_observations,
    quadrature_loglik,
    scalar_ssm,
    simulate_complete,
)

# ---------------------------------------------------------------------------
# A scalar linear Gaussian state-space model
#   X_{k+1} = 0.5 X_k + zeta,   Y_k = X_k + xi,   zeta ~ N(0,1), xi ~ N(0,0.2)
# ---------------------------------------------------------------------------
spec = scalar_ssm(a=0.5, b=1.0, q_state=1.0, q_obs=0.2)

traj = simulate_complete(spec, Stationary(), n=2000, seed=7)
obs = project_observations(traj)  # y_1..y_n; z_0 is never observed
print("simulated", len(obs), "observations; sample variance", round(float(obs.var()), 3))
print("stationary variance of Y:", round(1.0 / (1 - 0.25) + 0.2, 3))

# Exact likelihood via the Kalman recursion on the joint chain.
ll = kalman_loglik(spec, obs[:500], Stationary())
print("\nKalman log-likelihood (n=500):", ll.value)

# The same integral by quadrature: the forward recursion on a node grid of the
# hidden state (short sequences only).
short = obs[:5]
print("\nquadrature vs Kalman on n=5:")
print("  kalman     ", kalman_loglik(spec, short, Stationary()).value)
print("  quadrature ", quadrature_loglik(spec, short, Stationary(), nodes=2001).value)

# A bootstrap particle filter gives an unbiased estimate of the likelihood.
exact = kalman_loglik(spec, obs[:20], Stationary()).value
reps = [bpf_loglik(spec, obs[:20], Stationary(), particles=512, seed=1, stream=r) for r in range(50)]
ratios = np.exp(np.array([r.value for r in reps]) - exact)
print("\nparticle filter over 50 replicates: mean likelihood ratio", round(float(ratios.mean()), 4))
print("one run reports se(log L) =", round(float(reps[0].se), 4))

# The filter tolerates a badly displaced initial guess: likelihoods under
# different initial laws merge as n grows.
far = kalman_loglik(spec, obs, PointMass(4.0, 4.0)).value
sta = kalman_loglik(spec, obs, Stationary()).value
print("\ninitialization effect per observation at n=2000:", round((far - sta) / 2000, 6))

# ---------------------------------------------------------------------------
# A finite oracle model: everything is computable by enumeration
# ---------------------------------------------------------------------------
params = FiniteHmmParams(P=[[0.7, 0.3], [0.2, 0.8]], G=[[0.9, 0.1], [0.2, 0.8]])
fspec = finite_hmm_spec(params)
ys = project_observations(simulate_complete(fspec, Stationary(), 10, seed=3)).reshape(-1)
print("\nfinite HMM symbols:", ys.tolist())
print("forward recursion :", forward_loglik(fspec, ys, Stationary()).value)
print("path enumeration  :", enumeration_loglik(fspec, ys, Stationary()))
