"""Partially observed Markov models: likelihoods, divergences, posteriors, audits.

The package turns the asymptotic theory of Bayesian consistency for
partially observed Markov chains into desk-scale computations: exact and
Monte Carlo likelihood evaluators, the expected Kullback-Leibler
divergence functionals that control prior information denseness, grid
posteriors with concentration diagnostics, and numerical auditors for
every finitely checkable model assumption.
"""

from .core import (
    CustomInit,
    DegeneratePosteriorError,
    GaussianOnZ,
    HmmFactorization,
    ModelSpec,
    NoStationarySamplerError,
    PointMass,
    Stationary,
    Trajectory,
    UnsupportedInitError,
    project_observations,
    simulate_complete,
)
from .models import (
    FiniteHmmParams,
    GlmParams,
    ScalarSsmGrid,
    SsmParams,
    SvParams,
    finite_hmm_spec,
    finite_hmm_stationary,
    glm_spec,
    glm_stationary_cov,
    iid_gaussian_spec,
    scalar_ssm,
    ssm_embed,
    ssm_spec,
    sv_spec,
)
from .likelihood import (
    LogLik,
    bpf_loglik,
    conditional_entropy_sequence,
    enumeration_loglik,
    forward_increments,
    forward_loglik,
    grid_increments,
    increments,
    kalman_increments,
    kalman_loglik,
    loglik,
    quadrature_loglik,
    ssm_kalman_loglik,
)
from .divergence import (
    KldEstimate,
    delta_bar_hmm,
    delta_glm_closed,
    delta_sv_closed,
    gaussian_kl,
    information_denseness_profile,
    step_kld_mc,
)
from .posterior import (
    AmleResult,
    ConcentrationRow,
    ParamGrid,
    PosteriorGrid,
    amle_grid,
    concentration_profile,
    grid_loglik_profiles,
    grid_posterior,
    image_density_check,
    image_ratio_markov_check,
    merging_curve,
    mh_posterior,
    posterior_from_profiles,
    remoteness_rate,
    uniform_grid_1d,
)
from .audit import (
    AuditReport,
    SvRegion,
    SvThetaBox,
    b6_audit_sv,
    b6_entropy_floor_sv,
    b6_jensen_floor_sv,
    b6_sufficient_integral_sv,
    envelope_validity_audit,
    finite_w_source,
    kingman_check,
    positivity_audit,
    psup_cm_complement_bound,
    psup_sv_bound,
    sv_block_density,
    tightness_audit_sv,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    parse_config,
    reference_config,
    run_experiment,
    serialize_config,
)

__version__ = "0.1.0"
