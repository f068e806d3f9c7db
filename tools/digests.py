"""Print one SHA-256 digest per output of a fixed battery of pommkit computations.

Run ``python tools/digests.py`` in two checkouts and compare the outputs
(``diff``): equal lines mean equal bits. The script imports the package
from ``src/`` of the checkout it sits in, whatever is installed, so a
copy of another revision checks that revision. The battery covers the
Kalman filters under the three initial laws (a scalar model on both
filters, a p = 2 state-space model on the joint filter), ``scalar_ssm``
over a sweep of ``b`` (every value twice) and of ``q_obs`` (more values
than ``models`` keeps embedded noise covariances for), a
``ScalarSsmGrid`` profile at b = 1 under two laws and at b = 1.5, n = 8
quadrature (SV, the scalar state-space model and a linear model without
an HMM factorization), the particle
filter at 512 (binary-search resampling) and 1024 particles
(linear-time resampling), three Metropolis chains (one from a = 0.5 and
two in the ``mh_near_unit_root`` benchmark's setting, at b = 1 and at
b = 1.5), the finite-HMM
path-enumeration oracles, ``remoteness_rate`` (a far set and the whole
grid), ``grid_posterior`` and ``amle_grid`` on a 181-point
``ScalarSsmGrid``, on the same grid as a spec list, on a finite-HMM spec
list and on a 20-point list of p = 2 state-space specs over 80
observations, the closed-form Delta from the scalar model to each of the
181 specs and to the linear model and from the p = 2 model to each of
the 20 p = 2 specs, the SV envelope audit's report on two boxes (one
with sigma unbounded) at two seeds, the SV entropy-floor report, and
every file that
``run_experiment(reference_config())`` writes, the command line's output
on valid input (``simulate``, ``loglik`` by each method, ``posterior``,
``experiment`` with every file it writes, and the state-space
``audit``, on the reference config with ``n_list = 20 40``), and
``serialize_config`` of a config with every key off its default. It
takes about 1.7 s of CPU time after the imports on a 2-core x86-64
machine.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pommkit import (  # noqa: E402
    FiniteHmmParams,
    GaussianOnZ,
    GlmParams,
    PointMass,
    ScalarSsmGrid,
    SsmParams,
    Stationary,
    SvParams,
    SvThetaBox,
    amle_grid,
    bpf_loglik,
    delta_glm_closed,
    enumeration_loglik,
    envelope_validity_audit,
    finite_hmm_spec,
    glm_spec,
    grid_loglik_profiles,
    grid_posterior,
    image_density_check,
    image_ratio_markov_check,
    increments,
    kalman_increments,
    mh_posterior,
    project_observations,
    quadrature_loglik,
    remoteness_rate,
    scalar_ssm,
    simulate_complete,
    ssm_spec,
    sv_spec,
    uniform_grid_1d,
)
from pommkit.audit import b6_entropy_floor_sv  # noqa: E402
from pommkit import cli  # noqa: E402
from pommkit.experiment import (  # noqa: E402
    REFERENCE_CONFIG_TEXT,
    parse_config,
    reference_config,
    run_experiment,
    serialize_config,
)

SEED = 20260808
SWEEP_Q_OBS = 300  # distinct q_obs values, more than models._SCALAR_R_MEMO, so the memo evicts
ENVELOPE_DRAWS = 300  # more than one block of the envelope audit's bounds
# every key off its default but method (kalman is the only method), which is left out to take its default
OFF_DEFAULT_CONFIG = """\
[model]
family = ssm
a = 0.3
b = 1.5
q_state = 0.8
q_obs = 0.4

[data]
n_list = 20 40
init_true = pointmass 1.5 -0.5
init_inference = pointmass 0 0.25
seed = 7

[inference]
grid_param = q_obs
grid_lo = 0.1
grid_hi = 2.0
grid_points = 21
prior = improper
ps = 3 7

[outputs]
directory = results
formats = csv
"""


def digest(value) -> str:
    """SHA-256 of bytes, of an array's dtype, shape and bytes, or of another value's ``repr`` (exact for floats)."""
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, np.ndarray):
        value = np.ascontiguousarray(value)
        data = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def observations(spec, n: int, init=None) -> np.ndarray:
    return project_observations(simulate_complete(spec, init or Stationary(), n, SEED))


def cli_stdout(*argv: str) -> bytes:
    """What ``pommkit <argv>`` prints to stdout; a rejected input raises ``SystemExit``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(list(argv))
    return out.getvalue().encode()


def cli_outputs():
    """Yields ``(name, stdout or file bytes)`` for the commands of the command line on the reference config, n_list = 20 40."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.ini"
        config.write_text(REFERENCE_CONFIG_TEXT.replace("n_list = 100 400 1600", "n_list = 20 40"), encoding="utf-8")
        common = ("--config", str(config))
        yield "cli_simulate", cli_stdout("simulate", *common, "--n", "10")
        for method in ("kalman", "bpf"):
            yield f"cli_loglik_{method}", cli_stdout("loglik", *common, "--method", method)
        yield "cli_loglik_quadrature", cli_stdout("loglik", *common, "--method", "quadrature", "--n", "8")
        yield "cli_posterior", cli_stdout("posterior", *common, "--n", "40")
        out = Path(tmp) / "out"
        yield "cli_experiment_stdout", cli_stdout("experiment", *common, "--out", str(out)).replace(tmp.encode(), b"TMP")
        for path in sorted(out.iterdir()):
            yield f"cli_experiment_{path.name}", path.read_bytes()
        yield "cli_audit_ssm", cli_stdout("audit", "--assumption", "all", "--family", "ssm")


def battery():
    """Yields ``(name, value)`` for every output of the battery, in a fixed order."""
    scalar = scalar_ssm(0.7, 1.0, 1.0, 0.2)
    p2 = ssm_spec(SsmParams([[0.6, 0.2], [-0.1, 0.5]], [[1.0, 0.4]], [[1.0, 0.3], [0.3, 0.8]], [[0.2]]))
    sv = sv_spec(SvParams(1.0, 0.3, 0.9))
    linear = glm_spec(GlmParams([[0.5, 0.2], [-0.3, 0.4]], [[1.0, 0.3], [0.3, 0.8]], 1, 1))
    ys, ys2 = observations(scalar, 400), observations(p2, 400)
    inits = {
        "stationary": (Stationary(), Stationary()),
        "point_mass": (PointMass(1.5, -0.3), PointMass([1.5, -0.5], 0.2)),
        "gaussian": (GaussianOnZ([0.4, -0.2], [[0.5, 0.1], [0.1, 0.9]]), GaussianOnZ([0.4, -0.3, 0.1], 0.5 * np.eye(3))),
    }
    for law, (init, init2) in inits.items():
        yield f"kalman_scalar_{law}", increments(scalar, ys, init, "kalman")
        yield f"kalman_joint_{law}", kalman_increments(scalar, ys, init)
        yield f"kalman_p2_{law}", increments(p2, ys2, init2, "kalman")
    # every spec's Phi and R bytes, and its joint-filter increments
    short = ys[:50]
    sweeps = {"b": [(0.7, b, 1.0, 0.2) for b in np.linspace(-3.0, 3.0, 61).tolist() * 2],
              "q_obs": [(0.7, 1.0, 1.0, q) for q in np.geomspace(1e-3, 1e3, SWEEP_Q_OBS).tolist()]}
    for name, points in sweeps.items():
        specs = [scalar_ssm(*point) for point in points]
        yield f"sweep_{name}_phi_r", b"".join(s.glm.Phi.tobytes() + s.glm.R.tobytes() for s in specs)
        yield f"sweep_{name}_kalman", np.array([kalman_increments(s, short, Stationary()) for s in specs])
    grid = ScalarSsmGrid(np.linspace(-0.9, 0.9, 181), 1.0, 1.0, 0.2)
    for law in ("stationary", "gaussian"):
        yield f"grid_profile_{law}", grid_loglik_profiles(grid, ys, inits[law][0])
    yield "grid_profile_b1.5", grid_loglik_profiles(ScalarSsmGrid(grid.a, 1.5, 1.0, 0.2), ys, Stationary())
    for name, spec in (("sv", sv), ("ssm", scalar), ("linear", linear)):
        for law in ("stationary", "point_mass"):
            yield f"quadrature_{name}_{law}", quadrature_loglik(spec, observations(spec, 8), inits[law][0], nodes=101)
    ys_sv = observations(sv, 200)
    for particles in (512, 1024):
        yield f"bpf_sv_{particles}", bpf_loglik(sv, ys_sv, Stationary(), particles, SEED)
        yield f"bpf_ssm_gaussian_{particles}", bpf_loglik(scalar, ys[:200], inits["gaussian"][0], particles, SEED)
    chain = mh_posterior(
        lambda th: scalar_ssm(float(th[0])) if abs(th[0]) < 1.0 else None,
        lambda th: 0.0,
        ys,
        Stationary(),
        np.array([0.5]),
        200,
        np.array([0.05]),
        SEED,
    )
    yield "mh_chain", chain.samples
    yield "mh_acceptance", chain.acceptance_rate
    for name, b in (("near_unit_root", 1.0), ("b1.5", 1.5)):  # a* = 0.95, 400 observations, proposal sd 0.03
        near = mh_posterior(
            lambda th, b=b: scalar_ssm(float(th[0]), b, 1.0, 0.2),
            lambda th: 0.0 if abs(th[0]) <= 0.999 else -np.inf,
            observations(scalar_ssm(0.95, b, 1.0, 0.2), 400),
            Stationary(),
            np.array([0.95]),
            250,
            np.array([0.03]),
            SEED,
        )
        yield f"mh_chain_{name}", np.append(near.samples[:, 0], near.acceptance_rate)
    finite = finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.2, 0.8]]))
    other = finite_hmm_spec(FiniteHmmParams([[0.6, 0.4], [0.1, 0.9]], [[0.7, 0.3], [0.4, 0.6]]))
    eta = np.array([0.3, 0.7])
    yield "finite_enumeration", enumeration_loglik(finite, observations(finite, 10), eta)
    yield "finite_image_density", image_density_check(finite, other, eta, 4)
    yield "finite_image_markov", image_ratio_markov_check(finite, other, eta, 6, 50, SEED)
    a_grid, accuracies = uniform_grid_1d(-0.9, 0.9, 181), uniform_grid_1d(0.55, 0.95, 41)
    a00 = uniform_grid_1d(0.2, 0.8, 20)  # the p = 2 specs' A[0, 0]
    grid_cases = {
        "record": (grid, a_grid, ys, "kalman"),
        "specs": ([scalar_ssm(a, 1.0, 1.0, 0.2) for a in grid.a.tolist()], a_grid, ys, "kalman"),
        "forward": ([finite_hmm_spec(FiniteHmmParams([[0.8, 0.2], [0.3, 0.7]], [[e, 1.0 - e], [1.0 - e, e]]))
                     for e in accuracies.points[:, 0].tolist()], accuracies, observations(finite, 400).reshape(-1), "forward"),
        "p2": ([ssm_spec(SsmParams([[a, 0.2], [-0.1, 0.5]], [[1.0, 0.4]], [[1.0, 0.3], [0.3, 0.8]], [[0.2]]))
                for a in a00.points[:, 0].tolist()], a00, ys2[:80], "kalman"),
    }
    remote = {"record": (scalar, np.abs(a_grid.points[:, 0] - 0.7) >= 0.5, range(40, 401, 40)),
              "specs": (scalar, np.abs(a_grid.points[:, 0] - 0.7) >= 0.5, range(40, 401, 40)),
              "forward": (finite, np.abs(accuracies.points[:, 0] - 0.85) >= 0.1, range(50, 401, 50)),
              "p2": (p2, np.abs(a00.points[:, 0] - 0.6) >= 0.25, range(10, 81, 10))}
    for name, (models, params, data, method) in grid_cases.items():
        star, far, ns = remote[name]
        for subset, mask in (("far", far), ("whole", np.ones(len(params), bool))):
            res = remoteness_rate(models, params, mask, data, Stationary(), star, list(ns), method)
            yield f"remoteness_{subset}_{name}", np.append(res.log_ratio, res.slope)
        yield f"grid_posterior_{name}", grid_posterior(models, params, data, Stationary(), method).log_mass
        amle = amle_grid(models, params, data, Stationary(), method)
        yield f"amle_grid_{name}", (amle.index, amle.loglik)
    closed = [(scalar, s) for s in grid_cases["specs"][0]] + [(scalar, linear)]
    closed += [(p2, s) for s in grid_cases["p2"][0]]
    yield "delta_closed_grid", np.array([delta_glm_closed(star.glm, other.glm).value for star, other in closed])
    for box_name, box in (("box", SvThetaBox(0.1, 0.1, 0.95, 2.5)), ("open_box", SvThetaBox(0.1, 0.1, 0.99))):
        for seed in (SEED, SEED + 1):
            yield f"envelope_{box_name}_{seed - SEED}", envelope_validity_audit(box, ENVELOPE_DRAWS, seed)
    yield "b6_entropy_floor_sv", b6_entropy_floor_sv(sv.sv, 20_000, SEED)
    with tempfile.TemporaryDirectory() as out:
        run_experiment(reference_config(), out)
        for path in sorted(Path(out).iterdir()):
            yield f"experiment_{path.name}", path.read_bytes()
    yield from cli_outputs()
    yield "config_off_default", serialize_config(parse_config(OFF_DEFAULT_CONFIG)).encode()


def main() -> None:
    for name, value in battery():
        print(name, digest(value))


if __name__ == "__main__":
    main()
