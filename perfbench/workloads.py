"""The four benchmark workloads.

Each workload is a closed loop with one caller: a stream of fixed-size
tasks, each started when the previous one ends. A workload provides

* ``setup(seed, tr)``: input generation and oracle set-up for the run;
* ``prepare(ctx, i, tr)``: the inputs of task ``i`` (not timed);
* ``task(ctx, prep, tr)``: the timed work, calling only public pommkit API;
* ``check(ctx, prep, out)``: tolerance checks of one task's outputs,
  returning the names of the failed checks;
* ``finish(ctx, done)``: checks pooled over the run's passing tasks;
* ``layer_metrics(ctx, summ)``: the workload's named per-layer metrics
  from the traced run;
* ``probe``: the parts of the calibration probe (``PROBE_PARTS`` in
  ``run.py``), the kinds of work the workload does.

Tasks call pommkit through ``tr`` (see ``spans.py``), so the untraced and
the traced run execute the same code.
"""
from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pommkit import (
    PointMass,
    SsmParams,
    Stationary,
    SvParams,
    SvThetaBox,
    amle_grid,
    b6_entropy_floor_sv,
    b6_jensen_floor_sv,
    bpf_loglik,
    concentration_profile,
    delta_glm_closed,
    delta_sv_closed,
    envelope_validity_audit,
    grid_loglik_profiles,
    kalman_loglik,
    merging_curve,
    mh_posterior,
    positivity_audit,
    posterior_from_profiles,
    project_observations,
    quadrature_loglik,
    remoteness_rate,
    scalar_ssm,
    simulate_complete,
    ssm_kalman_loglik,
    step_kld_mc,
    sv_spec,
    uniform_grid_1d,
)
from pommkit.audit import write_audit_jsonl
from pommkit.experiment import reference_config, run_experiment, serialize_config
from pommkit.posterior import write_concentration_csv, write_posterior_csv

from spans import LAYERS, Summary

# Per-layer metrics of the traced run, with units. A workload that makes
# no call of the kind a metric describes reports 0 for it.
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("self_s", "s"), ("calls", "count"), ("self_share", "ratio"))},
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans_per_task": "count",
    "trace.tasks": "count",
    "bench.callback_share": "ratio",
    "likelihood.kalman_scalar_us_per_obs": "us",
    "likelihood.kalman_joint_us_per_obs": "us",
    "likelihood.kalman_residual_us_per_step": "us",
    "likelihood.bpf_ms_per_eval": "ms",
    "likelihood.bpf_ns_per_particle_step": "ns",
    "likelihood.bpf_se_mean": "nat",
    "likelihood.quadrature_sv_ms": "ms",
    "likelihood.quadrature_ssm_ms": "ms",
    "likelihood.quadrature_gb_computed": "GB",
    "models.specs_built": "count",
    "models.build_ms_per_spec": "ms",
    "models.build_share": "ratio",
    "models.build_ms_a0.99": "ms",
    "models.build_ms_a0.999": "ms",
    "models.build_ms_a0.9999": "ms",
    "posterior.sweep_s": "s",
    "posterior.remoteness_s": "s",
    "posterior.amle_s": "s",
    "posterior.merging_s": "s",
    "posterior.normalize_s": "s",
    "posterior.mh_us_per_step": "us",
    "posterior.mh_acceptance": "ratio",
    "posterior.mh_out_of_domain": "count",
    "divergence.kld_mc_ns_per_draw": "ns",
    "divergence.closed_us_per_call": "us",
    "audit.envelope_ms_per_draw": "ms",
    "audit.b6_entropy_ms": "ms",
    "audit.positivity_ms": "ms",
    "experiment.bytes_written": "B",
    "core.simulate_us_per_step": "us",
}


def task_seed(seed: int, i: int) -> int:
    """Seed of task ``i`` in a run with workload seed ``seed``.

    Task 0 is the warm-up. Its inputs are the same for every workload seed,
    so that set-up time does not move with the seed (a Metropolis chain's
    cost depends on its path).
    """
    return int(np.random.SeedSequence([seed, i] if i else [0]).generate_state(1)[0])


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def _simulate_us_per_step(summ: Summary, steps: int) -> float:
    return _per(summ.duration("core.simulate_complete"), steps, 1e6)


def _batch_se(x: np.ndarray, batches: int) -> float:
    """Standard error of the mean of ``x`` from non-overlapping batch means."""
    means = x[: len(x) // batches * batches].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


# ---------------------------------------------------------------------------
# concentration_study: the demo-03 study at the reference configuration
# ---------------------------------------------------------------------------

A_STAR = 0.5
A_WRONG = 0.2
INITS = (("stationary", "stationary"), ("pointmass", "pointmass 4.0 4.0"))


@dataclass(frozen=True)
class StudySize:
    points: int  # grid of the reference experiment, and of the demo's own grid
    n_list: tuple
    n_merge: int
    ns: tuple


class ConcentrationStudy:
    name = "concentration_study"
    # Kalman sweeps and spec builds: interpreted loops over small arrays
    probe = ("interp", "small_arrays")
    throughput = ("studies_per_min", "1/min", 1.0, 60.0)  # name, unit, units per task, seconds per unit time

    def __init__(self, tiny: bool):
        self.size = (
            StudySize(37, (100, 400, 1600), 2000, tuple(range(100, 2001, 100)))
            if tiny
            else StudySize(181, (100, 400, 1600), 2000, tuple(range(100, 2001, 100)))
        )

    def setup(self, seed, tr, tmp: Path):
        cfg = replace(reference_config(), grid_points=self.size.points, n_list=self.size.n_list)
        cfg.validate()
        # the traced replay of run_experiment follows this configuration's shape
        if cfg.grid_param != "a" or cfg.prior != "uniform" or cfg.method != "kalman":
            raise ValueError("the replay assumes the reference configuration's grid and prior")
        return {"cfg": cfg, "seed": seed, "tmp": tmp, "bytes": []}

    def prepare(self, ctx, i, tr):
        return task_seed(ctx["seed"], i)

    def _replay(self, cfg, out: Path, tr):
        """run_experiment(cfg, out) as its public steps, one span each."""
        m = cfg.model
        with tr.span("experiment.run_experiment"):
            cfg.validate()
            truth = tr.call(scalar_ssm, m["a"], m["b"], m["q_state"], m["q_obs"])
            toks = cfg.init_true.split()
            init = Stationary() if toks[0] == "stationary" else PointMass(float(toks[1]), float(toks[2]))
            traj = tr.call(simulate_complete, truth, init, cfg.n_list[-1], cfg.seed)
            obs = tr.call(project_observations, traj)
            grid = tr.call(uniform_grid_1d, cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
            with tr.span("models.scalar_ssm", count=len(grid)):
                specs = [scalar_ssm(float(a), m["b"], m["q_state"], m["q_obs"]) for a in grid.points[:, 0]]
            profiles = tr.call(grid_loglik_profiles, specs, obs, Stationary(), method=cfg.method)
            posteriors = [tr.call(posterior_from_profiles, grid, profiles, n) for n in cfg.n_list]
            rows = tr.call(concentration_profile, posteriors, np.array([m["a"]]), cfg.ps)
            audits = tr.call(positivity_audit, truth, seed=cfg.seed)
            config_text = tr.call(serialize_config, cfg)
            out.mkdir(parents=True, exist_ok=True)
            (out / "config.ini").write_text(config_text, encoding="utf-8")
            names = ["config.ini"]
            for n, post in zip(cfg.n_list, posteriors):
                tr.call(write_posterior_csv, post, out / f"posterior_n{n}.csv")
                names.append(f"posterior_n{n}.csv")
            tr.call(write_concentration_csv, rows, out / "concentration.csv")
            tr.call(write_audit_jsonl, audits, out / "audit.jsonl")
            names += ["concentration.csv", "audit.jsonl"]
            lines = [f"config_sha256 {hashlib.sha256(config_text.encode()).hexdigest()}", f"seed {cfg.seed}"]
            lines += [f"output {name}" for name in names]
            (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return rows, posteriors[-1]

    def task(self, ctx, seed, tr):
        z = self.size
        cfg = replace(ctx["cfg"], seed=seed)
        root = ctx["tmp"] / f"study{seed}"
        runs = {}
        for tag, init_true in INITS:
            c = replace(cfg, init_true=init_true)
            if tr.enabled:
                runs[tag] = self._replay(c, root / tag, tr)
            else:
                res = run_experiment(c, out_dir=root / tag)
                runs[tag] = (res.concentration, res.posteriors[-1])

        star = tr.call(scalar_ssm, A_STAR, 1.0, 1.0, 0.2)
        obs = tr.call(project_observations, tr.call(simulate_complete, star, Stationary(), z.n_merge, seed))
        displaced = tr.call(merging_curve, star, obs, PointMass(4.0, 4.0))
        wrong = tr.call(scalar_ssm, A_WRONG, 1.0, 1.0, 0.2)
        wrong_curve = tr.call(merging_curve, wrong, obs, Stationary(), den_spec=star)

        grid = tr.call(uniform_grid_1d, -0.9, 0.9, z.points)
        with tr.span("models.scalar_ssm", count=len(grid)):
            specs = [scalar_ssm(float(a), 1.0, 1.0, 0.2) for a in grid.points[:, 0]]
        far_mask = np.abs(grid.points[:, 0] - A_STAR) >= 0.5
        far = tr.call(remoteness_rate, specs, grid, far_mask, obs, Stationary(), star, list(z.ns))
        whole = tr.call(remoteness_rate, specs, grid, np.ones(len(grid), bool), obs, Stationary(), star, list(z.ns))
        with tr.span("divergence.delta_glm_closed", count=len(specs) + 1):
            deltas = np.array([delta_glm_closed(star.glm, s.glm).value for s in specs])
            delta_wrong = delta_glm_closed(star.glm, wrong.glm).value
        star_ll = tr.call(kalman_loglik, star, obs, Stationary()).value
        amle = tr.call(amle_grid, specs, grid, obs, Stationary(), star_loglik=star_ll)
        return {
            "root": root,
            "replayed": tr.enabled,
            "runs": runs,
            "displaced": displaced,
            "wrong_curve": wrong_curve,
            "delta_wrong": delta_wrong,
            "far": far,
            "whole": whole,
            "grid": grid,
            "deltas": deltas,
            "amle": amle,
        }

    def check(self, ctx, seed, out):
        failed = []
        try:
            failed += self._check(ctx, seed, out)
        finally:
            shutil.rmtree(out["root"], ignore_errors=True)
        return failed

    def _check(self, ctx, seed, out):
        failed = []
        n_final = self.size.n_list[-1]
        for tag, (rows, _) in out["runs"].items():
            mass = [r.mass_outside for r in rows if r.n == n_final and r.p == 5]
            # the p=5 ball's edge sits about 8 posterior sd from the truth;
            # mass 1e-3 outside it needs a posterior mean 4.6 sd off
            if len(mass) != 1 or not mass[0] <= 1e-3:
                failed.append(f"mass_outside_{tag}")
        if not abs(out["displaced"][-1]) <= 0.02:
            failed.append("merging_end")
        if not (out["far"].slope < 0.0 and out["far"].decaying):
            failed.append("far_set_decays")
        if out["whole"].decaying:
            failed.append("whole_grid_no_decay")
        # the wrong-parameter level is a mean of log-ratio increments; it may
        # sit below -Delta only by sampling error
        curve = out["wrong_curve"]
        incs = np.diff(np.concatenate([[0.0], curve * np.arange(1, len(curve) + 1)]))
        if not curve[-1] >= -out["delta_wrong"] - 4.0 * _batch_se(incs, 20):
            failed.append("wrong_level_vs_delta")
        grid = out["grid"].points[:, 0]
        deltas = out["deltas"]
        if not (np.all(deltas >= -1e-12) and deltas[np.argmin(np.abs(grid - A_STAR))] <= 1e-12):
            failed.append("delta_closed")
        post = out["runs"]["stationary"][1]
        pts = post.grid.points[:, 0]
        sd = float(np.sqrt(post.masses() @ (pts - post.mean()[0]) ** 2))
        step = grid[1] - grid[0]
        if not abs(out["amle"].point[0] - A_STAR) <= max(3.0 * step, 5.0 * sd):
            failed.append("amle_near_truth")
        ctx["bytes"].append(sum(f.stat().st_size for f in out["root"].rglob("*") if f.is_file()))
        if out["replayed"]:
            failed += self._check_replay(ctx, seed, out["root"])
        return failed

    def _check_replay(self, ctx, seed, root: Path):
        """The traced replay must write run_experiment's files byte for byte."""
        cfg = replace(ctx["cfg"], seed=seed)
        failed = []
        for tag, init_true in INITS:
            ref = root / f"reference_{tag}"
            run_experiment(replace(cfg, init_true=init_true), out_dir=ref)
            mine = root / tag
            names = sorted(p.name for p in ref.iterdir())
            if names != sorted(p.name for p in mine.iterdir()) or any(
                (ref / n).read_bytes() != (mine / n).read_bytes() for n in names
            ):
                failed.append(f"replay_bytes_{tag}")
        return failed

    def finish(self, ctx, done):
        return []

    def layer_metrics(self, ctx, summ: Summary):
        z = self.size
        g, n = z.points, z.n_list[-1]
        t = summ.tasks
        sweep = summ.duration("posterior.grid_loglik_profiles")
        joint = summ.duration("posterior.merging_curve") + summ.duration("likelihood.kalman_loglik")
        return {
            # two replayed experiments per task, each sweeping g points over n observations
            "likelihood.kalman_scalar_us_per_obs": _per(sweep, 2 * t * g * n, 1e6),
            # two merging curves (two joint passes each) and one joint kalman_loglik
            "likelihood.kalman_joint_us_per_obs": _per(joint, 5 * t * z.n_merge, 1e6),
            "posterior.sweep_s": summ.per_task(sweep),
            "posterior.remoteness_s": summ.per_task(summ.duration("posterior.remoteness_rate")),
            "posterior.amle_s": summ.per_task(summ.duration("posterior.amle_grid")),
            "posterior.merging_s": summ.per_task(summ.duration("posterior.merging_curve")),
            "posterior.normalize_s": summ.per_task(summ.duration("posterior.posterior_from_profiles")),
            "divergence.closed_us_per_call": _per(
                summ.duration("divergence.delta_glm_closed"), summ.count("divergence.delta_glm_closed"), 1e6
            ),
            "audit.positivity_ms": _per(
                summ.duration("audit.positivity_audit"), summ.count("audit.positivity_audit"), 1e3
            ),
            "experiment.bytes_written": float(np.mean(ctx["bytes"])) if ctx["bytes"] else 0.0,
            "core.simulate_us_per_step": _simulate_us_per_step(summ, t * (2 * n + z.n_merge)),
        }


# ---------------------------------------------------------------------------
# mh_near_unit_root: random-walk Metropolis on the AR coefficient
# ---------------------------------------------------------------------------

MH_A_STAR = 0.95
MH_BOUND = 0.999
MH_SD = 0.03
MH_OBS = 400
# the oracle grid covers every a the posterior can reach (over 150 data sets
# the posterior means ran from 0.876 to 0.99, sd at most 0.025); the mass in
# its lowest cells is checked so that a posterior outside it cannot pass
MH_GRID = np.linspace(0.5, MH_BOUND, 500)


def _grid_posterior_mean(obs: np.ndarray, tr):
    """Posterior mean of a under the flat prior, on MH_GRID, and the edge mass."""
    with tr.span("likelihood.ssm_kalman_loglik", count=len(MH_GRID)):
        ll = np.array(
            [ssm_kalman_loglik(SsmParams(A=[[a]], B=[[1.0]], Qzeta=[[1.0]], Qxi=[[0.2]]), obs, Stationary()).value
             for a in MH_GRID]
        )
    w = np.exp(ll - ll.max())
    w /= w.sum()
    return float(w @ MH_GRID), float(w[:5].sum())


class MhNearUnitRoot:
    name = "mh_near_unit_root"
    # nine tenths of a step is the stationary-covariance series of a spec build
    probe = ("small_arrays",)

    def __init__(self, tiny: bool):
        self.steps = 100 if tiny else 250
        self.throughput = ("mh_steps_per_s", "1/s", float(self.steps), 1.0)

    def setup(self, seed, tr, tmp):
        # Where the posterior sits sets the cost of every spec build: over
        # eight data sets, chains cost 3.2 to 8.7 ms per step. So every run
        # uses the same data set, the first of the seed-0 stream, and the
        # seed drives the chains.
        star = tr.call(scalar_ssm, MH_A_STAR, 1.0, 1.0, 0.2)
        obs = tr.call(project_observations, tr.call(simulate_complete, star, Stationary(), MH_OBS, task_seed(0, 0)))
        mean, edge = _grid_posterior_mean(obs, tr)
        return {"seed": seed, "obs": obs, "grid_mean": mean, "edge_mass": edge, "ood": [], "acceptance": []}

    def prepare(self, ctx, i, tr):
        return task_seed(ctx["seed"], i)

    def task(self, ctx, chain_seed, tr):
        out_of_domain = [0]
        log_flat = -np.log(2.0 * MH_BOUND)

        def prior_logpdf(theta):
            if -MH_BOUND <= theta[0] <= MH_BOUND:
                return log_flat
            out_of_domain[0] += 1
            return -np.inf

        def build(theta):
            return scalar_ssm(float(theta[0]), 1.0, 1.0, 0.2)

        res = tr.call(
            mh_posterior,
            tr.wrap("models.scalar_ssm", build),
            tr.wrap("bench.prior_logpdf", prior_logpdf),
            ctx["obs"],
            Stationary(),
            np.array([MH_A_STAR]),
            self.steps,
            np.array([MH_SD]),
            chain_seed,
        )
        ctx["ood"].append(out_of_domain[0])
        ctx["acceptance"].append(res.acceptance_rate)
        return res

    def check(self, ctx, chain_seed, res):
        failed = []
        if not 0.1 < res.acceptance_rate < 0.9:
            failed.append("acceptance_range")
        if not np.all(np.isfinite(res.samples)):
            failed.append("finite_samples")
        if not ctx["edge_mass"] < 1e-9:
            failed.append("oracle_grid_covers_posterior")
        return failed

    def finish(self, ctx, done):
        """Pooled chain mean against the grid-posterior mean, in batch-means se.

        The bound is 4 se: at 3 se one correct run in about 270 would fail,
        and a check set runs this workload 22 times.
        """
        if not done:
            return []
        batch = self.steps // 5
        means = np.concatenate([res.samples[: 5 * batch, 0].reshape(5, batch).mean(axis=1) for _, res in done])
        se = means.std(ddof=1) / np.sqrt(len(means))
        return [] if abs(means.mean() - ctx["grid_mean"]) <= 4.0 * se else ["pooled_mean_vs_grid"]

    def probe_builds(self, tr):
        """Single spec builds near the unit root, one traced call each."""
        return {
            f"models.build_ms_a{a}": 1e3 * _timed(tr, scalar_ssm, a, 1.0, 1.0, 0.2) for a in (0.99, 0.999, 0.9999)
        }

    def layer_metrics(self, ctx, summ: Summary):
        t = summ.tasks
        steps = t * (self.steps + 1)  # mh_posterior evaluates the start point once
        residual = summ.self_time("posterior.mh_posterior")
        return {
            "likelihood.kalman_residual_us_per_step": _per(residual, steps, 1e6),
            # the scalar filter cannot be timed apart from the MH loop, so this
            # is the residual per filtered observation: an upper bound
            "likelihood.kalman_scalar_us_per_obs": _per(residual, steps * MH_OBS, 1e6),
            "posterior.mh_us_per_step": _per(summ.duration("posterior.mh_posterior"), t * self.steps, 1e6),
            "posterior.mh_acceptance": float(np.mean(ctx["acceptance"])) if ctx["acceptance"] else 0.0,
            "posterior.mh_out_of_domain": float(np.mean(ctx["ood"])) if ctx["ood"] else 0.0,
            "core.simulate_us_per_step": _simulate_us_per_step(summ, summ.count("core.simulate_complete") * MH_OBS),
        }


def _timed(tr, fn, *args):
    with tr.span(f"probe.{fn.__name__}") as s:
        fn(*args)
    return s.duration


# ---------------------------------------------------------------------------
# pf_sv: bootstrap particle filter on the stochastic volatility model
# ---------------------------------------------------------------------------

SV_STAR = (1.0, 0.3, 0.9)  # beta, sigma, phi
PARTICLES = 512
REF_FACTOR = 32


class PfSv:
    name = "pf_sv"
    # 1600 interpreted steps, each a few numpy calls on 512 particles
    probe = ("interp", "small_arrays")

    def __init__(self, tiny: bool):
        self.n = 200 if tiny else 1600
        self.throughput = ("pf_particle_steps_per_s", "1/s", float(PARTICLES * self.n), 1.0)

    def setup(self, seed, tr, tmp):
        spec = tr.call(sv_spec, SvParams(*SV_STAR))
        obs = tr.call(project_observations, tr.call(simulate_complete, spec, Stationary(), self.n, seed))
        # reference estimate on the same data from a stream no task uses
        ref = tr.call_as("bench.reference_bpf", 1, bpf_loglik, spec, obs, Stationary(), PARTICLES * REF_FACTOR, seed, 0)
        return {"seed": seed, "spec": spec, "obs": obs, "ref": ref, "se": []}

    def prepare(self, ctx, i, tr):
        return i + 1  # fresh particle stream per task; stream 0 is the reference

    def task(self, ctx, stream, tr):
        return tr.call(bpf_loglik, ctx["spec"], ctx["obs"], Stationary(), PARTICLES, ctx["seed"], stream=stream)

    def check(self, ctx, stream, est):
        # gross-error check per task; the pooled check in finish() is the
        # calibrated one. Over 300 streams the reported delta-method se
        # understated the replicate sd by about a quarter, and more on some
        # data, so the bound is 10 reported se.
        ref = ctx["ref"]
        ctx["se"].append(est.se)
        ok = np.isfinite(est.value) and abs(est.value - ref.value) <= 10.0 * np.hypot(est.se, ref.se)
        return [] if ok else ["agrees_with_reference"]

    def finish(self, ctx, done):
        """Pooled estimates against the reference, using their replicate spread.

        The likelihood estimate is unbiased on the natural scale, so its log
        sits about var/2 below the log likelihood.
        """
        if len(done) < 2:
            return []
        v = np.array([est.value for _, est in done])
        ref = ctx["ref"]
        var = v.var(ddof=1)
        tol = 4.0 * np.sqrt(var / len(v) + ref.se**2)
        return [] if abs(v.mean() + var / 2.0 - ref.value) <= tol else ["pooled_vs_reference"]

    def layer_metrics(self, ctx, summ: Summary):
        dur = summ.duration("likelihood.bpf_loglik")
        evals = summ.count("likelihood.bpf_loglik")
        return {
            "likelihood.bpf_ms_per_eval": _per(dur, evals, 1e3),
            "likelihood.bpf_ns_per_particle_step": _per(dur, evals * PARTICLES * self.n, 1e9),
            "likelihood.bpf_se_mean": float(np.mean(ctx["se"])) if ctx["se"] else 0.0,
            "core.simulate_us_per_step": _simulate_us_per_step(summ, summ.count("core.simulate_complete") * self.n),
        }


# ---------------------------------------------------------------------------
# oracle_checks: the acceptance-style oracle cross-checks
# ---------------------------------------------------------------------------

QUAD_N = 8
CLI_BOX = SvThetaBox(beta_lo=0.1, sigma_lo=0.1, phi_hi=0.95, sigma_hi=2.5)  # `pommkit audit` default


@dataclass(frozen=True)
class OracleSize:
    nodes: int
    draws: int  # Monte Carlo KLD and entropy draws
    envelope_draws: int


@dataclass(frozen=True)
class OraclePrep:
    seed: int
    sv_star: object
    sv_other: object
    ssm_star: object
    ssm_other: object
    y_sv: np.ndarray
    y_ssm: np.ndarray


class OracleChecks:
    name = "oracle_checks"
    # per-draw audit loops, and 2001-node quadratures bound by memory traffic
    probe = ("interp", "small_arrays", "dense")
    throughput = ("oracle_checks_per_min", "1/min", 1.0, 60.0)

    def __init__(self, tiny: bool):
        self.size = OracleSize(801, 20_000, 50) if tiny else OracleSize(2001, 100_000, 1000)

    def setup(self, seed, tr, tmp):
        return {"seed": seed}

    def prepare(self, ctx, i, tr):
        seed = task_seed(ctx["seed"], i)
        rng = np.random.default_rng(seed)
        sv_star = sv_spec(SvParams(*SV_STAR))
        sv_other = sv_spec(SvParams(rng.uniform(0.8, 1.25), rng.uniform(0.2, 0.45), rng.uniform(0.7, 0.95)))
        ssm_star = scalar_ssm(A_STAR, 1.0, 1.0, 0.2)
        ssm_other = scalar_ssm(float(rng.uniform(-0.9, 0.9)), 1.0, 1.0, 0.2)
        y_sv = project_observations(simulate_complete(sv_star, Stationary(), QUAD_N, seed))
        y_ssm = project_observations(simulate_complete(ssm_star, Stationary(), QUAD_N, seed))
        return OraclePrep(seed, sv_star, sv_other, ssm_star, ssm_other, y_sv, y_ssm)

    def task(self, ctx, p: OraclePrep, tr):
        z = self.size
        return {
            "q_sv": tr.call_as("likelihood.quadrature_sv", 1, quadrature_loglik, p.sv_star, p.y_sv, Stationary(), z.nodes),
            "q_ssm": tr.call_as(
                "likelihood.quadrature_ssm", 1, quadrature_loglik, p.ssm_star, p.y_ssm, Stationary(), z.nodes
            ),
            "k_ssm": tr.call(kalman_loglik, p.ssm_star, p.y_ssm, Stationary()),
            "mc_sv": tr.call(step_kld_mc, p.sv_star, p.sv_other, z.draws, p.seed),
            "cf_sv": tr.call(delta_sv_closed, p.sv_star.sv, p.sv_other.sv),
            "mc_glm": tr.call(step_kld_mc, p.ssm_star, p.ssm_other, z.draws, p.seed),
            "cf_glm": tr.call(delta_glm_closed, p.ssm_star.glm, p.ssm_other.glm),
            "envelope": tr.call(envelope_validity_audit, CLI_BOX, z.envelope_draws, p.seed),
            "b6": tr.call(b6_entropy_floor_sv, p.sv_star.sv, z.draws, p.seed),
            "floor": tr.call(b6_jensen_floor_sv, p.sv_star.sv)[0],
        }

    def check(self, ctx, p, r):
        failed = []
        k = r["k_ssm"].value
        if not abs(r["q_ssm"].value - k) <= 1e-8 * abs(k):
            failed.append("quadrature_vs_kalman")
        # SV has no exact value, and on eight observations the particle
        # filter's reported se understated its replicate sd up to 3.3-fold
        if not np.isfinite(r["q_sv"].value):
            failed.append("quadrature_sv_finite")
        # 5 se: at 4 se one of 262 correct checks failed (z = -4.17)
        for fam in ("sv", "glm"):
            mc, cf = r[f"mc_{fam}"], r[f"cf_{fam}"]
            if not abs(mc.value - cf.value) <= 5.0 * mc.se:
                failed.append(f"kld_mc_vs_closed_{fam}")
        if r["envelope"].status != "pass":
            failed.append("envelope_audit")
        if not r["b6"].statistic > r["floor"]:
            failed.append("entropy_above_jensen_floor")
        return failed

    def finish(self, ctx, done):
        return []

    def layer_metrics(self, ctx, summ: Summary):
        z = self.size
        calls = summ.count("likelihood.quadrature_sv") + summ.count("likelihood.quadrature_ssm")
        # computed from array sizes: each of the n-1 transition steps writes
        # and reads one nodes x nodes float64 matrix
        gb = calls * (QUAD_N - 1) * 2 * 8 * z.nodes**2 / 1e9
        return {
            "likelihood.quadrature_sv_ms": _per(summ.duration("likelihood.quadrature_sv"), summ.tasks, 1e3),
            "likelihood.quadrature_ssm_ms": _per(summ.duration("likelihood.quadrature_ssm"), summ.tasks, 1e3),
            "likelihood.quadrature_gb_computed": _per(gb, summ.tasks),
            "divergence.kld_mc_ns_per_draw": _per(
                summ.duration("divergence.step_kld_mc"), summ.count("divergence.step_kld_mc") * z.draws, 1e9
            ),
            "audit.envelope_ms_per_draw": _per(
                summ.duration("audit.envelope_validity_audit"),
                summ.count("audit.envelope_validity_audit") * z.envelope_draws,
                1e3,
            ),
            "audit.b6_entropy_ms": _per(
                summ.duration("audit.b6_entropy_floor_sv"), summ.count("audit.b6_entropy_floor_sv"), 1e3
            ),
        }


WORKLOADS = {w.name: w for w in (ConcentrationStudy, MhNearUnitRoot, PfSv, OracleChecks)}
