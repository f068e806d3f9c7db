"""Command-line wrappers over the library.

Six subcommands, each a thin shell around one module operation:
``simulate``, ``loglik``, ``posterior``, ``kld``, ``audit`` and
``experiment``. Numeric output is printed with 17 significant digits so
that runs can be compared byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import experiment as xp
from .audit import (
    SvThetaBox,
    b6_audit_sv,
    envelope_validity_audit,
    positivity_audit,
    tightness_audit_sv,
    write_audit_jsonl,
)
from .core import project_observations, simulate_complete
from .divergence import delta_glm_closed, delta_sv_closed
from .likelihood import loglik
from .models import GlmParams, SvParams, sv_spec
from .posterior import grid_loglik_profiles, posterior_from_profiles, write_posterior_csv


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> xp.ExperimentConfig:
    return xp.parse_config(Path(path).read_text(encoding="utf-8"))


def _config_obs(cfg: xp.ExperimentConfig, n: int, seed: int):
    spec = xp.model_spec(cfg)
    traj = simulate_complete(spec, xp._parse_init(cfg.init_true), n, seed)
    return spec, project_observations(traj)


def _read_obs(path: str) -> np.ndarray:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("k,"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    arr = np.asarray(rows)
    return arr[:, 0] if arr.shape[1] == 1 else arr


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    n = args.n if args.n is not None else cfg.n_list[-1]
    spec = xp.model_spec(cfg)
    traj = simulate_complete(spec, xp._parse_init(cfg.init_true), n, seed)
    lines = ["k,x,y"]
    for k in range(len(traj)):
        lines.append(f"{k},{_fmt(traj.x[k, 0])},{_fmt(traj.y[k, 0])}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_loglik(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    if args.obs:
        obs = _read_obs(args.obs)
        spec = xp.model_spec(cfg)
    else:
        n = args.n if args.n is not None else cfg.n_list[-1]
        spec, obs = _config_obs(cfg, n, seed)
    init = xp._parse_init(cfg.init_inference)
    ll = loglik(spec, obs, init, args.method, particles=args.particles, seed=seed, nodes=args.nodes)
    out = f"loglik {_fmt(ll.value)} n {ll.n} method {ll.method}"
    if ll.se is not None:
        out += f" se {_fmt(ll.se)}"
    print(out)
    return 0


def _cmd_posterior(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    n_eval = args.n if args.n is not None else cfg.n_list[-1]
    n_sim = max(n_eval, 1)
    spec, obs = _config_obs(cfg, n_sim, seed)
    grid, specs = xp.experiment_grid(cfg)
    profiles = grid_loglik_profiles(specs, obs, xp._parse_init(cfg.init_inference))
    post = posterior_from_profiles(grid, profiles, n_eval)
    if args.out:
        write_posterior_csv(post, args.out)
    else:
        dens = post.log_density()
        print("theta0,log_post")
        for pt, ld in zip(post.grid.points, dens):
            print(f"{_fmt(pt[0])},{_fmt(ld)}")
    return 0


def _parse_matrix(tokens, d):
    vals = [float(t) for t in tokens]
    if len(vals) != d * d:
        raise SystemExit(f"expected {d * d} matrix entries, got {len(vals)}")
    return np.array(vals).reshape(d, d)


def _cmd_kld(args) -> int:
    if args.family == "glm":
        d = args.p + args.q
        star = GlmParams(_parse_matrix(args.phi_star, d), _parse_matrix(args.r_star, d), args.p, args.q)
        other = GlmParams(_parse_matrix(args.phi, d), _parse_matrix(args.r, d), args.p, args.q)
        est = delta_glm_closed(star, other)
    elif args.family == "sv":
        star = SvParams(*args.theta_star)
        other = SvParams(*args.theta)
        est = delta_sv_closed(star, other)
    else:
        raise SystemExit(f"unsupported family {args.family}")
    print(f"kld {_fmt(est.value)} method {est.method}")
    return 0


def _cmd_audit(args) -> int:
    reports = []
    if args.family == "sv":
        star = SvParams(*args.theta_star)
        box = SvThetaBox(beta_lo=args.box[0], sigma_lo=args.box[1], phi_hi=args.box[2], sigma_hi=args.box[3])
        if args.assumption in ("B5", "all"):
            reports.extend(tightness_audit_sv(star, box, [10.0, 100.0, 1000.0], args.sims, args.seed))
        if args.assumption in ("B6", "all"):
            reports.extend(b6_audit_sv(star, box, proper_prior=not args.improper, draws=args.sims, seed=args.seed))
        if args.assumption in ("envelope", "all"):
            reports.append(envelope_validity_audit(box, draws=min(args.sims, 10_000), seed=args.seed))
        if args.assumption in ("B3", "C2"):
            reports.extend(positivity_audit(sv_spec(star), seed=args.seed))
    elif args.family == "ssm":
        cfg = _load_config(args.config) if args.config else xp.reference_config()
        reports.extend(positivity_audit(xp.model_spec(cfg), seed=args.seed))
    else:
        raise SystemExit(f"unsupported family {args.family}")
    if not reports:
        raise SystemExit(f"assumption {args.assumption} is not audited for family {args.family}")
    if args.out:
        write_audit_jsonl(reports, args.out)
    else:
        for r in reports:
            print(r.to_json())
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = args.out or cfg.directory
    result = xp.run_experiment(cfg, out_dir=out)
    for row in result.concentration:
        print(f"n {row.n} p {row.p} mass_outside {_fmt(row.mass_outside)}")
    print(f"wrote {len(result.manifest['outputs']) + 1} files to {result.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pommkit", description="Partially observed Markov model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output file or directory")

    p = sub.add_parser("simulate", help="simulate a trajectory from the config model")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("loglik", help="evaluate the likelihood of the config data")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--obs", default=None, help="CSV of observations (else simulate per config)")
    p.add_argument("--method", default="kalman", choices=["kalman", "bpf", "quadrature"])
    p.add_argument("--particles", type=int, default=512)
    p.add_argument("--nodes", type=int, default=2001)
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("posterior", help="grid posterior at one sample size")
    common(p)
    p.add_argument("--n", type=int, default=None, help="sample size (0 returns the prior)")
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("kld", help="closed-form expected transition divergence")
    p.add_argument("--family", required=True, choices=["glm", "sv"])
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--phi-star", nargs="+", default=None)
    p.add_argument("--r-star", nargs="+", default=None)
    p.add_argument("--phi", nargs="+", default=None)
    p.add_argument("--r", nargs="+", default=None)
    p.add_argument("--theta-star", nargs=3, type=float, default=None, metavar=("BETA", "SIGMA", "PHI"))
    p.add_argument("--theta", nargs=3, type=float, default=None, metavar=("BETA", "SIGMA", "PHI"))
    p.set_defaults(func=_cmd_kld)

    p = sub.add_parser("audit", help="run assumption audits, emitting JSON lines")
    p.add_argument("--assumption", required=True, choices=["B3", "C2", "B5", "B6", "envelope", "all"])
    p.add_argument("--family", required=True, choices=["sv", "ssm"])
    p.add_argument("--theta-star", nargs=3, type=float, default=[1.0, 0.3, 0.9], metavar=("BETA", "SIGMA", "PHI"))
    p.add_argument("--box", nargs=4, type=float, default=[0.1, 0.1, 0.95, 2.5],
                   metavar=("BETA_LO", "SIGMA_LO", "PHI_HI", "SIGMA_HI"))
    p.add_argument("--improper", action="store_true", help="audit the improper Lebesgue prior")
    p.add_argument("--sims", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a full concentration experiment")
    common(p)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # rejected input: one line and exit status 2, as argparse reports its own errors
        parser.exit(2, f"{parser.prog} {args.command}: error: {err}\n")


if __name__ == "__main__":
    raise SystemExit(main())
