"""Configuration-driven, reproducible concentration experiments.

A single INI-style config describes the data-generating model, the data
sizes, the inference grid and the outputs; running it simulates one
trajectory, computes the posterior at every requested sample size from a
single likelihood pass, and writes plot-ready tables plus an audit log
and a manifest. The grid's models are one checked parameter record
(``experiment_grid``), which the Kalman grid sweep filters without
building a spec per point; ``validate`` builds that record too, so a grid
that leaves the model's domain fails at parse time, naming
``grid_param``. Outputs are a pure function of (config, seed): floats are
printed with 17 significant digits and no timestamps are recorded, so a
rerun is byte-identical.

Config grammar (parsed with :mod:`configparser`, flat typed keys inside
four sections)::

    [model]
    family = ssm                   # the runner supports the state-space family only
    a = 0.5                        # ssm: AR coefficient (the true value)
    b = 1.0                        # ssm: observation loading
    q_state = 1.0                  # ssm: state noise variance
    q_obs = 0.2                    # ssm: observation noise variance

    [data]
    n_list = 100 400 1600          # strictly increasing sample sizes
    init_true = stationary         # or: pointmass <x0> <y0>
    init_inference = stationary
    seed = 20260808

    [inference]
    method = kalman
    grid_param = a                 # which model coordinate the grid sweeps
    grid_lo = -0.9
    grid_hi = 0.9
    grid_points = 181
    prior = uniform                # or: improper (unit, unnormalized weights)
    ps = 2 5 10                    # concentration radii are 1/p

    [outputs]
    directory = out
    formats = csv jsonl
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .audit import AuditReport, positivity_audit, write_audit_jsonl
from .core import ModelSpec, PointMass, Stationary, project_observations, simulate_complete
from .models import ScalarSsmGrid, scalar_ssm
from .posterior import (
    ConcentrationRow,
    ParamGrid,
    PosteriorGrid,
    concentration_profile,
    grid_loglik_profiles,
    posterior_from_profiles,
    uniform_grid_1d,
    write_concentration_csv,
    write_posterior_csv,
)
from .rng import _is_int


_MODEL_KEYS = {"ssm": ("a", "b", "q_state", "q_obs")}  # the argument names of scalar_ssm


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    model: dict  # family-specific scalar parameters (the true values)
    n_list: tuple
    init_true: str  # "stationary" or "pointmass <x0> <y0>"
    init_inference: str
    seed: int
    method: str
    grid_param: str
    grid_lo: float
    grid_hi: float
    grid_points: int
    prior: str
    ps: tuple
    directory: str
    formats: tuple

    def validate(self) -> None:
        if self.family not in _MODEL_KEYS:
            raise ValueError(f"experiment runner supports the ssm family, got {self.family!r}")
        for key, value in (*self.model.items(), ("grid_lo", self.grid_lo), ("grid_hi", self.grid_hi)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)) or self.n_list[0] < 1:
            raise ValueError("n_list must be strictly increasing positive integers")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.method != "kalman":
            raise ValueError("grid experiments use the exact kalman likelihood")
        if self.grid_param not in self.model:
            raise ValueError(f"grid_param {self.grid_param!r} is not a model coordinate")
        if not self.grid_lo < self.grid_hi:
            raise ValueError("grid_lo must be below grid_hi")
        if self.grid_points < 2:
            raise ValueError("need at least two grid points")
        if self.prior not in ("uniform", "improper"):
            raise ValueError(f"unknown prior {self.prior!r}")
        if not self.ps or not all(_is_int(p) and p >= 1 for p in self.ps):
            raise ValueError(f"ps must be positive integers, got {list(self.ps)}")
        if not set(self.formats) <= {"csv", "jsonl"}:
            raise ValueError(f"formats must be csv and/or jsonl, got {list(self.formats)}")
        try:
            model_spec(self)
        except ValueError as err:
            keys = ", ".join(f"{k} = {v!r}" for k, v in self.model.items())
            raise ValueError(f"[model] {keys} is not a valid {self.family} model: {err}") from err
        try:
            experiment_grid(self)
        except ValueError as err:
            span = f"[{self.grid_lo!r}, {self.grid_hi!r}]"
            raise ValueError(f"grid_param {self.grid_param} on {span} leaves the {self.family} model: {err}") from err
        truth = self.model[self.grid_param]
        if not self.grid_lo <= truth <= self.grid_hi:
            raise ValueError("the grid must cover the true parameter for concentration runs")


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    for section in ("model", "data", "inference", "outputs"):
        if section not in cp:
            raise ValueError(f"config is missing the [{section}] section")
    family = cp["model"]["family"].strip()
    if family not in _MODEL_KEYS:
        raise ValueError(f"unknown model family {family!r}")
    model = {k: float(cp["model"][k]) for k in _MODEL_KEYS[family]}
    cfg = ExperimentConfig(
        family=family,
        model=model,
        n_list=tuple(int(tok) for tok in cp["data"]["n_list"].split()),
        init_true=cp["data"].get("init_true", "stationary").strip(),
        init_inference=cp["data"].get("init_inference", "stationary").strip(),
        seed=int(cp["data"]["seed"]),
        method=cp["inference"].get("method", "kalman").strip(),
        grid_param=cp["inference"]["grid_param"].strip(),
        grid_lo=float(cp["inference"]["grid_lo"]),
        grid_hi=float(cp["inference"]["grid_hi"]),
        grid_points=int(cp["inference"]["grid_points"]),
        prior=cp["inference"].get("prior", "uniform").strip(),
        ps=tuple(int(tok) for tok in cp["inference"].get("ps", "2 5 10").split()),
        directory=cp["outputs"].get("directory", "out").strip(),
        formats=tuple(cp["outputs"].get("formats", "csv jsonl").split()),
    )
    cfg.validate()
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse(serialize(parse(text)))`` is identity."""
    out = io.StringIO()
    out.write("[model]\n")
    out.write(f"family = {cfg.family}\n")
    for k in _MODEL_KEYS[cfg.family]:
        out.write(f"{k} = {cfg.model[k]:.17g}\n")
    out.write("\n[data]\n")
    out.write(f"n_list = {' '.join(str(n) for n in cfg.n_list)}\n")
    out.write(f"init_true = {cfg.init_true}\n")
    out.write(f"init_inference = {cfg.init_inference}\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write("\n[inference]\n")
    out.write(f"method = {cfg.method}\n")
    out.write(f"grid_param = {cfg.grid_param}\n")
    out.write(f"grid_lo = {cfg.grid_lo:.17g}\n")
    out.write(f"grid_hi = {cfg.grid_hi:.17g}\n")
    out.write(f"grid_points = {cfg.grid_points}\n")
    out.write(f"prior = {cfg.prior}\n")
    out.write(f"ps = {' '.join(str(p) for p in cfg.ps)}\n")
    out.write("\n[outputs]\n")
    out.write(f"directory = {cfg.directory}\n")
    out.write(f"formats = {' '.join(cfg.formats)}\n")
    return out.getvalue()


def reference_config() -> ExperimentConfig:
    """The shipped scalar state-space concentration experiment."""
    return parse_config(REFERENCE_CONFIG_TEXT)


REFERENCE_CONFIG_TEXT = """\
[model]
family = ssm
a = 0.5
b = 1.0
q_state = 1.0
q_obs = 0.2

[data]
n_list = 100 400 1600
init_true = stationary
init_inference = stationary
seed = 20260808

[inference]
method = kalman
grid_param = a
grid_lo = -0.9
grid_hi = 0.9
grid_points = 181
prior = uniform
ps = 2 5 10

[outputs]
directory = out
formats = csv jsonl
"""


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _parse_init(tag: str):
    toks = tag.split()
    if toks[0] == "stationary":
        return Stationary()
    if toks[0] == "pointmass":
        if len(toks) != 3:
            raise ValueError("pointmass init takes two coordinates: x0 y0")
        return PointMass(float(toks[1]), float(toks[2]))
    raise ValueError(f"unknown initial distribution {tag!r}")


def model_spec(cfg: ExperimentConfig) -> ModelSpec:
    """The config's model."""
    return scalar_ssm(**{k: cfg.model[k] for k in _MODEL_KEYS[cfg.family]})


def experiment_grid(cfg: ExperimentConfig) -> tuple[ParamGrid, ScalarSsmGrid]:
    """The config's parameter grid and the model at each of its points.

    The models are one checked ``ScalarSsmGrid``: the config's model with
    its ``grid_param`` column set to the grid points. No spec is built
    per point.
    """
    grid = uniform_grid_1d(cfg.grid_lo, cfg.grid_hi, cfg.grid_points)
    if cfg.prior == "improper":
        grid = ParamGrid(grid.points, np.ones(len(grid)), grid.cell_volume)
    model = {**cfg.model, cfg.grid_param: grid.points[:, 0]}
    return grid, ScalarSsmGrid(*(model[k] for k in _MODEL_KEYS[cfg.family]))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    posteriors: list  # one PosteriorGrid per n
    concentration: list  # ConcentrationRow
    audits: list  # AuditReport
    manifest: dict
    out_dir: Optional[Path]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Simulate, sweep the grid, and write the experiment tables.

    One trajectory is drawn to the largest requested n under the true
    initial law; posteriors at every n reuse the prefix likelihoods of a
    single filter pass per grid point. The final posterior must be
    non-degenerate or the run fails with a diagnostic.
    """
    cfg.validate()
    truth_spec = model_spec(cfg)
    n_max = cfg.n_list[-1]
    traj = simulate_complete(truth_spec, _parse_init(cfg.init_true), n_max, cfg.seed)
    obs = project_observations(traj)
    grid, models = experiment_grid(cfg)
    init_inf = _parse_init(cfg.init_inference)
    profiles = grid_loglik_profiles(models, obs, init_inf, method=cfg.method)
    posteriors = [posterior_from_profiles(grid, profiles, n) for n in cfg.n_list]
    theta_star = np.array([cfg.model[cfg.grid_param]])
    rows = concentration_profile(posteriors, theta_star, cfg.ps)
    audits = positivity_audit(truth_spec, seed=cfg.seed)

    config_text = serialize_config(cfg)
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": cfg.seed,
        "n_list": list(cfg.n_list),
        "outputs": [],
    }
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "config.ini").write_text(config_text, encoding="utf-8")
        manifest["outputs"].append("config.ini")
        if "csv" in cfg.formats:
            for n, post in zip(cfg.n_list, posteriors):
                name = f"posterior_n{n}.csv"
                write_posterior_csv(post, out_path / name)
                manifest["outputs"].append(name)
            write_concentration_csv(rows, out_path / "concentration.csv")
            manifest["outputs"].append("concentration.csv")
        if "jsonl" in cfg.formats:
            write_audit_jsonl(audits, out_path / "audit.jsonl")
            manifest["outputs"].append("audit.jsonl")
        lines = [f"config_sha256 {manifest['config_sha256']}", f"seed {cfg.seed}"]
        lines += [f"output {name}" for name in manifest["outputs"]]
        (out_path / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ExperimentResult(
        config=cfg,
        posteriors=posteriors,
        concentration=rows,
        audits=audits,
        manifest=manifest,
        out_dir=out_path,
    )
