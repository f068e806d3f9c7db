"""Configuration-driven, reproducible concentration experiments.

A single INI-style config describes the data-generating model, the data
sizes, the inference grid and the outputs; running it simulates one
trajectory, computes the posterior at every requested sample size from a
single likelihood pass, and writes plot-ready tables plus an audit log
and a manifest. One table of keys (``_CONFIG_KEYS``) drives both
``parse_config`` and ``serialize_config``, and one check
(``ExperimentConfig._checked_models``) derives everything a run reads:
the true model, both initial laws, the grid and the grid's models, one
checked parameter record (``experiment_grid``) that the Kalman grid
sweep filters without building a spec per point. ``validate`` runs that
check, so a law or a grid that a run would reject fails at parse time,
and ``run_experiment`` and every command of the CLI run on what the
check built. Outputs are a pure function of (config, seed): floats are
printed with 17 significant digits and no timestamps are recorded, so a
rerun is byte-identical.

Config grammar (parsed with :mod:`configparser`, flat typed keys inside
four sections, each of which must be present, and no other section or
key). Keys marked *required* have no default; every other key may be
left out and takes the value shown. A ``%`` in a value is written
``%%``, as ``configparser``'s interpolation reads it::

    [model]
    family = ssm                   # required; the runner supports the state-space family only
    a = 0.5                        # required (ssm): AR coefficient (the true value)
    b = 1.0                        # required (ssm): observation loading
    q_state = 1.0                  # required (ssm): state noise variance
    q_obs = 0.2                    # required (ssm): observation noise variance

    [data]
    n_list = 100 400 1600          # required; strictly increasing sample sizes
    init_true = stationary         # or: pointmass <x0> <y0>
    init_inference = stationary
    seed = 20260808                # required

    [inference]
    method = kalman
    grid_param = a                 # required; which model coordinate the grid sweeps
    grid_lo = -0.9                 # required
    grid_hi = 0.9                  # required
    grid_points = 181              # required
    prior = uniform                # or: improper (unit, unnormalized weights)
    ps = 2 5 10                    # concentration radii are 1/p

    [outputs]
    directory = out
    formats = csv jsonl

Every rejected config raises ``ValueError`` with a one-line message that
names what is wrong: ``config is missing [data] seed`` for a missing
key, ``config has unknown key [inference] priors`` for a key that the
grammar does not name (so a misspelled optional key does not fall back
to its default), ``[inference] grid_points must be an integer, got
'2.5'`` for a value that does not convert, and a message naming the key
(or the ``[model]`` keys, or ``grid_param``) for a value that converts
but that a run would reject. The command line prints that message as
``pommkit <command>: error: <message>`` and exits with status 2.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

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

# Every config key as (section, key, kind, default), in the order serialize_config writes them; a
# default of None marks a required key. The [model] keys of a family follow family (_key_table).
_CONFIG_KEYS = (
    ("model", "family", "str", None),
    ("data", "n_list", "ints", None),
    ("data", "init_true", "str", "stationary"),
    ("data", "init_inference", "str", "stationary"),
    ("data", "seed", "int", None),
    ("inference", "method", "str", "kalman"),
    ("inference", "grid_param", "str", None),
    ("inference", "grid_lo", "float", None),
    ("inference", "grid_hi", "float", None),
    ("inference", "grid_points", "int", None),
    ("inference", "prior", "str", "uniform"),
    ("inference", "ps", "ints", "2 5 10"),
    ("outputs", "directory", "str", "out"),
    ("outputs", "formats", "words", "csv jsonl"),
)
# kind: (reader of the raw text, what the value must be when the reader fails, writer)
_KINDS = {
    "str": (str.strip, None, str),
    "words": (lambda raw: tuple(raw.split()), None, " ".join),
    "float": (float, "a number", "{:.17g}".format),
    "int": (int, "an integer", str),
    "ints": (lambda raw: tuple(int(tok) for tok in raw.split()), "integers", lambda v: " ".join(map(str, v))),
}


def _key_table(family: str) -> tuple:
    """``_CONFIG_KEYS`` with the family's ``[model]`` keys, required floats, after ``family``."""
    return _CONFIG_KEYS[:1] + tuple(("model", key, "float", None) for key in _MODEL_KEYS[family]) + _CONFIG_KEYS[1:]


def _read_key(sections: dict, section: str, key: str, kind: str, default):
    """One key's value, converted by its kind; a missing section or key, or a failed conversion, is a ValueError."""
    if section not in sections:
        raise ValueError(f"config is missing the [{section}] section")
    raw = sections[section].get(key, default)
    if raw is None:
        raise ValueError(f"config is missing [{section}] {key}")
    read, noun, _ = _KINDS[kind]
    try:
        return read(raw)
    except ValueError as err:
        raise ValueError(f"[{section}] {key} must be {noun}, got {raw!r}") from err


class _Checked(NamedTuple):
    """What a config's check builds, once: the true model, both initial laws, the grid and the grid's models."""

    truth: ModelSpec
    init_true: object
    init_inference: object
    grid: ParamGrid
    models: ScalarSsmGrid


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
        self._checked_models()

    def _checked_models(self) -> _Checked:
        """Checks the config, and returns its true model, both initial laws, its grid and the grid's models.

        A tag that names no initial law is rejected naming its key; a point
        mass that is not finite raises ``PointMass``'s own error.
        """
        if self.family not in _MODEL_KEYS:
            raise ValueError(f"experiment runner supports the ssm family, got {self.family!r}")
        for key, value in (*self.model.items(), ("grid_lo", self.grid_lo), ("grid_hi", self.grid_hi)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        ints = all(_is_int(n) for n in self.n_list)
        if not self.n_list or not ints or list(self.n_list) != sorted(set(self.n_list)) or self.n_list[0] < 1:
            raise ValueError(f"n_list must be strictly increasing positive integers, got {list(self.n_list)!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.method != "kalman":
            raise ValueError("grid experiments use the exact kalman likelihood")
        if self.grid_param not in self.model:
            raise ValueError(f"grid_param {self.grid_param!r} is not a model coordinate")
        if not self.grid_lo < self.grid_hi:
            raise ValueError("grid_lo must be below grid_hi")
        if not _is_int(self.grid_points) or self.grid_points < 2:
            raise ValueError(f"grid_points must be an integer >= 2, got {self.grid_points!r}")
        if self.prior not in ("uniform", "improper"):
            raise ValueError(f"unknown prior {self.prior!r}")
        if not self.ps or not all(_is_int(p) and p >= 1 for p in self.ps):
            raise ValueError(f"ps must be positive integers, got {list(self.ps)}")
        if not set(self.formats) <= {"csv", "jsonl"}:
            raise ValueError(f"formats must be csv and/or jsonl, got {list(self.formats)}")
        laws = [_parse_init(getattr(self, key)) for key in ("init_true", "init_inference")]
        for key, law in zip(("init_true", "init_inference"), laws):
            if law is None:
                raise ValueError(f"{key} must be stationary or pointmass <x0> <y0>, got {getattr(self, key)!r}")
        try:
            truth = model_spec(self)
        except ValueError as err:
            keys = ", ".join(f"{k} = {v!r}" for k, v in self.model.items())
            raise ValueError(f"[model] {keys} is not a valid {self.family} model: {err}") from err
        try:
            grid, models = experiment_grid(self)
        except ValueError as err:
            span = f"[{self.grid_lo!r}, {self.grid_hi!r}]"
            raise ValueError(f"grid_param {self.grid_param} on {span} leaves the {self.family} model: {err}") from err
        if not self.grid_lo <= self.model[self.grid_param] <= self.grid_hi:
            raise ValueError("the grid must cover the true parameter for concentration runs")
        return _Checked(truth, *laws, grid, models)


def parse_config(text: str) -> ExperimentConfig:
    """The checked config that ``text`` describes; malformed text raises ``ValueError`` (see the module docstring)."""
    cp = configparser.ConfigParser(default_section="")  # no header names "", so [DEFAULT] is an ordinary section
    try:
        cp.read_string(text)
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as err:
        raise ValueError(f"config is not valid INI: {' '.join(str(err).split())}") from err
    family = _read_key(sections, *_CONFIG_KEYS[0])
    if family not in _MODEL_KEYS:
        raise ValueError(f"unknown model family {family!r}")
    table = _key_table(family)
    for section, keys in sections.items():  # in file order, so the first unknown name is reported
        known = {row[1] for row in table if row[0] == section}
        if not known:
            raise ValueError(f"config has unknown section [{section}]")
        unknown = [key for key in keys if key not in known]
        if unknown:
            raise ValueError(f"config has unknown key [{section}] {unknown[0]}")
    values = {row[1]: _read_key(sections, *row) for row in table}
    cfg = ExperimentConfig(model={key: values.pop(key) for key in _MODEL_KEYS[family]}, **values)
    cfg.validate()
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse(serialize(parse(text)))`` is identity.

    A ``%`` in a value is written ``%%``, which ``configparser``'s
    interpolation reads back as ``%``.
    """
    values = {**vars(cfg), **cfg.model}
    blocks = {}
    for section, key, kind, _ in _key_table(cfg.family):
        text = _KINDS[kind][2](values[key]).replace("%", "%%")
        blocks[section] = blocks.get(section, f"[{section}]\n") + f"{key} = {text}\n"
    return "\n".join(blocks.values())


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
    """The initial law that ``tag`` names, or None if it is neither ``stationary`` nor ``pointmass <x0> <y0>``."""
    toks = tag.split()
    if toks[:1] == ["stationary"]:
        return Stationary()
    if toks[:1] != ["pointmass"] or len(toks) != 3:
        return None
    try:
        x0, y0 = float(toks[1]), float(toks[2])
    except ValueError:
        return None
    return PointMass(x0, y0)


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
    truth_spec, init_true, init_inf, grid, models = cfg._checked_models()
    traj = simulate_complete(truth_spec, init_true, cfg.n_list[-1], cfg.seed)
    obs = project_observations(traj)
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
