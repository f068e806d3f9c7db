"""Config round-trips, the experiment runner, and the command-line surface."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from pommkit import PointMass, Stationary, cli, experiment, models, project_observations, scalar_ssm, simulate_complete
from pommkit.experiment import (
    REFERENCE_CONFIG_TEXT,
    experiment_grid,
    parse_config,
    reference_config,
    run_experiment,
    serialize_config,
)
from pommkit.posterior import grid_loglik_profiles, posterior_from_profiles, write_posterior_csv


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = parse_config(REFERENCE_CONFIG_TEXT)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[model]\nfamily = ssm\n")

    def test_decreasing_n_list_rejected(self):
        text = REFERENCE_CONFIG_TEXT.replace("n_list = 100 400 1600", "n_list = 400 100")
        with pytest.raises(ValueError):
            parse_config(text)

    def test_grid_must_cover_truth(self):
        text = REFERENCE_CONFIG_TEXT.replace("grid_hi = 0.9", "grid_hi = 0.4")
        with pytest.raises(ValueError):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("b = 1.0", "b = inf", "b must be finite"),
            ("a = 0.5", "a = nan", "a must be finite"),
            ("grid_hi = 0.9", "grid_hi = inf", "grid_hi must be finite"),
            ("grid_lo = -0.9", "grid_lo = nan", "grid_lo must be finite"),
            ("seed = 20260808", "seed = -1", "seed must be a non-negative integer"),
            ("ps = 2 5 10", "ps = 0 5", "ps must be positive integers"),
            ("ps = 2 5 10", "ps =", "ps must be positive integers"),
            ("formats = csv jsonl", "formats = xml", r"formats must be csv and/or jsonl, got \['xml'\]"),
            ("n_list = 100 400 1600", "n_list =", "n_list must be"),
        ],
        ids=["b", "a", "grid_hi", "grid_lo", "seed", "ps", "ps_empty", "formats", "n_list_empty"],
    )
    def test_malformed_value_rejected_naming_its_key(self, old, new, message):
        assert old in REFERENCE_CONFIG_TEXT
        with pytest.raises(ValueError, match=message):
            parse_config(REFERENCE_CONFIG_TEXT.replace(old, new))

    def test_bools_are_not_integers(self):
        cfg = parse_config(REFERENCE_CONFIG_TEXT)
        for field, value, message in (("seed", True, "seed must be a non-negative integer"),
                                      ("ps", (True, 5), "ps must be positive integers")):
            with pytest.raises(ValueError, match=message):
                replace(cfg, **{field: value}).validate()

    def test_non_integer_sizes_rejected_naming_the_field(self, tmp_path):
        # parse_config reads both with int, so only a config built in code can carry these
        cfg = reference_config()
        for field, value in (("n_list", (True, 400)), ("n_list", (100.0, 400)), ("n_list", (100, "400")),
                             ("grid_points", 2.5), ("grid_points", True), ("grid_points", 181.0)):
            bad = replace(cfg, **{field: value})
            with pytest.raises(ValueError, match=rf"^{field} must be .*integer"):
                bad.validate()
            with pytest.raises(ValueError, match=rf"^{field} must be .*integer"):
                run_experiment(bad, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_invalid_model_rejected_at_parse_time_naming_the_model_keys(self):
        # each parses finite values that do not make a model: a negative variance, a unit root
        # outside the grid, and an observation variance that overflows in the joint-chain embedding
        for old, new, cause in (
            ("q_obs = 0.2", "q_obs = -1", "Qxi must be symmetric positive definite"),
            ("a = 0.5", "a = 1.5", "spectral radius of A must be < 1"),
            ("b = 1.0", "b = 1e200", "joint-chain embedding"),
        ):
            assert old in REFERENCE_CONFIG_TEXT
            key, value = new.split(" = ")
            named = rf"^\[model\] .*{key} = {re.escape(repr(float(value)))}.* is not a valid ssm model: .*{cause}"
            with pytest.raises(ValueError, match=named):
                parse_config(REFERENCE_CONFIG_TEXT.replace(old, new))

    def test_grid_outside_the_model_rejected_naming_grid_param(self):
        # the model is valid at the truth, but the grid reaches a unit root or a negative variance
        for change, value, cause in (
            (dict(grid_lo=-1.0), "a = -1.0", "spectral radius of A must be < 1"),
            (dict(grid_param="q_obs", grid_lo=-0.5, grid_hi=1.0), "q_obs = -0.5", "Qxi must be symmetric positive definite"),
        ):
            cfg = replace(reference_config(), **change)
            named = rf"^grid_param {cfg.grid_param} on .* grid point 0 \(.*{value}.*\): {cause}$"
            with pytest.raises(ValueError, match=named):
                cfg.validate()
            with pytest.raises(ValueError, match=named):
                parse_config(serialize_config(cfg))

    def test_reference_config_text_and_hash_are_pinned(self):
        def sha256(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert sha256(REFERENCE_CONFIG_TEXT) == "7313d14f650e109aac213e26f3baf1d03b1a8d3a6e739568b57cafcf2e0eaccb"
        assert sha256(serialize_config(reference_config())) == (
            "9b9fc00c16f330af724efb8a9bc1ec9c3382451a36ceb1b0ea16051c6f69cd88"
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            parse_config(REFERENCE_CONFIG_TEXT.replace("family = ssm", "family = arma"))


class TestRunner:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = replace(reference_config(), n_list=(50, 100))
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"config.ini", "posterior_n50.csv", "posterior_n100.csv",
                "concentration.csv", "audit.jsonl", "manifest.txt"} <= names
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert f"seed {cfg.seed}" in manifest
        assert "config_sha256" in manifest
        assert len(res.posteriors) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = replace(reference_config(), n_list=(50, 100))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes(), p.name

    def test_initial_condition_variants(self):
        cfg = replace(reference_config(), n_list=(200,))
        res_st = run_experiment(cfg)
        res_pm = run_experiment(replace(cfg, init_true="pointmass 4.0 4.0"))
        m_st = [r.mass_outside for r in res_st.concentration if r.p == 5][0]
        m_pm = [r.mass_outside for r in res_pm.concentration if r.p == 5][0]
        assert abs(m_st - m_pm) < 0.2  # same order already at n = 200

    def test_no_spec_per_grid_point(self, monkeypatch):
        built = []
        ssm_spec = models.ssm_spec
        monkeypatch.setattr(models, "ssm_spec", lambda params: built.append(params) or ssm_spec(params))
        counts = []
        for points in (181, 37):
            cfg = replace(reference_config(), grid_points=points)
            built.clear()
            run_experiment(cfg)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_truth_and_grid_built_once(self, monkeypatch):
        # validate builds both to check them, and the run keeps what it built
        cfg = replace(reference_config(), n_list=(50, 100))
        specs, grids = [], []
        ssm_spec, record = models.ssm_spec, experiment.ScalarSsmGrid
        monkeypatch.setattr(models, "ssm_spec", lambda params: specs.append(params) or ssm_spec(params))
        monkeypatch.setattr(experiment, "ScalarSsmGrid", lambda *args: grids.append(args) or record(*args))
        run_experiment(cfg)
        assert (len(specs), len(grids)) == (1, 1)

    @pytest.mark.parametrize("init_true, truth_init", [("stationary", Stationary()), ("pointmass 4.0 4.0", PointMass(4.0, 4.0))])
    def test_posterior_files_equal_a_sweep_over_specs(self, tmp_path, init_true, truth_init):
        cfg = replace(reference_config(), init_true=init_true)
        run_experiment(cfg, out_dir=tmp_path / "run")
        m = cfg.model
        obs = project_observations(simulate_complete(scalar_ssm(**m), truth_init, cfg.n_list[-1], cfg.seed))
        grid, _ = experiment_grid(cfg)
        specs = [scalar_ssm(float(a), m["b"], m["q_state"], m["q_obs"]) for a in grid.points[:, 0]]
        profiles = grid_loglik_profiles(specs, obs, Stationary())
        for n in cfg.n_list:
            write_posterior_csv(posterior_from_profiles(grid, profiles, n), tmp_path / f"specs_n{n}.csv")
            assert (tmp_path / "run" / f"posterior_n{n}.csv").read_bytes() == (tmp_path / f"specs_n{n}.csv").read_bytes()

    def test_improper_prior_supported(self):
        cfg = replace(reference_config(), n_list=(100,), prior="improper")
        res = run_experiment(cfg)
        assert abs(res.posteriors[0].masses().sum() - 1.0) < 1e-10


class TestCli:
    def write_config(self, tmp_path, n_list="20 40"):
        text = REFERENCE_CONFIG_TEXT.replace("n_list = 100 400 1600", f"n_list = {n_list}")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return path

    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--n", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,x,y"
        assert len(lines) == 12  # header + z_0..z_10

    def test_simulate_deterministic(self, tmp_path):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", str(cfg), "--n", "10", "--out", str(a)])
        cli.main(["simulate", "--config", str(cfg), "--n", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_loglik_from_simulated_and_file(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        traj = tmp_path / "traj.csv"
        cli.main(["simulate", "--config", str(cfg), "--n", "10", "--out", str(traj)])
        capsys.readouterr()
        # feed back only the observed column, dropping z_0
        ys = [line.split(",")[2] for line in traj.read_text().strip().splitlines()[2:]]
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(ys) + "\n")
        assert cli.main(["loglik", "--config", str(cfg), "--obs", str(obs)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("loglik ") and "method kalman" in out

    def test_posterior_n_zero_returns_prior(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["posterior", "--config", str(cfg), "--n", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta0,log_post"
        dens = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # uniform prior: mass 1/181 per cell of width 0.01
        np.testing.assert_allclose(dens, np.log((1.0 / 181) / 0.01), atol=1e-12)

    def test_posterior_prints_the_file_it_writes(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "post.csv"
        assert cli.main(["posterior", "--config", str(cfg), "--n", "40", "--out", str(out)]) == 0
        assert cli.main(["posterior", "--config", str(cfg), "--n", "40"]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes() and printed.startswith("theta0,log_post\n")
        assert len(printed.splitlines()) == 182

    def test_kld_glm_worked_value(self, capsys):
        rc = cli.main([
            "kld", "--family", "glm", "--p", "1", "--q", "1",
            "--phi-star", "0", "0", "0", "0", "--r-star", "1", "0", "0", "1",
            "--phi", "0", "0", "0", "0", "--r", "2", "0", "0", "2",
        ])
        assert rc == 0
        value = float(capsys.readouterr().out.split()[1])
        assert abs(value - 0.5 * (np.log(4) - 1)) < 1e-12

    def test_kld_sv(self, capsys):
        rc = cli.main(["kld", "--family", "sv", "--theta-star", "1", "0.5", "0.9", "--theta", "2", "0.5", "0.9"])
        assert rc == 0
        value = float(capsys.readouterr().out.split()[1])
        assert abs(value - (np.log(2) - 0.375)) < 1e-12

    def test_audit_b5_emits_two_records(self, tmp_path):
        out = tmp_path / "audit.jsonl"
        rc = cli.main([
            "audit", "--assumption", "B5", "--family", "sv",
            "--sims", "2000", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assumptions = {json.loads(l)["assumption"] for l in lines}
        assert assumptions == {"B5.conv", "B5.logmoment"}

    def test_audit_stdout_equals_written_file(self, tmp_path, capsys):
        args = ["audit", "--assumption", "all", "--family", "sv", "--sims", "500", "--seed", "2"]
        out = tmp_path / "audit.jsonl"
        assert cli.main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_ssm_audit_defaults_to_the_reference_model(self, tmp_path, capsys):
        cfg = tmp_path / "reference.ini"
        cfg.write_text(REFERENCE_CONFIG_TEXT)
        args = ["audit", "--assumption", "B3", "--family", "ssm", "--seed", "3"]
        assert cli.main(args) == 0
        default = capsys.readouterr().out
        assert cli.main(args + ["--config", str(cfg)]) == 0
        assert default and capsys.readouterr().out == default

    def test_audit_rejects_too_few_sims(self, capsys):
        for assumption, name in (("B5", "sims"), ("B6", "draws"), ("envelope", "draws"), ("all", "sims")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["audit", "--assumption", assumption, "--family", "sv", "--sims", "0"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"{name} must be an integer >= 2, got 0\n")

    def test_rejected_input_is_one_line_without_traceback(self, capsys):
        # a ValueError from the library is reported the way argparse reports a usage error
        for argv, message in (
            (["audit", "--assumption", "B6", "--family", "sv", "--sims", "0"], "draws must be an integer >= 2, got 0"),
            (["kld", "--family", "sv", "--theta-star", "1", "0.5", "1.2", "--theta", "1", "0.5", "0.9"],
             "|phi| must be < 1, got 1.2"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"pommkit {argv[0]}: error: {message}\n"
            assert "Traceback" not in captured.err

    def test_non_finite_point_mass_is_rejected_input(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("init_true = stationary", "init_true = pointmass nan 0"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg), "--n", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("pommkit simulate: error: point mass must be finite") and "Traceback" not in err

    def test_experiment_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        rc = cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "concentration.csv").exists()
        assert "mass_outside" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["loglik", "--config", "x", "--bogus"])


def without_line(text, line):
    assert line + "\n" in text
    return text.replace(line + "\n", "")


class TestConfigBoundary:
    """One reader converts every key: a missing key or a value that does not convert is a ValueError naming it."""

    @pytest.mark.parametrize("section, line", [("data", "seed = 20260808"), ("inference", "grid_param = a"),
                                               ("model", "q_obs = 0.2")])
    def test_missing_key_is_named(self, section, line):
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=rf"^config is missing \[{section}\] {key}$"):
            parse_config(without_line(REFERENCE_CONFIG_TEXT, line))

    @pytest.mark.parametrize("old, new, message", [
        ("grid_points = 181", "grid_points = 2.5", r"^\[inference\] grid_points must be an integer, got '2.5'$"),
        ("seed = 20260808", "seed = abc", r"^\[data\] seed must be an integer, got 'abc'$"),
        ("a = 0.5", "a = half", r"^\[model\] a must be a number, got 'half'$"),
        ("n_list = 100 400 1600", "n_list = 100 4x0", r"^\[data\] n_list must be integers, got '100 4x0'$"),
    ])
    def test_value_that_does_not_convert_is_named(self, old, new, message):
        with pytest.raises(ValueError, match=message):
            parse_config(REFERENCE_CONFIG_TEXT.replace(old, new))

    def test_defaults_fill_left_out_keys(self):
        text = REFERENCE_CONFIG_TEXT
        for line in ("init_true = stationary", "init_inference = stationary", "method = kalman", "prior = uniform",
                     "ps = 2 5 10", "directory = out", "formats = csv jsonl"):
            text = without_line(text, line)
        assert parse_config(text) == reference_config()

    def test_text_that_is_not_ini_is_one_line(self):
        for text in ("a = 1\n", REFERENCE_CONFIG_TEXT + "[model]\n", REFERENCE_CONFIG_TEXT.replace("ps = 2 5 10", "ps = %")):
            with pytest.raises(ValueError, match="^config is not valid INI: [^\n]*$"):
                parse_config(text)

    @pytest.mark.parametrize("key, tag", [("init_true", "bogus"), ("init_true", "pointmass 4.0"),
                                          ("init_inference", "pointmass a b"), ("init_inference", "")])
    def test_initial_laws_are_checked_before_the_run(self, tmp_path, key, tag):
        message = rf"^{key} must be stationary or pointmass <x0> <y0>, got {re.escape(repr(tag))}$"
        bad = replace(reference_config(), **{key: tag})
        with pytest.raises(ValueError, match=message):
            bad.validate()
        with pytest.raises(ValueError, match=message):
            parse_config(serialize_config(bad))
        with pytest.raises(ValueError, match=message):
            run_experiment(bad, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_checked_models_give_both_laws(self):
        cfg = replace(reference_config(), init_true="pointmass 4.0 -1.5", init_inference="stationary")
        checked = cfg._checked_models()
        assert isinstance(checked.init_inference, Stationary)
        assert (checked.init_true.x.tolist(), checked.init_true.y.tolist()) == ([4.0], [-1.5])
        assert len(checked.models.a) == len(checked.grid) == cfg.grid_points


class TestCliBoundary:
    """Every rejected input is one stderr line, ``pommkit <command>: error: ...``, with exit status 2."""

    @staticmethod
    def rejected(argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        prefix = f"pommkit {argv[0]}: error: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1 and captured.err.endswith("\n")
        return captured.err[len(prefix):-1]

    def config(self, tmp_path, text=REFERENCE_CONFIG_TEXT):
        path = tmp_path / "cfg.ini"
        path.write_text(text.replace("n_list = 100 400 1600", "n_list = 20 40"))
        return str(path)

    def test_missing_key(self, tmp_path, capsys):
        for line in ("seed = 20260808", "grid_param = a", "q_obs = 0.2"):
            config = self.config(tmp_path, without_line(REFERENCE_CONFIG_TEXT, line))
            key = line.split(" = ")[0]
            assert self.rejected(["experiment", "--config", config, "--out", str(tmp_path / "out")], capsys).endswith(
                f"] {key}")
        assert not (tmp_path / "out").exists()

    def test_value_that_does_not_convert(self, tmp_path, capsys):
        config = self.config(tmp_path, REFERENCE_CONFIG_TEXT.replace("grid_points = 181", "grid_points = 2.5"))
        assert self.rejected(["simulate", "--config", config], capsys) == (
            "[inference] grid_points must be an integer, got '2.5'")

    def test_initial_law(self, tmp_path, capsys):
        config = self.config(tmp_path, REFERENCE_CONFIG_TEXT.replace("init_true = stationary", "init_true = bogus"))
        assert self.rejected(["loglik", "--config", config], capsys) == (
            "init_true must be stationary or pointmass <x0> <y0>, got 'bogus'")

    def test_kld_without_its_family_arguments(self, capsys):
        assert self.rejected(["kld", "--family", "glm", "--r-star", "1", "0", "0", "1", "--phi", "0", "0", "0", "0",
                              "--r", "2", "0", "0", "2"], capsys) == "--family glm needs --phi-star"
        assert self.rejected(["kld", "--family", "sv", "--theta-star", "1", "0.5", "0.9"], capsys) == (
            "--family sv needs --theta")

    def test_matrix_with_the_wrong_number_of_entries(self, capsys):
        message = self.rejected(["kld", "--family", "glm", "--phi-star", "0", "0", "0", "--r-star", "1", "0", "0", "1",
                                 "--phi", "0", "0", "0", "0", "--r", "2", "0", "0", "2"], capsys)
        assert message == "expected 4 matrix entries, got 3"

    def test_empty_observation_file(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("# no data\nk,y\n\n")
        message = self.rejected(["loglik", "--config", self.config(tmp_path), "--obs", str(obs)], capsys)
        assert message == f"{obs} holds no observations"

    def test_files_that_cannot_be_read_or_written(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        assert missing in self.rejected(["experiment", "--config", missing], capsys)
        out = str(tmp_path / "no_such_dir" / "traj.csv")
        assert out in self.rejected(["simulate", "--config", self.config(tmp_path), "--n", "5", "--out", out], capsys)

    def test_negative_posterior_size(self, tmp_path, capsys):
        # obs[:-5] used to drop the last observations, and a negative n gave the prior
        assert self.rejected(["posterior", "--config", self.config(tmp_path), "--n", "-5"], capsys) == (
            "n must be an integer >= 0, got -5")

    @pytest.mark.parametrize("assumption", ["B5", "B6", "envelope"])
    def test_ssm_audit_runs_only_its_assumptions(self, assumption, capsys):
        # the state-space family audits positivity (B3, C2) only; B5, B6 and envelope used to print its records
        assert self.rejected(["audit", "--assumption", assumption, "--family", "ssm"], capsys) == (
            f"assumption {assumption} is not audited for family ssm")

    def test_ssm_audit_all_is_the_positivity_audit(self, capsys):
        assert cli.main(["audit", "--assumption", "B3", "--family", "ssm"]) == 0
        positivity = capsys.readouterr().out
        assert cli.main(["audit", "--assumption", "all", "--family", "ssm"]) == 0
        assert positivity and capsys.readouterr().out == positivity


class TestConfigNames:
    """A ``%`` survives a round trip, and a section or key that the grammar does not name is rejected."""

    def test_percent_round_trips(self):
        cfg = parse_config(REFERENCE_CONFIG_TEXT.replace("directory = out", "directory = out%%1"))
        assert cfg.directory == "out%1"
        text = serialize_config(cfg)
        assert "directory = out%%1\n" in text
        assert parse_config(text) == cfg and serialize_config(parse_config(text)) == text

    @pytest.mark.parametrize("old, new, message", [
        ("prior = uniform", "priors = improper", r"^config has unknown key \[inference\] priors$"),
        ("seed = 20260808", "seed = 20260808\nsed = 1", r"^config has unknown key \[data\] sed$"),
        ("[outputs]", "[output]", r"^config has unknown section \[output\]$"),
        ("formats = csv jsonl", "formats = csv jsonl\n\n[extra]", r"^config has unknown section \[extra\]$"),
        ("[model]", "[DEFAULT]\ndirectory = x\n\n[model]", r"^config has unknown section \[DEFAULT\]$"),
    ])
    def test_unknown_name_is_rejected(self, old, new, message):
        # a misspelled optional key used to be dropped, and the run took its default (prior = uniform)
        with pytest.raises(ValueError, match=message):
            parse_config(REFERENCE_CONFIG_TEXT.replace(old, new))

    def test_unknown_key_is_rejected_input(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text(REFERENCE_CONFIG_TEXT.replace("prior = uniform", "priors = improper"))
        out = tmp_path / "out"
        assert TestCliBoundary.rejected(["experiment", "--config", str(config), "--out", str(out)], capsys) == (
            "config has unknown key [inference] priors")
        assert not out.exists()


def test_sv_audit_all_runs_every_assumption(capsys):
    # all used to skip the B3/C2 positivity records for sv, which it runs for ssm
    def records(assumption):
        assert cli.main(["audit", "--assumption", assumption, "--family", "sv", "--sims", "200", "--seed", "1"]) == 0
        return capsys.readouterr().out.splitlines()

    every = records("all")
    assert {json.loads(line)["assumption"] for line in every} == {
        "B5.conv", "B5.logmoment", "B6.1", "B6.2", "B5.envelope", "B3", "C2"}
    assert every == records("B5") + records("B6") + records("envelope") + records("B3")
