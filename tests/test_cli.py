"""Config parsing, experiment orchestration, CSV emission."""

import math
import os

import pytest

from ncsim import cli
from ncsim.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_RUNTIME_ERROR,
                       EXIT_UNSTABLE, ConfigError, RunConfig, main,
                       parse_config, run_experiment)
from ncsim.engine import NonFiniteError


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.theta == 1.0
        assert cfg.horizon == 10_000
        assert cfg.replications == 10
        assert cfg.L_values == tuple(range(2, 45, 2))

    def test_empty_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        cfg = parse_config(["--config", str(path)])
        assert cfg == RunConfig()

    def test_file_override_theta(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta=2\n")
        assert parse_config(["--config", str(path)]).theta == 2.0

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=5\nhorizon=2000\n")
        cfg = parse_config(["--config", str(path), "--seed", "9"])
        assert cfg.seed == 9
        assert cfg.horizon == 2000

    def test_zero_replications_names_field(self):
        with pytest.raises(ConfigError, match="replications"):
            parse_config(["--replications", "0"])

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("frobnicate=1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(["--config", str(path)])

    def test_short_horizon_names_field(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(["--horizon", "10"])

    def test_odd_L_names_field(self):
        with pytest.raises(ConfigError, match="L"):
            parse_config(["--L", "2,3"])

    def test_non_finite_theta_names_field(self):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="theta"):
                parse_config([f"--theta={value}"])

    def test_negative_seed_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(["--seed", "-1"])

    def test_non_finite_vi_settings_name_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ("vi_e_max", "vi_e_step", "vi_span_tol"):
            for value in ("nan", "inf", "0"):
                # the valid vi_quad in the same file is not named
                path.write_text(f"vi_quad=16\n{key}={value}\n")
                with pytest.raises(ConfigError, match=f"^{key}: "):
                    parse_config(["--config", str(path)])
        path.write_text("vi_quad=16\nvi_e_max=1\n")  # grid of 20 steps: either key fixes it
        with pytest.raises(ConfigError, match="^vi_e_max, vi_e_step: "):
            parse_config(["--config", str(path)])

    def test_vi_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("vi_quad=16\nvi_e_step=0.1\n")
        cfg = parse_config(["--config", str(path)])
        assert cfg.vi.noise_quad == 16
        assert cfg.vi.e_step == 0.1


def tiny_cfg(tmp_path, **overrides) -> RunConfig:
    cfg = RunConfig(L_values=(2,), horizon=1000, replications=2, seed=3,
                    out_dir=str(tmp_path / "out"),
                    cache_dir=str(tmp_path / "cache"), **overrides)
    cfg.validate()
    return cfg


class TestRunExperiment:
    def test_writes_all_csvs(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        assert run_experiment(cfg, log=lambda *a: None) == EXIT_OK
        for name in ("rate", "backlog", "delay", "cost", "summary"):
            assert os.path.exists(os.path.join(cfg.out_dir, f"{name}.csv"))

    def test_csv_schema(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        run_experiment(cfg, log=lambda *a: None)
        lines = open(os.path.join(cfg.out_dir, "rate.csv")).read().splitlines()
        assert lines[0] == "L,class,mean,ci95_halfwidth,replications"
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "all"
        summary = open(os.path.join(cfg.out_dir, "summary.csv")).read().splitlines()
        assert summary[0] == "metric,L,class,mean,ci95_halfwidth,replications"

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path)
        run_experiment(cfg_a, log=lambda *a: None)
        blobs_a = {name: open(os.path.join(cfg_a.out_dir, name + ".csv"), "rb").read()
                   for name in ("rate", "backlog", "delay", "cost", "summary")}
        cfg_b = RunConfig(L_values=(2,), horizon=1000, replications=2, seed=3,
                          out_dir=str(tmp_path / "out2"),
                          cache_dir=str(tmp_path / "cache"))
        run_experiment(cfg_b, log=lambda *a: None)
        for name, blob in blobs_a.items():
            assert open(os.path.join(cfg_b.out_dir, name + ".csv"), "rb").read() == blob

    def test_cache_hit_logged_and_exact(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        messages = []
        run_experiment(cfg, log=messages.append)
        assert not any("table cache hit" in m for m in messages)
        messages.clear()
        cfg2 = tiny_cfg(tmp_path)
        cfg2.out_dir = str(tmp_path / "out3")
        run_experiment(cfg2, log=messages.append)
        assert any("table cache hit" in m for m in messages)

    def test_runtime_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["--L", "2", "--horizon", "1000", "--replications", "1",
                   "--out", str(blocker / "nested")])
        assert rc == EXIT_RUNTIME_ERROR

    def test_config_error_exit_code(self):
        assert main(["--replications", "0"]) == EXIT_CONFIG_ERROR

    def test_invalid_theta_or_seed_exits_before_tables(self, tmp_path, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "load_or_build_tables", no_tables)
        for flag, value in (("--theta", "nan"), ("--theta", "inf"), ("--seed", "-1")):
            rc = main(["--L", "2", "--horizon", "1000", "--replications", "1",
                       "--out", str(tmp_path / "out"), flag, value])
            assert rc == EXIT_CONFIG_ERROR
            assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_vi_settings_exit_before_tables(self, tmp_path, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "build_table", no_tables)
        path = tmp_path / "run.cfg"
        for entry in ("vi_e_step=nan", "vi_span_tol=inf"):
            path.write_text(entry + "\n")
            rc = main(["--config", str(path), "--L", "2", "--horizon", "1000",
                       "--replications", "1", "--out", str(tmp_path / "out"),
                       "--cache", str(tmp_path / "cache")])
            assert rc == EXIT_CONFIG_ERROR
            assert entry.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_experiment_validates_before_tables(self, tmp_path, monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "build_table", no_tables)
        cfg = RunConfig(L_values=(2,), horizon=1000, replications=1, theta=math.nan,
                        out_dir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"))
        with pytest.raises(ConfigError, match="theta"):
            run_experiment(cfg, log=lambda *a: None)
        assert not (tmp_path / "out").exists()

    def test_non_finite_run_exit_code(self, tmp_path, monkeypatch, capsys):
        def overflowing_sweep(*args, **kwargs):
            raise NonFiniteError("plant state or cost is not finite on loops [3] (seed 1)")
        monkeypatch.setattr(cli, "sweep", overflowing_sweep)
        rc = main(["--L", "2", "--horizon", "1000", "--replications", "1",
                   "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
        assert rc == EXIT_UNSTABLE
        assert "loops [3]" in capsys.readouterr().err
