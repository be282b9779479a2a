"""Config parsing, experiment orchestration, CSV emission."""

import hashlib
import math
import os
import re
from pathlib import Path

import pytest

from ncsim import cli
from ncsim.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_RUNTIME_ERROR,
                       EXIT_UNSTABLE, ConfigError, RunConfig, main,
                       parse_config, run_experiment)
from ncsim.control import design_lqg
from ncsim.engine import NonFiniteError


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.theta == 1.0
        assert cfg.horizon == 10_000
        assert cfg.replications == 10
        assert cfg.L_values == tuple(range(2, 45, 2))

    def test_workers_default_to_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert parse_config([]).workers == 3
        assert parse_config(["--workers", "1"]).workers == 1  # the serial path

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

    # per key: (config-file value, flag value, the flag's parsed value)
    FLAG_CASES = {"L": ("2,4", "6", (6,)), "horizon": ("2000", "3000", 3000),
                  "replications": ("2", "3", 3), "seed": ("5", "9", 9),
                  "theta": ("2", "0.5", 0.5), "out": ("a", "b", "b"),
                  "cache": ("a", "b", "b"), "workers": ("2", "3", 3)}

    @pytest.mark.parametrize("key", sorted(cli._KEY_PARSERS))
    def test_every_key_has_a_flag_overriding_the_file(self, tmp_path, key):
        file_value, flag_value, want = self.FLAG_CASES[key]
        attr = cli._KEY_PARSERS[key][0]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={file_value}\n")
        assert getattr(parse_config(["--config", str(path)]), attr) != want
        assert getattr(parse_config(["--config", str(path), f"--{key}", flag_value]), attr) == want

    def test_zero_replications_names_field(self):
        with pytest.raises(ConfigError, match="replications"):
            parse_config(["--replications", "0"])

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ("frobnicate", "vi_e_max"):  # the design grid is fixed, not a key
            path.write_text(f"{key}=1\n")
            with pytest.raises(ConfigError, match=f"unknown configuration key: {key}$"):
                parse_config(["--config", str(path)])

    def test_readme_lists_the_recognized_keys(self):
        """The README's "Recognized keys" sentence names exactly the parsed keys."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        sentence = re.search(r"Recognized keys:(.*?);", readme, re.S).group(1)
        listed = [name for name in re.findall(r"`([^`]+)`", sentence) if not name.startswith("-")]
        assert sorted(listed) == sorted(cli._KEY_PARSERS)

    def test_unreadable_config_file_names_the_path(self, tmp_path):
        missing = tmp_path / "missing.cfg"
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"seed=\xff\n")
        for path in (missing, tmp_path, binary, ""):
            with pytest.raises(ConfigError, match=f"^config: {re.escape(str(path))}: "):
                parse_config(["--config", str(path)])

    def test_short_horizon_names_field(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(["--horizon", "10"])

    def test_odd_L_names_field(self):
        with pytest.raises(ConfigError, match="L"):
            parse_config(["--L", "2,3"])

    def test_repeated_L_names_the_value(self):
        with pytest.raises(ConfigError, match="^L_values must be distinct, got 4 twice$"):
            parse_config(["--L", "2,4,6,4"])

    def test_repeated_file_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        for first, second in (("theta=2", "theta=0.5"), ("L=2", "L=4")):
            key = first.split("=")[0]
            path.write_text(f"{first}\n# {key} once more:\n{second}\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: "
                                                  f"{key} already set on line 1$"):
                parse_config(["--config", str(path)])
            assert main(["--config", str(path)]) == EXIT_CONFIG_ERROR
        # a flag still overrides the file, and a repeated flag is last-wins
        path.write_text("theta=2\n")
        assert parse_config(["--config", str(path), "--theta", "0.5", "--theta", "0.7"]).theta == 0.7

    def test_non_finite_theta_names_field(self):
        for value in ("nan", "inf", "-inf", "0", "-1"):
            with pytest.raises(ConfigError, match="^theta must be positive and finite, got "):
                parse_config([f"--theta={value}"])
        for value in ("1", None):  # only a programmatic config holds a non-number
            with pytest.raises(ConfigError, match="^theta must be positive and finite, got "):
                RunConfig(theta=value).validate()

    def test_negative_seed_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(["--seed", "-1"])


@pytest.fixture(scope="module")
def standard_cache(tmp_path_factory) -> str:
    """A table cache directory holding both standard classes' tables."""
    cache = str(tmp_path_factory.mktemp("cache"))
    cli.load_or_build_tables(RunConfig(cache_dir=cache), log=lambda *a: None)
    return cache


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
        lines = Path(cfg.out_dir, "rate.csv").read_text().splitlines()
        assert lines[0] == "L,class,mean,ci95_halfwidth,replications"
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "all"
        summary = Path(cfg.out_dir, "summary.csv").read_text().splitlines()
        assert summary[0] == "metric,L,class,mean,ci95_halfwidth,replications"

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path)
        run_experiment(cfg_a, log=lambda *a: None)
        blobs_a = {name: Path(cfg_a.out_dir, name + ".csv").read_bytes()
                   for name in ("rate", "backlog", "delay", "cost", "summary")}
        cfg_b = RunConfig(L_values=(2,), horizon=1000, replications=2, seed=3,
                          out_dir=str(tmp_path / "out2"),
                          cache_dir=str(tmp_path / "cache"))
        run_experiment(cfg_b, log=lambda *a: None)
        for name, blob in blobs_a.items():
            assert Path(cfg_b.out_dir, name + ".csv").read_bytes() == blob

    # sha256 of summary.csv from the standard run below; a declared change of
    # numbers updates it and says so in CHANGES.md
    STANDARD_SUMMARY_SHA256 = "59e297f842838c523c3c95499ed0fc26ff5a62d8e3772935e0720cff0a08f09b"

    def test_standard_run_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--L", "2,20,44", "--replications", "2", "--horizon", "2000",
                     "--theta", "0.8", "--out", str(out),
                     "--cache", str(tmp_path / "cache")]) == EXIT_OK
        blob = (out / "summary.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.STANDARD_SUMMARY_SHA256

    # names and sha256 of the two standard classes' table files; the names
    # carry the class ids, which print Qe to 17 significant digits
    STANDARD_TABLES_SHA256 = {
        "a0.75_qe0.5625_z1__emax25_estep0.05_q32_tol1e-06_gridf8e7b1b6.txt":
            "b90b27bc9bc2b9cd5ef0bed22b7c098843ab968ddc403099a2dae31000c446ab",
        "a1.25_qe1.5625_z1__emax25_estep0.05_q32_tol1e-06_gridf8e7b1b6.txt":
            "a432c0c051368661db720d7c30901d1a5d790489c3a563da78aad9663149b661",
    }

    def test_cache_hit_logged_and_exact(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        messages = []
        run_experiment(cfg, log=messages.append)
        assert not any("table cache hit" in m for m in messages)
        cache = tmp_path / "cache"
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in cache.iterdir()} == self.STANDARD_TABLES_SHA256
        messages.clear()
        cfg2 = tiny_cfg(tmp_path)
        cfg2.out_dir = str(tmp_path / "out3")
        run_experiment(cfg2, log=messages.append)
        assert any("table cache hit" in m for m in messages)

    @pytest.mark.parametrize("damage", ["cut after a lambda", "cut in the last threshold",
                                        "nan threshold"])
    def test_damaged_cache_file_is_rebuilt(self, tmp_path, damage):
        cold = tiny_cfg(tmp_path)
        assert run_experiment(cold, log=lambda *a: None) == EXIT_OK
        path = sorted((tmp_path / "cache").iterdir())[1]
        good = path.read_bytes()
        if damage == "cut after a lambda":
            path.write_bytes(good[:good.index(b" ", len(good) // 2)])
        elif damage == "cut in the last threshold":  # every lambda knot is still there
            path.write_bytes(good[:-4])
        else:  # the threshold at lambda = 1, which a price theta * B can hit at L=2
            lines = good.decode().splitlines(keepends=True)
            assert lines[3].split()[0] == "1"
            lines[3] = "1 nan\n"
            path.write_text("".join(lines))
        messages = []
        warm = tiny_cfg(tmp_path)
        warm.out_dir = str(tmp_path / "warm")
        assert run_experiment(warm, log=messages.append) == EXIT_OK
        assert f"table cache stale, rebuilding: {path}" in messages
        assert path.read_bytes() == good
        for name in ("rate", "backlog", "delay", "cost", "summary"):
            csv = f"{name}.csv"
            assert (tmp_path / "warm" / csv).read_bytes() == (tmp_path / "out" / csv).read_bytes()

    def test_runtime_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["--L", "2", "--horizon", "1000", "--replications", "1",
                   "--out", str(blocker / "nested")])
        assert rc == EXIT_RUNTIME_ERROR

    def test_unwritable_out_exits_before_tables(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("tables or runs started for an unwritable --out")
        monkeypatch.setattr(cli, "build_table", no_work)
        monkeypatch.setattr(cli, "sweep", no_work)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["--L", "2,4", "--horizon", "1000", "--replications", "2", "--workers", "1",
                   "--out", str(blocker / "out"), "--cache", str(tmp_path / "cache")])
        assert rc == EXIT_RUNTIME_ERROR
        assert "Not a directory" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field, key, value", [
        ("replications", "replications", 1.5), ("workers", "workers", 2.5),
        ("seed", "seed", 1.5), ("horizon", "horizon", 1000.5), ("L_values", "L", (2.0,))],
        ids=["replications", "workers", "seed", "horizon", "L"])
    def test_non_integer_count_exits_before_tables(self, tmp_path, monkeypatch,
                                                   field, key, value):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "load_or_build_tables", no_tables)
        cfg = RunConfig(**{"L_values": (2,), "horizon": 1000, "replications": 1,
                           "out_dir": str(tmp_path / "out"), field: value})
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got "):
            run_experiment(cfg, log=lambda *a: None)
        assert not (tmp_path / "out").exists()

    def test_non_finite_vi_settings_exit_before_tables(self, tmp_path, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "build_table", no_tables)
        path = tmp_path / "run.cfg"
        for entry in ("vi_e_step=nan", "vi_span_tol=inf", "vi_e_max=1"):  # unknown keys
            path.write_text(entry + "\n")
            rc = main(["--config", str(path), "--L", "2", "--horizon", "1000",
                       "--replications", "1", "--out", str(tmp_path / "out"),
                       "--cache", str(tmp_path / "cache")])
            assert rc == EXIT_CONFIG_ERROR
            assert entry.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_L_exits_before_tables(self, tmp_path, monkeypatch, capsys):
        def no_tables(*args, **kwargs):
            raise AssertionError("tables built for an invalid config")
        monkeypatch.setattr(cli, "build_table", no_tables)
        rc = main(["--L", "2,2", "--horizon", "1000", "--replications", "2",
                   "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
        assert rc == EXIT_CONFIG_ERROR
        assert "config error: L_values must be distinct, got 2 twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_flag_value_is_a_config_error(self, capsys):
        # the same value in a config file is a config error too
        cases = [([f"--{key}", value], f"{key}: ") for key, value in (
            ("seed", "abc"), ("workers", "2.5"), ("horizon", "1e4"),
            ("theta", "one"), ("L", "2,x"))]
        # so is a usage error: an unknown flag, or a flag without its value
        cases += [(["--bogus", "1"], "unrecognized arguments: --bogus 1"),
                  (["--seed"], "argument --seed: expected one argument")]
        for argv, named in cases:
            assert main(argv) == EXIT_CONFIG_ERROR
            assert f"config error: {named}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK

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

    def test_divergence_exit_code(self, tmp_path, standard_cache, capsys):
        # at theta = 0.05 the 22 unstable loops starve and their source queues grow
        out = tmp_path / "out"
        rc = main(["--L", "44", "--theta", "0.05", "--horizon", "1000", "--replications", "1",
                   "--workers", "1", "--out", str(out), "--cache", standard_cache])
        assert rc == EXIT_UNSTABLE
        assert sorted(path.name for path in out.iterdir()) == [
            "backlog.csv", "cost.csv", "delay.csv", "rate.csv", "summary.csv"]
        assert "warning: queue divergence flagged at L=44\n" in capsys.readouterr().out

    def test_tables_design_each_plant_class_once(self, standard_cache, monkeypatch):
        designed = []

        def counting_design_lqg(spec):
            designed.append(spec)
            return design_lqg(spec)
        monkeypatch.setattr(cli, "design_lqg", counting_design_lqg)
        tables = cli.load_or_build_tables(parse_config(["--L", "44", "--cache", standard_cache]),
                                          log=lambda *a: None)
        assert [spec.a for spec in designed] == [0.75, 1.25]
        assert len(tables) == 2
