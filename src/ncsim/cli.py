"""Experiment runner: config parsing, table caching, sweep orchestration, CSV output.

Config files are plain ``key=value`` text (UTF-8, ``#`` comments); flags
override file values.  Every metric lands in its own CSV with the fixed
header ``L,class,mean,ci95_halfwidth,replications`` plus a combined
``summary.csv`` with a leading ``metric`` column.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (METRIC_NAMES, TWO_HOP_PLANTS, NonFiniteError, SweepResult,
                     _check_count, _check_sweep_args, sweep, usable_cpus)
from .sampler import (ThresholdTable, ViConfig, build_table,
                      default_lambda_grid, plant_class_id)
from .control import design_lqg

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2
EXIT_UNSTABLE = 3

DEFAULT_L = tuple(range(2, 45, 2))


class ConfigError(ValueError):
    """Invalid or unknown configuration entry; message names the field."""


@dataclass
class RunConfig:
    L_values: tuple = DEFAULT_L
    horizon: int = 10_000
    replications: int = 10
    seed: int = 1
    theta: float = 1.0
    out_dir: str = "results"
    cache_dir: str | None = None
    workers: int = field(default_factory=usable_cpus)  # sweep caps it at usable_cpus()

    def validate(self) -> None:
        """Raise ConfigError naming the first invalid field: `sweep`'s rules, horizon >= 1000."""
        try:
            # at shorter horizons the stability flag reads queues filling from empty as growth
            _check_count(self.horizon, "horizon", 1000)
            _check_count(self.seed, "seed", 0)
            _check_sweep_args(self.L_values, self.replications, self.seed,
                              self.horizon, self.theta, self.workers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_L_list(text: str) -> tuple:
    return tuple(int(part) for part in text.replace(",", " ").split())


# config key (also the flag --<key>) -> (RunConfig field, parser, flag help)
_KEY_PARSERS = {
    "L": ("L_values", _parse_L_list, "comma-separated even loop counts"),
    "horizon": ("horizon", int, "control steps per run"),
    "replications": ("replications", int, "independent runs per L"),
    "seed": ("seed", int, "master seed"),
    "theta": ("theta", float, "backlog-to-price scale"),
    "out": ("out_dir", str, "output directory for CSV files"),
    "cache": ("cache_dir", str, "threshold table cache directory"),
    "workers": ("workers", int, "parallel sweep workers"),
}

def _read_config_file(path: str) -> dict:
    entries, first_line = {}, {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte order mark is no key
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:  # else the later line would silently win
                raise ConfigError(f"{path}:{lineno}: {key} already set on line {first_line[key]}")
            entries[key], first_line[key] = value, lineno
    return entries


def _apply_entries(cfg: RunConfig, entries: dict) -> RunConfig:
    for key, value in entries.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown configuration key: {key}")
        attr, parser, _ = _KEY_PARSERS[key]
        try:
            cfg = replace(cfg, **{attr: parser(value)})
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors (unknown flag, flag without a value) are config errors, exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_argparser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ncsim",
        description="Co-simulate event-triggered control loops over a "
                    "back-pressure scheduled two-hop network.")
    parser.add_argument("--config", help="key=value config file")
    for key, (_, _, text) in _KEY_PARSERS.items():
        parser.add_argument(f"--{key}", help=text)  # parsed as the file's key=value is
    return parser


def parse_config(argv=None) -> RunConfig:
    """RunConfig from defaults, then config file, then flag overrides."""
    args = _build_argparser().parse_args(argv)
    cfg = RunConfig()
    if args.config is not None:
        try:
            entries = _read_config_file(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ConfigError(f"config: {args.config}: {reason}") from None
        cfg = _apply_entries(cfg, entries)
    flags = {key: getattr(args, key) for key in _KEY_PARSERS
             if getattr(args, key) is not None}
    cfg = _apply_entries(cfg, flags)
    cfg.validate()
    return cfg


def _vi_tag(lambdas: np.ndarray) -> str:
    grid_crc = zlib.crc32(np.ascontiguousarray(lambdas).tobytes())
    return (f"emax{ViConfig.e_max:g}_estep{ViConfig.e_step:g}_q{ViConfig.noise_quad}"
            f"_tol{ViConfig.span_tol:g}_grid{grid_crc:08x}")


def load_or_build_tables(cfg: RunConfig, log=print) -> dict:
    """Threshold tables for both plant classes, cached as plain-text files."""
    lambdas = default_lambda_grid()
    tables = {}
    for spec in TWO_HOP_PLANTS:
        sol = design_lqg(spec)
        cid = plant_class_id(spec, sol)
        cache_path = None
        if cfg.cache_dir:
            os.makedirs(cfg.cache_dir, exist_ok=True)
            cache_path = os.path.join(cfg.cache_dir,
                                      f"{cid}__{_vi_tag(lambdas)}.txt")
        if cache_path and os.path.exists(cache_path):
            try:
                table = ThresholdTable.load(cache_path)
            except (OSError, ValueError):  # e.g. truncated, edited or foreign
                table = None
            if (table is not None and table.class_id == cid
                    and np.array_equal(table.lambdas, lambdas)):
                log(f"table cache hit: {cache_path}")
                tables[cid] = table
                continue
            log(f"table cache stale, rebuilding: {cache_path}")
        log(f"designing thresholds for class {cid} ({lambdas.size} prices)")
        table = build_table(lambdas, spec, sol)
        tables[cid] = table
        if cache_path:
            table.save(cache_path)
    return tables


def _format_value(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path: str, rows, header) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_metric_csvs(result: SweepResult, out_dir: str) -> list:
    """One CSV per metric plus summary.csv; returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    header = ["L", "class", "mean", "ci95_halfwidth", "replications"]
    written = []
    summary_rows = []
    for metric in METRIC_NAMES:
        rows = []
        for L in result.L_values:
            for cls in result.class_order:
                cell = result.cell(L, cls, metric)
                row = [str(L), cls, _format_value(cell.mean),
                       _format_value(cell.ci95), str(cell.n)]
                rows.append(row)
                summary_rows.append([metric] + row)
        path = os.path.join(out_dir, f"{metric}.csv")
        _write_csv(path, rows, header)
        written.append(path)
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(summary_path, summary_rows, ["metric"] + header)
    written.append(summary_path)
    return written


def run_experiment(cfg: RunConfig, log=print) -> int:
    """Full pipeline: validation, tables, sweep, CSVs.  Returns the process exit code."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)  # an unwritable --out fails before any work
    tables = load_or_build_tables(cfg, log=log)

    def progress(L, partial: SweepResult):
        rate = partial.cell(L, "all", "rate")
        delay = partial.cell(L, "all", "delay")
        cost = partial.cell(L, "all", "cost")
        backlog = partial.cell(L, "all", "backlog")
        flag = "  [diverging]" if partial.diverging[L] else ""
        log(f"L={L:3d}  rate={rate.mean:6.3f}  delay={delay.mean:7.3f}  "
            f"cost={cost.mean:8.3f}  backlog={backlog.mean:8.3f}{flag}")

    result = sweep(cfg.L_values, cfg.replications, cfg.seed, tables,
                   horizon=cfg.horizon, theta=cfg.theta,
                   workers=cfg.workers, progress=progress)
    written = write_metric_csvs(result, cfg.out_dir)
    for path in written:
        log(f"wrote {path}")
    if any(result.diverging.values()):
        log("warning: queue divergence flagged at "
            + ", ".join(f"L={L}" for L, d in result.diverging.items() if d))
        return EXIT_UNSTABLE
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run_experiment(parse_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NonFiniteError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
