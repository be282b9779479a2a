"""Experiment runner: config parsing, table caching, sweep orchestration, CSV output.

Config files are plain ``key=value`` text (UTF-8, ``#`` comments); flags
override file values.  Every metric lands in its own CSV with the fixed
header ``L,class,mean,ci95_halfwidth,replications`` plus a combined
``summary.csv`` with a leading ``metric`` column.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (METRIC_NAMES, NonFiniteError, SweepResult,
                     make_two_hop_scenario, sweep)
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
    workers: int = 1
    vi: ViConfig = field(default_factory=ViConfig)

    def validate(self) -> None:
        if self.horizon < 1000:
            raise ConfigError("horizon: must be at least 1000")
        if self.replications < 1:
            raise ConfigError("replications: must be at least 1")
        if not 0 < self.theta < math.inf:
            raise ConfigError(f"theta: must be positive and finite, got {self.theta}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed}")
        if not self.L_values:
            raise ConfigError("L: list must not be empty")
        for L in self.L_values:
            if L < 2 or L % 2 != 0:
                raise ConfigError(f"L: values must be even and >= 2, got {L}")
        if self.workers < 1:
            raise ConfigError("workers: must be at least 1")


def _parse_L_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"L: {exc}") from None


_KEY_PARSERS = {
    "L": ("L_values", _parse_L_list),
    "horizon": ("horizon", int),
    "replications": ("replications", int),
    "seed": ("seed", int),
    "theta": ("theta", float),
    "out": ("out_dir", str),
    "cache": ("cache_dir", str),
    "workers": ("workers", int),
}

_VI_KEYS = {
    "vi_e_max": ("e_max", float),
    "vi_e_step": ("e_step", float),
    "vi_quad": ("noise_quad", int),
    "vi_span_tol": ("span_tol", float),
    "vi_max_iter": ("max_iter", int),
}


def _read_config_file(path: str) -> dict:
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def _apply_entries(cfg: RunConfig, entries: dict) -> RunConfig:
    vi_kwargs = {}
    for key, value in entries.items():
        if key in _KEY_PARSERS:
            attr, parser = _KEY_PARSERS[key]
            try:
                cfg = replace(cfg, **{attr: parser(value)})
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        elif key in _VI_KEYS:
            attr, parser = _VI_KEYS[key]
            try:
                vi_kwargs[attr] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        else:
            raise ConfigError(f"unknown configuration key: {key}")
    if vi_kwargs:
        try:
            cfg = replace(cfg, vi=replace(cfg.vi, **vi_kwargs))
        except ValueError as exc:
            fields = str(exc).split(" ", 1)[0].split("/")  # ViConfig names them first
            keys = ", ".join(key for key, (attr, _) in _VI_KEYS.items() if attr in fields)
            raise ConfigError(f"{keys}: {exc}") from None
    return cfg


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsim",
        description="Co-simulate event-triggered control loops over a "
                    "back-pressure scheduled two-hop network.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--L", help="comma-separated even loop counts")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--replications", type=int, help="independent runs per L")
    parser.add_argument("--horizon", type=int, help="control steps per run")
    parser.add_argument("--out", help="output directory for CSV files")
    parser.add_argument("--theta", type=float, help="backlog-to-price scale")
    parser.add_argument("--cache", help="threshold table cache directory")
    parser.add_argument("--workers", type=int, help="parallel sweep workers")
    return parser


def parse_config(argv=None) -> RunConfig:
    """RunConfig from defaults, then config file, then flag overrides."""
    args = _build_argparser().parse_args(argv)
    cfg = RunConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config: file not found: {args.config}")
        cfg = _apply_entries(cfg, _read_config_file(args.config))
    flag_entries = {}
    for flag, key in (("L", "L"), ("seed", "seed"), ("replications", "replications"),
                      ("horizon", "horizon"), ("out", "out"), ("theta", "theta"),
                      ("cache", "cache"), ("workers", "workers")):
        value = getattr(args, flag)
        if value is not None:
            flag_entries[key] = str(value)
    cfg = _apply_entries(cfg, flag_entries)
    cfg.validate()
    return cfg


def _vi_tag(cfg: ViConfig, lambdas: np.ndarray) -> str:
    grid_crc = zlib.crc32(np.ascontiguousarray(lambdas).tobytes())
    return (f"emax{cfg.e_max:g}_estep{cfg.e_step:g}_q{cfg.noise_quad}"
            f"_tol{cfg.span_tol:g}_grid{grid_crc:08x}")


def load_or_build_tables(cfg: RunConfig, log=print) -> dict:
    """Threshold tables for both plant classes, cached as plain-text files."""
    lambdas = default_lambda_grid()
    scenario = make_two_hop_scenario(min(cfg.L_values), seed=0, horizon=1000)
    tables = {}
    seen = set()
    for spec in scenario.plants:
        sol = design_lqg(spec)
        cid = plant_class_id(spec, sol)
        if cid in seen:
            continue
        seen.add(cid)
        cache_path = None
        if cfg.cache_dir:
            os.makedirs(cfg.cache_dir, exist_ok=True)
            cache_path = os.path.join(cfg.cache_dir,
                                      f"{cid}__{_vi_tag(cfg.vi, lambdas)}.txt")
        if cache_path and os.path.exists(cache_path):
            table = ThresholdTable.load(cache_path)
            if (table.class_id == cid and table.lambdas.shape == lambdas.shape
                    and np.array_equal(table.lambdas, lambdas)):
                log(f"table cache hit: {cache_path}")
                tables[cid] = table
                continue
            log(f"table cache stale, rebuilding: {cache_path}")
        log(f"designing thresholds for class {cid} ({lambdas.size} prices)")
        table = build_table(lambdas, spec, sol, cfg.vi)
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
    classes = ["all"] + [c for c in result.class_order if c != "all"]
    header = ["L", "class", "mean", "ci95_halfwidth", "replications"]
    written = []
    summary_rows = []
    for metric in METRIC_NAMES:
        rows = []
        for L in result.L_values:
            for cls in classes:
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
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        return run_experiment(cfg)
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
