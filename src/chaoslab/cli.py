"""Command-line interface wiring configuration, seeding, execution, and reports.

Subcommands
-----------
identities       randomized Malliavin-identity suite on finite Gaussian spaces
fbm              covariance-bound property suite + optional path sampling/export
variation        weighted Hermite variation statistics (G_n, correction,
                 renormalization, optional exact decomposition)
limit-test       Monte Carlo comparison of the renormalized statistic against
                 its mixed-Gaussian limit (central regime and lower critical H)
berry-esseen     exact fourth-moment bound vs MC sup-distance to the normal CDF
example-brownian the weighted quadratic Brownian functional and its mixture limit
constants        tables: increment autocorrelation, limit variance, regime map

Configuration layering: defaults < ``--config file.json`` (flat keys mirroring
the flags) < explicit flags.  The key ``method`` has no flag and accepts only
"auto": the fBm sampler plan follows from H and n.  Every report embeds the
effective configuration; timestamps and runtimes are confined to ``meta``
blocks so repeated runs with the same config and seed are byte-identical
outside ``meta``.

Exit codes: 0 all executed suites pass, 1 suite failure, 2 invalid config
(including a config-file value of the wrong JSON type, or a value out of range).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .experiments import mixture_comparison
from .fbm import FbmGrid, bounds_suite, rho, sample_paths, save_paths
from .hermite import NORMALIZATIONS
from .identities import run_identity_suite
from .limits import berry_esseen_check, brownian_example_run
from .report import TestReport, report_payload, version_string, write_json
from .variations import classify_regime, correction_constant, full_variation, sigma_hq
from .weights import WeightFunction, parse_weight

__all__ = ["main"]

_REGIME_MAP_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


class ConfigError(Exception):
    """Invalid configuration: reported on stderr with exit code 2."""


# Defaults for every configurable key; config files may set any subset and
# explicit flags override the file.
_DEFAULTS: dict[str, Any] = {
    "q": 2,
    "H": 0.3,
    "n": [256],
    "m": 1000,
    "seed": 0,
    "weight": "poly:1",
    "normalization": "monic",
    # a relic: the sampler plan follows from H and n, so "auto" is the only
    # value.  The key stays because every report.json embeds its config, and
    # perfbench's recorded digests cover that block; dropping the key would
    # move every CLI workload's digest at every recorded seed
    "method": "auto",
    "out": ".",
    "decompose": False,
    "instances": 240,
    "tolerance": 1e-9,
    "n_fine": 4096,
    "alpha": 0.01,
    "variance_tolerance": None,
    "resolution": 8192,
    "export_paths": False,
}
# the JSON type of each key whose default does not show it, as the error names it
_SPECIAL_TYPES = {
    "n": (int, "an integer or a list of integers"),
    "variance_tolerance": (float, "a number or null"),
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid --n value {text!r}: {exc}") from None
    if not values or any(v <= 0 for v in values):
        raise ConfigError(f"invalid --n value {text!r}: need positive integers")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Verification suites for Gaussian-chaos limit theorems.",
    )
    parser.add_argument("--version", action="version", version=version_string())
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("identities", "exact Malliavin identity suite"),
        ("fbm", "fBm covariance bounds and path sampling"),
        ("variation", "weighted Hermite variation statistics"),
        ("limit-test", "mixture-limit Monte Carlo comparison"),
        ("berry-esseen", "fourth-moment bound vs MC sup-distance"),
        ("example-brownian", "weighted quadratic Brownian functional"),
        ("constants", "autocorrelation/variance-constant/regime tables"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--q", type=int, default=None)
        sub.add_argument("--H", type=float, default=None)
        sub.add_argument("--n", type=str, default=None, help="grid size or comma list")
        sub.add_argument("--m", type=int, default=None, help="number of Monte Carlo paths")
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--weight", type=str, default=None, help="poly:<c0,c1,...>|cos:<a,b>|expq:<c>")
        sub.add_argument("--normalization", choices=NORMALIZATIONS, default=None)
        sub.add_argument("--out", type=str, default=None, help="output directory")
        sub.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")
        sub.add_argument("--decompose", action="store_const", const=True, default=None)
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object of flat keys")
    unknown = sorted(set(loaded) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed: {sorted(_DEFAULTS)}")
    for key, value in loaded.items():
        _check_value_type(key, value)
    return loaded


def _is_type(value: Any, kind: type) -> bool:
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


def _check_value_type(key: str, value: Any) -> None:
    """Reject a config-file value whose JSON type differs from its default's.

    A bool is not an integer; an integer is a number.
    """
    kind, expected = _SPECIAL_TYPES.get(key, (type(_DEFAULTS[key]), None))
    if key == "variance_tolerance" and value is None:
        return
    values = value if key == "n" and isinstance(value, list) else [value]
    if not all(_is_type(v, kind) for v in values):
        expected = expected or _TYPE_NAMES[kind]
        raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def _effective_config(args: argparse.Namespace) -> dict[str, Any]:
    config = dict(_DEFAULTS)
    if args.config is not None:
        config.update(_load_config_file(args.config))
    # every flag but the subcommand and --config overrides the config key it names
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            config[key] = value
    config["n"] = _parse_n_list(config["n"]) if not isinstance(config["n"], list) else [
        int(v) for v in config["n"]
    ]
    _validate_config(config)
    config["command"] = args.command
    return config


def _validate_config(config: dict[str, Any]) -> None:
    if config["q"] < 1:
        raise ConfigError("q must be >= 1")
    if not 0.0 < config["H"] < 1.0:
        raise ConfigError("H must lie in (0, 1)")
    if config["m"] < 0:
        raise ConfigError("m must be >= 0")
    if any(v <= 0 for v in config["n"]):
        raise ConfigError("n values must be positive")
    if config["normalization"] not in NORMALIZATIONS:
        raise ConfigError("normalization must be 'monic' or 'scaled'")
    if config["method"] != "auto":
        raise ConfigError("method must be 'auto': the sampler plan follows from H and n")
    if not 0.0 < config["alpha"] < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if not config["tolerance"] > 0.0:
        raise ConfigError("tolerance must be positive")
    try:
        parse_weight(config["weight"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _single_n(config: dict[str, Any]) -> int:
    n_values = config["n"]
    if len(n_values) != 1:
        raise ConfigError(f"this subcommand takes a single --n, got {n_values}")
    return int(n_values[0])


def _weight(config: dict[str, Any]) -> WeightFunction:
    return parse_weight(config["weight"])


def _regime_map(q: int) -> dict[str, str]:
    """The regime label of (q, h) at every h of ``_REGIME_MAP_GRID``."""
    return {f"{h:g}": classify_regime(q, h).label for h in _REGIME_MAP_GRID}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (reports, csv header+rows or None, extra payload)
# ---------------------------------------------------------------------------


def _run_identities(config: dict[str, Any]):
    report = run_identity_suite(
        seed=config["seed"],
        instances=config["instances"],
        tolerance=config["tolerance"],
    )
    header = ["identity", "instances", "max_gap", "failures"]
    rows = [
        [name, stats["instances"], stats["max_gap"], stats["failures"]]
        for name, stats in sorted(report.extras["per_identity"].items())
    ]
    return [report], (header, rows), {}


def _run_fbm(config: dict[str, Any]):
    reports = bounds_suite(seed=config["seed"])
    csv_data = None
    if config["m"] > 0:
        grid = FbmGrid(hurst=config["H"], n=_single_n(config))
        batch = sample_paths(grid, config["m"], config["seed"])
        if config["export_paths"]:
            save_paths(batch, Path(config["out"]) / "paths.fbm")
        header = ["path", "terminal_level", "increment_mean", "increment_std"]
        rows = [
            [
                i,
                float(batch.paths[i, -1]),
                float(batch.increments[i].mean()),
                float(batch.increments[i].std(ddof=1)) if grid.n > 1 else 0.0,
            ]
            for i in range(batch.m)
        ]
        csv_data = (header, rows)
    return reports, csv_data, {}


def _run_variation(config: dict[str, Any]):
    grid = FbmGrid(hurst=config["H"], n=_single_n(config))
    if config["m"] <= 0:
        raise ConfigError("variation requires m >= 1")
    batch = sample_paths(grid, config["m"], config["seed"])
    result = full_variation(
        batch,
        config["q"],
        _weight(config),
        config["normalization"],
        decompose=config["decompose"],
    )
    extras = result.summary()
    if result.regime is not None:
        extras["regime_map"] = _regime_map(result.q)
        extras["renormalization_exponent"] = result.regime.exponent
    if config["decompose"]:
        name, statistic, threshold = "decomposition-residual", result.max_residual, 1e-8
    else:
        name, statistic, threshold = "variation-summary", 0.0, 0.0
    report = TestReport(
        name=name,
        statistic=statistic,
        threshold=threshold,
        sample_sizes=(result.m,),
        seeds=(config["seed"],),
        extras=extras,
    )
    return [report], (result.csv_header(), list(result.csv_rows())), {}


def _run_limit_test(config: dict[str, Any]):
    report, arrays = mixture_comparison(
        config["q"],
        config["H"],
        _weight(config),
        _single_n(config),
        config["m"],
        config["seed"],
        normalization=config["normalization"],
        n_fine=config["n_fine"],
        variance_tolerance=config["variance_tolerance"],
        alpha=config["alpha"],
    )
    return [report], _columns(arrays), {}


def _run_berry_esseen(config: dict[str, Any]):
    reports = [
        berry_esseen_check(config["H"], n, config["m"], config["seed"])
        for n in config["n"]
    ]
    header = ["n", "observed_sup_distance", "bound", "mc_error", "normalized_m4"]
    rows = [
        [
            n,
            rep.statistic,
            rep.extras["bound"],
            rep.extras["mc_error"],
            rep.extras["normalized_m4"],
        ]
        for n, rep in zip(config["n"], reports)
    ]
    return reports, (header, rows), {}


def _run_example_brownian(config: dict[str, Any]):
    report, arrays = brownian_example_run(
        _single_n(config),
        config["m"],
        config["seed"],
        resolution=config["resolution"],
        alpha=config["alpha"],
    )
    return [report], _columns(arrays), {}


def _run_constants(config: dict[str, Any]):
    q, H = config["q"], config["H"]
    lags = list(range(0, 11))
    constants: dict[str, Any] = {
        "q": q,
        "H": H,
        "rho": {str(lag): float(rho(H, lag)) for lag in lags},
        "correction_constant_monic": correction_constant(q, "monic"),
        "correction_constant_scaled": correction_constant(q, "scaled"),
    }
    try:
        sig = sigma_hq(H, q)
        constants["sigma"] = sig.sigma
        constants["sigma_sq"] = sig.sigma_sq
    except ValueError as exc:
        constants["sigma"] = None
        constants["sigma_sq"] = None
        constants["sigma_note"] = str(exc)
    if q >= 2:
        constants["regime"] = classify_regime(q, H).label
        constants["regime_map"] = _regime_map(q)
        constants["critical_points"] = {
            "lower": 1.0 / (2.0 * q),
            "upper": 1.0 - 1.0 / (2.0 * q),
        }
    return [], None, {"constants": constants}


_HANDLERS = {
    "identities": _run_identities,
    "fbm": _run_fbm,
    "variation": _run_variation,
    "limit-test": _run_limit_test,
    "berry-esseen": _run_berry_esseen,
    "example-brownian": _run_example_brownian,
    "constants": _run_constants,
}


def _columns(arrays: Mapping[str, np.ndarray]):
    """CSV header and rows of per-replica columns, led by the replica index."""
    rows = zip(itertools.count(), *(column.tolist() for column in arrays.values()))
    return ["index", *arrays], rows


def _write_samples(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = _effective_config(args)
        reports, csv_data, extra_payload = _HANDLERS[args.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report_payload(
        reports,
        config=config,
        meta={
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": time.perf_counter() - started,
        },
    )
    payload.update(extra_payload)
    write_json(payload, out_dir / "report.json")
    if csv_data is not None:
        _write_samples(out_dir / "samples.csv", csv_data[0], csv_data[1])

    for report in reports:
        print(report.summary_line())
    print(f"report: {out_dir / 'report.json'}")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
