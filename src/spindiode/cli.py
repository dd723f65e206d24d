"""Command line entry points.

spindiode sweep  --config cfg.json --out table.csv --format csv|json
spindiode figure <preset> --out <dir> [--points N] [--format csv|json]
spindiode steady --model model.json --bias forward|reverse

Exit codes: 0 on success, 2 for configuration or validation problems,
1 for runtime failures (solver breakdowns, numerical aborts).  ``sweep``
takes its worker count from --workers or the config's ``workers``;
only ``figure`` falls back to the SPINDIODE_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .models import ModelSpec, build_hamiltonian, current_bonds
from .observables import bias_dissipators, magnetization_profile, solve_bias, spin_current_op
from .presets import FIGURE_PRESETS, run_preset
from .sweep import SweepConfig, default_workers, export, positive_int, run_sweep

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """User input that fails validation (files, JSON, names, ranges)."""


def _load_text(path: str, what: str) -> str:
    p = Path(path)
    try:
        found = p.is_file()
    except OSError:  # e.g. ENAMETOOLONG: no file can have that name
        found = False
    if not found:
        raise ConfigError(f"{what} not found: {path}")
    return p.read_text()


def _cmd_sweep(args) -> int:
    text = _load_text(args.config, "sweep config")
    try:
        config = SweepConfig.from_json(text)
        if args.workers is not None:
            config = replace(config, workers=positive_int("--workers", args.workers))
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from None
    out = Path(args.out)
    try:
        usable = out.parent.is_dir() and not out.is_dir()
    except OSError:  # e.g. ENAMETOOLONG
        usable = False
    if not usable:  # refused before any point is solved, not after
        raise ConfigError(f"--out must name a file in an existing directory, got {args.out}")
    table = run_sweep(config)
    export(table, args.format, out)
    n_failed = sum(1 for row in table.rows if row[-1])
    print(f"wrote {args.out}: {len(table.rows)} rows ({n_failed} failed)")
    return EXIT_RUNTIME if n_failed == len(table.rows) else EXIT_OK


def _cmd_figure(args) -> int:
    if args.preset not in FIGURE_PRESETS:
        known = ", ".join(sorted(FIGURE_PRESETS))
        raise ConfigError(f"unknown preset {args.preset!r}; available: {known}")
    try:
        workers = default_workers() if args.workers is None else positive_int("--workers", args.workers)
        if args.points is not None:
            positive_int("--points", args.points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file, or a path below one
        raise ConfigError(f"--out must name a directory: {exc}") from None
    tables = run_preset(args.preset, points=args.points, workers=workers)
    ext = args.format
    for part, table in tables.items():
        path = out_dir / f"{args.preset}_{part}.{ext}"
        export(table, ext, path)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_steady(args) -> int:
    raw = args.model
    if not raw.lstrip().startswith("{"):  # a path; an inline document can be longer than a file name may be
        raw = _load_text(raw, "model file")
    try:
        spec = ModelSpec.from_json(raw)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid model: {exc}") from None
    if not (math.isfinite(args.gamma) and args.gamma >= 0):
        raise ConfigError(f"--gamma must be finite and >= 0, got {args.gamma}")

    H = build_hamiltonian(spec)
    dissipators = bias_dissipators(spec, args.gamma)[0 if args.bias == "forward" else 1]
    ops = [spin_current_op(spec.n_sites, *bond) for bond in current_bonds(spec)]
    result, J, continuity = solve_bias(H, dissipators, ops)
    doc = {
        "variant": spec.variant.value,
        "bias": args.bias,
        "hot_site": dissipators[0].site,
        "cold_site": dissipators[1].site,
        "gamma": args.gamma,
        "J": J,
        "continuity": continuity,
        "magnetization": [float(x) for x in magnetization_profile(result.rho_ss)],
        "residual": result.residual,
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spindiode", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a declarative parameter sweep")
    sweep.add_argument("--config", required=True, help="sweep config JSON file")
    sweep.add_argument("--out", required=True, help="output table path")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="regenerate the data behind a figure")
    figure.add_argument("preset", help="preset name, e.g. fig2a")
    figure.add_argument("--out", required=True, help="output directory")
    figure.add_argument("--format", choices=("csv", "json"), default="csv")
    figure.add_argument("--points", type=int, default=None, help="override grid resolution")
    figure.add_argument("--workers", type=int, default=None)
    figure.set_defaults(func=_cmd_figure)

    steady = sub.add_parser("steady", help="solve one steady state, print metrics JSON")
    steady.add_argument("--model", required=True, help="model JSON: an inline object, or a file path")
    steady.add_argument("--bias", choices=("forward", "reverse"), required=True)
    steady.add_argument("--gamma", type=float, default=1.0, help="bath coupling (default 1)")
    steady.set_defaults(func=_cmd_steady)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # solver/runtime failures
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
