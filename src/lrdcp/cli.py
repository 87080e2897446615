"""Command-line front end.

Subcommands: ``test`` (run the change-point test on a file of
observations), ``generate-fgn`` (write a fractional Gaussian noise
sample), ``critical-values`` (simulate the limit distribution),
``experiment`` (size/power/consistency/local-alternative studies), and
``reproduce-tables`` (emit the four standard study tables).

Machine-consumable first: results go to stdout as JSON unless --out is
given.  Exit codes: 0 success, 1 runtime error, 2 usage error.  A JSON
config file (--config) may supply any long flag by its underscored name,
its value parsed as that flag's command-line text; explicit flags win and
a null value leaves the flag at its default.
Randomized subcommands either take --seed (an integer in [0, 2**63)) or
draw one and record it in the output, so every run is replayable.
"""

import argparse
import json
import math
import secrets
import sys

import numpy as np

from .limitdist import CriticalValueTable, LimitSimSpec, critical_values
from .montecarlo import (
    CSV_COLUMNS,
    ExperimentSpec,
    reproduce_tables,
    run_experiment,  # noqa: F401  (tests patch it here)
    run_experiments,
)
from .rankstat import TimeSeries
from .sntest import TestWindow, tn_statistic
from .fgn import FgnParams, build_sampler, check_seed, sample_fgn

_KIND_ALIASES = {
    "size": "size",
    "power": "power",
    "consistency": "consistency",
    "local-alt": "local_alternative",
}


def read_series(path):
    """Parse one decimal per line; '#' comments and blank lines ignored."""
    values = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(
                    f"parse error at line {lineno} of {path}: {line!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite value at line {lineno} of {path}: {line!r}"
                )
            values.append(value)
    if not values:
        raise ValueError(f"no data in {path}")
    return TimeSeries(np.asarray(values, dtype=np.float64))


def _auto_seed():
    return secrets.randbits(63)


def _seed_arg(text):
    """argparse type of --seed: an integer in [0, 2**63)."""
    try:
        return check_seed(int(text), "seed")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _window(parser, args):
    try:
        return TestWindow(args.tau1, args.tau2)
    except ValueError as exc:
        parser.error(f"--tau1/--tau2: {exc}")


def _check_hurst(parser, value, lower=0.0):
    if value is None:
        parser.error("--hurst is required")
    if not lower < value < 1.0:
        parser.error(f"--hurst must lie in ({lower}, 1), got {value}")
    return value


def _parse_levels(parser, text):
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--levels must be a comma list of probabilities, got {text!r}")
    if any(not 0.0 < level < 1.0 for level in levels):
        parser.error(f"--levels must lie strictly in (0, 1), got {text!r}")
    return levels


def _load_cv(parser, args, window, seed):
    """Critical values from --cv file, else simulated with recorded seed."""
    if args.cv:
        with open(args.cv) as handle:
            table = CriticalValueTable.from_json(handle.read())
        table.check_matches(args.hurst, window)
        return table, "file"
    spec = LimitSimSpec(
        hurst=args.hurst,
        window=window,
        levels=(args.level,),
        master_seed=seed,
    )
    return critical_values(spec), "simulated"


def cmd_test(parser, args):
    _check_hurst(parser, args.hurst, lower=0.5)
    if not 0.0 < args.level < 1.0:
        parser.error(f"--level must lie in (0, 1), got {args.level}")
    window = _window(parser, args)
    seed = args.seed if args.seed is not None else _auto_seed()
    series = read_series(args.input)
    cv_table, cv_source = _load_cv(parser, args, window, seed)
    cv = cv_table.critical_value(args.level)
    result = tn_statistic(series, window, critical_value=cv)
    if result.tie_flag:
        print(
            "warning: ties in the input; midranks were used",
            file=sys.stderr,
        )
    payload = {
        "n": series.n,
        "hurst": args.hurst,
        "window": [window.tau1, window.tau2],
        "statistic": result.statistic,
        "argmax_k": result.argmax_k,
        "level": args.level,
        "critical_value": cv,
        "reject": result.reject,
        "tie_warning": result.tie_flag,
        "degenerate_split": result.degenerate_flag,
        "cv_source": cv_source,
    }
    if cv_source == "simulated":
        payload["cv_seed"] = seed
    _emit(payload, args.out)
    return 0


def cmd_generate_fgn(parser, args):
    _check_hurst(parser, args.hurst)
    if args.length < 2:
        parser.error(f"--length must be at least 2, got {args.length}")
    seed = args.seed if args.seed is not None else _auto_seed()
    sampler = build_sampler(FgnParams(args.hurst, args.length))
    values = sample_fgn(sampler, seed)
    np.savetxt(args.out, values, fmt="%.17g")
    _emit(
        {"out": args.out, "hurst": args.hurst, "length": args.length,
         "seed": seed}
    )
    return 0


def cmd_critical_values(parser, args):
    _check_hurst(parser, args.hurst, lower=0.5)
    levels = _parse_levels(parser, args.levels)
    if args.reps < 100:
        parser.error(f"--reps must be at least 100, got {args.reps}")
    if args.grid < 100:
        parser.error(f"--grid must be at least 100, got {args.grid}")
    window = _window(parser, args)
    seed = args.seed if args.seed is not None else _auto_seed()
    spec = LimitSimSpec(
        hurst=args.hurst,
        grid_size=args.grid,
        replications=args.reps,
        window=window,
        levels=levels,
        master_seed=seed,
    )
    table = critical_values(spec)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(table.to_json())
    else:
        sys.stdout.write(table.to_json())
    return 0


def cmd_experiment(parser, args):
    kind = _KIND_ALIASES[args.kind]
    _check_hurst(parser, args.hurst, lower=0.5)
    if not 0.0 < args.level < 1.0:
        parser.error(f"--level must lie in (0, 1), got {args.level}")
    if not 0.0 < args.tau < 1.0:
        parser.error(f"--tau must lie in (0, 1), got {args.tau}")
    if args.reps < 1:
        parser.error(f"--reps must be positive, got {args.reps}")
    try:
        n_list = [int(part) for part in str(args.n).split(",")]
    except ValueError:
        parser.error(f"--n must be an integer or comma list, got {args.n!r}")
    window = _window(parser, args)
    seed = args.seed if args.seed is not None else _auto_seed()
    try:
        specs = [
            ExperimentSpec(
                kind=kind, hurst=args.hurst, n=n, replications=args.reps,
                delta=(args.delta if kind in ("power", "consistency") else 0.0),
                tau=args.tau, c=args.c, level=args.level, window=window,
                master_seed=seed,
            )
            for n in n_list
        ]
    except ValueError as exc:
        parser.error(str(exc))
    cv_table, cv_source = _load_cv(parser, args, window, seed)
    results = run_experiments(specs, cv_table)

    if args.out and args.format == "csv":
        import csv as csv_module

        with open(args.out, "w", newline="") as handle:
            writer = csv_module.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(result.to_csv_row() for result in results)
    else:
        payload = [result.to_csv_row() for result in results]
        for entry in payload:
            entry["cv_source"] = cv_source
        _emit(payload, args.out)
    return 0


def cmd_reproduce_tables(parser, args):
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    seed = args.seed if args.seed is not None else _auto_seed()
    window = _window(parser, args)
    paths = reproduce_tables(
        args.out, scale=args.scale, master_seed=seed, window=window
    )
    _emit({"seed": seed, "scale": args.scale, "files": paths})
    return 0


def _add_window_flags(sub):
    sub.add_argument("--tau1", type=float, default=0.15,
                     help="lower trimming fraction (default 0.15)")
    sub.add_argument("--tau2", type=float, default=0.85,
                     help="upper trimming fraction (default 0.85)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrdcp",
        allow_abbrev=False,
        description=(
            "Self-normalized Wilcoxon change-point test for long-range "
            "dependent time series"
        ),
    )
    parser.add_argument(
        "--config",
        help="JSON file supplying flag values (explicit flags win)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parser._command_parsers = {}

    def register(name, **kwargs):
        sub = commands.add_parser(name, allow_abbrev=False, **kwargs)
        parser._command_parsers[name] = sub
        return sub

    sub = register("test", help="test a series for a mean change")
    sub.add_argument("--input", required=True, help="file, one value per line")
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--level", type=float, default=0.05)
    _add_window_flags(sub)
    sub.add_argument("--cv", help="critical-value table JSON (else simulated)")
    sub.add_argument("--seed", type=_seed_arg,
                     help="seed for simulated critical values")
    sub.add_argument("--out", help="write the JSON verdict here instead of stdout")
    sub.set_defaults(handler=cmd_test)

    sub = register("generate-fgn", help="sample fGn to a file")
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0, 1)")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=cmd_generate_fgn)

    sub = register(
        "critical-values", help="simulate limit-distribution quantiles"
    )
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--grid", type=int, default=1000)
    sub.add_argument("--reps", type=int, default=10000)
    _add_window_flags(sub)
    sub.add_argument("--levels", default="0.10,0.05,0.01")
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--out", help="write the table JSON here instead of stdout")
    sub.set_defaults(handler=cmd_critical_values)

    sub = register("experiment", help="Monte Carlo experiment")
    sub.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES))
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--n", required=True,
                     help="series length, or comma list for sweeps")
    sub.add_argument("--delta", type=float, default=0.0,
                     help="shift height (power/consistency)")
    sub.add_argument("--tau", type=float, default=0.5,
                     help="change fraction (default 0.5)")
    sub.add_argument("--c", type=float, default=0.0,
                     help="local-alternative scale: shift c * n^(H-1)")
    sub.add_argument("--level", type=float, default=0.05)
    sub.add_argument("--reps", type=int, default=5000)
    _add_window_flags(sub)
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--cv", help="critical-value table JSON (else simulated)")
    sub.add_argument("--out", help="write results here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="file format for --out (default csv)")
    sub.set_defaults(handler=cmd_experiment)

    sub = register(
        "reproduce-tables", help="emit the standard study tables"
    )
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="replication-count multiplier (floor 200)")
    _add_window_flags(sub)
    sub.add_argument("--seed", type=_seed_arg)
    sub.set_defaults(handler=cmd_reproduce_tables)

    return parser


def _apply_config(parser, args, argv):
    if not args.config:
        return args
    with open(args.config) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad config {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"bad config {args.config}: expected a JSON object")
    explicit = {
        token.split("=", 1)[0].lstrip("-").replace("-", "_")
        for token in argv
        if token.startswith("--")
    }
    actions = {
        action.dest: action
        for action in parser._command_parsers[args.command]._actions
    }
    for key, value in config.items():
        attr = key.replace("-", "_")
        action = actions.get(attr)
        if (value is None or attr in explicit or action is None
                or not hasattr(args, attr)):
            continue
        if getattr(args, attr) == action.default:
            setattr(args, attr, _config_value(parser, args.config, key, value,
                                              action))
    return args


def _config_value(parser, path, key, value, action):
    """Parse a config value as the flag's command-line text would be."""
    try:
        value = (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"config {path}: {key}: {exc}")
    if action.choices is not None and value not in action.choices:
        parser.error(
            f"config {path}: {key}: {value!r} is not one of "
            f"{sorted(action.choices)}"
        )
    return value


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return args.handler(parser, args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
