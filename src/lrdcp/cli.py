"""Command-line front end.

Subcommands: ``test`` (run the change-point test on a file of
observations), ``generate-fgn`` (write a fractional Gaussian noise
sample), ``critical-values`` (simulate the limit distribution),
``experiment`` (size/power/consistency/local-alternative studies), and
``reproduce-tables`` (emit the four standard study tables).

Machine-consumable first: results go to stdout as JSON unless --out is
given.  Exit codes: 0 success, 1 runtime error, 2 usage error, which
includes any value a spec (TestWindow, LimitSimSpec, ExperimentSpec,
FgnParams) rejects.  A JSON config file (--config) may supply any
optional flag by its underscored name, its value (a JSON string or
number) parsed as that flag's command-line text; explicit flags win, a
null value leaves the flag at its default, and every other value is
checked even when its flag is typed.  A key that names no option of any
subcommand is a usage error; options of other subcommands are ignored.
Randomized subcommands either take --seed (an integer in [0, 2**63)) or
draw one and record it in the output, so every run is replayable.
"""

import argparse
import functools
import json
import math
import secrets
import shutil
import sys

import numpy as np

from .limitdist import CriticalValueTable, LimitSimSpec, critical_values
from .montecarlo import (
    CSV_COLUMNS,
    ExperimentSpec,
    reproduce_tables,
    run_experiments,
    table_replications,
    write_csv,
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
    """Parse one decimal per line; '#' comments and blank lines ignored.

    A plain file, with no '#' and no empty line, takes one float pass over
    its raw lines: float() strips the whitespace around a number itself,
    so it needs no other work.  Any other file, and a plain one that fails
    that pass, takes the per-line path: strip, drop blanks and comments,
    parse, and only if that fails look for the first bad line.
    """
    with open(path) as handle:
        text = handle.read()
    lines = text.removesuffix("\n").split("\n")
    plain = "#" not in text and all(lines)  # no comment, no empty line
    del text
    values = _parse(lines) if plain else None
    if values is None:
        lines = list(map(str.strip, lines))
        data = [line for line in lines if line and line[0] != "#"]
        if not data:
            raise ValueError(f"no data in {path}")
        values = _parse(data)
        if values is None:
            _raise_first_bad_line(path, lines)
    return TimeSeries(values)


def _parse(lines):
    """The lines as float64 values, or None if one is not a finite float."""
    try:
        values = np.fromiter(map(float, lines), np.float64, len(lines))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _raise_first_bad_line(path, lines):
    """Raise the error of the first data line that is not a finite float."""
    for lineno, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
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


def _seed_arg(text):
    """argparse type of --seed: an integer in [0, 2**63)."""
    try:
        return check_seed(int(text), "seed")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(text, out=None):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out=None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _spec(parser, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError is a usage error (exit 2)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _limit_spec(parser, args, **kwargs):
    """The subcommand's LimitSimSpec: --hurst, window, --seed and ``kwargs``."""
    window = _spec(parser, TestWindow, args.tau1, args.tau2)
    return _spec(parser, LimitSimSpec, hurst=args.hurst, window=window,
                 master_seed=args.seed, **kwargs)


def _load_cv(args, spec):
    """Critical values from --cv file, else simulated from ``spec``."""
    if args.cv:
        with open(args.cv) as handle:
            table = CriticalValueTable.from_json(handle.read())
        table.check_matches(spec.hurst, spec.window)
        return table, "file"
    return critical_values(spec), "simulated"


def cmd_test(parser, args):
    spec = _limit_spec(parser, args, levels=(args.level,))
    series = read_series(args.input)
    spec.window.split_range(series.n)  # too short: fails before simulating
    cv_table, cv_source = _load_cv(args, spec)
    cv = cv_table.critical_value(args.level)
    result = tn_statistic(series, spec.window, critical_value=cv)
    if result.tie_flag:
        print(
            "warning: ties in the input; midranks were used",
            file=sys.stderr,
        )
    payload = {
        "n": series.n,
        "hurst": args.hurst,
        "window": [spec.window.tau1, spec.window.tau2],
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
        payload["cv_seed"] = args.seed
    _emit(payload, args.out)
    return 0


def cmd_generate_fgn(parser, args):
    params = _spec(parser, FgnParams, args.hurst, args.length)
    values = sample_fgn(build_sampler(params), args.seed)
    np.savetxt(args.out, values, fmt="%.17g")
    _emit(
        {"out": args.out, "hurst": args.hurst, "length": args.length,
         "seed": args.seed}
    )
    return 0


def cmd_critical_values(parser, args):
    try:
        levels = tuple(float(part) for part in args.levels.split(","))
    except ValueError:
        parser.error(f"--levels must be a comma list of probabilities, "
                     f"got {args.levels!r}")
    spec = _limit_spec(parser, args, grid_size=args.grid,
                       replications=args.reps, levels=levels)
    _write(critical_values(spec).to_json(), args.out)
    return 0


def cmd_experiment(parser, args):
    kind = _KIND_ALIASES[args.kind]
    try:
        n_list = [int(part) for part in str(args.n).split(",")]
    except ValueError:
        parser.error(f"--n must be an integer or comma list, got {args.n!r}")
    limit_spec = _limit_spec(parser, args, levels=(args.level,))
    specs = [
        _spec(
            parser, ExperimentSpec,
            kind=kind, hurst=args.hurst, n=n, replications=args.reps,
            delta=args.delta,
            tau=args.tau, c=args.c, level=args.level,
            window=limit_spec.window, master_seed=args.seed,
        )
        for n in n_list
    ]
    cv_table, cv_source = _load_cv(args, limit_spec)
    results = run_experiments(specs, cv_table)

    if args.out and args.format == "csv":
        write_csv(args.out, CSV_COLUMNS,
                  [result.to_csv_row() for result in results])
    else:
        payload = [
            {**result.to_csv_row(), "cv_source": cv_source,
             "mean_statistic": result.mean_statistic,
             "median_statistic": result.median_statistic,
             "rejection_se": result.rejection_se}
            for result in results
        ]
        _emit(payload, args.out)
    return 0


def cmd_reproduce_tables(parser, args):
    _spec(parser, table_replications, args.scale)
    window = _spec(parser, TestWindow, args.tau1, args.tau2)
    paths = reproduce_tables(
        args.out, scale=args.scale, master_seed=args.seed, window=window
    )
    _emit({"seed": args.seed, "scale": args.scale, "files": paths})
    return 0


def _add_window_flags(sub):
    sub.add_argument("--tau1", type=float, default=0.15,
                     help="lower trimming fraction (default 0.15)")
    sub.add_argument("--tau2", type=float, default=0.85,
                     help="upper trimming fraction (default 0.85)")


def build_parser():
    # the width HelpFormatter would query on every add_argument, asked once
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="lrdcp",
        allow_abbrev=False,
        formatter_class=formatter,
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
        sub = commands.add_parser(name, allow_abbrev=False,
                                  formatter_class=formatter, **kwargs)
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


# JSON types a config value cannot take: no flag is boolean or structured
_NOT_SCALAR = {bool: "a boolean", list: "an array", dict: "an object"}


def _options(sub):
    return {action.dest: action for action in sub._actions
            if action.default is not argparse.SUPPRESS}


def _apply_config(parser, args, argv):
    """Re-parse ``argv`` with the --config values as subcommand defaults.

    Every key must name an option of some subcommand, and every non-null
    value must be a JSON string or number.  Each value for an option of
    this subcommand is parsed as its flag's command-line text; argparse
    then keeps a typed flag over it.  Options of other subcommands are
    ignored, so one file can serve several subcommands.
    """
    if not args.config:
        return args
    with open(args.config) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad config {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"bad config {args.config}: expected a JSON object")
    known = set().union(*map(_options, parser._command_parsers.values()))
    actions = _options(parser._command_parsers[args.command])
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"config {args.config}: {key}: "
                         f"names no option of any subcommand")
        if type(value) in _NOT_SCALAR:
            parser.error(f"config {args.config}: {key}: expected a JSON "
                         f"string or number, got {_NOT_SCALAR[type(value)]}")
        if value is not None and dest in actions:
            defaults[dest] = _config_value(parser, args.config, key, value,
                                           actions[dest])
    parser._command_parsers[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        # not required=True: a config file may supply it
        if hasattr(args, "hurst") and args.hurst is None:
            parser.error("--hurst is required")
        if args.seed is None:
            args.seed = secrets.randbits(63)
        return args.handler(parser, args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
