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
import codecs
import errno
import functools
import io
import json
import math
import os
import random
import re
import sys

import numpy as np

from .limitdist import (
    CriticalValueTable,
    LimitSimSpec,
    _unique_keys,
    critical_values,
)
from .montecarlo import (
    CSV_COLUMNS,
    KINDS,
    ExperimentSpec,
    reproduce_tables,
    run_experiments,
    table_replications,
    write_csv,
)
from .rankstat import TimeSeries
from .sntest import TestWindow, tn_statistic
from .fgn import FgnParams, build_sampler, check_seed, sample_fgn

# --kind's spelling of each kind: local_alternative is local-alt
_KIND_ALIASES = {kind.replace("_alternative", "-alt"): kind for kind in KINDS}


def _decode(path, data):
    """``data``, the bytes of a user file, as UTF-8 text.

    A leading byte-order mark is dropped and line endings are read as
    ``open`` reads them.  A byte that is not UTF-8 raises ValueError
    naming the file.
    """
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def _read_text(path):
    """A user file's text, decoded by ``_decode``."""
    with open(path, "rb") as handle:
        return _decode(path, handle.read())


# a byte outside the ASCII characters that str.isspace() holds true for
_NOT_SPACE = re.compile(rb"[^ \t-\r\x1c-\x1f]")


def read_series(path):
    """Parse one decimal per line; '#' comments and blank lines ignored.

    The input is read once, as bytes, and they choose the parser.  A
    plain regular file (after an optional byte-order mark: ASCII, no '#',
    some non-blank text) goes to NumPy's C reader, which opens it again
    and converts each field as float() does, and is taken if it reads as
    one finite value per line.  Everything else is decoded from those
    bytes and takes one per-line pass, ``_parse_lines``, that names the
    first bad line.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    body = data.removeprefix(codecs.BOM_UTF8)
    # NumPy's reader warns on a blank file, so none reaches it
    if (b"#" not in body and body.isascii() and _NOT_SPACE.search(body)
            and os.path.isfile(path)):
        values = _load(path)
        if values is not None:
            return TimeSeries(values)
    text = _decode(path, data)
    del data, body  # the per-line pass holds the text and its lines only
    return TimeSeries(_parse_lines(path, text))


def _load(path):
    """The file as one finite float64 per line, or None if it is not."""
    try:
        values = np.loadtxt(path, comments=None, ndmin=2, encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[0] < 1 or values.shape[1] != 1:
        return None
    return values[:, 0] if np.isfinite(values).all() else None


def _parse_lines(path, text):
    """The text as float64 values, one per data line, in one pass.

    Each line is stripped; blank and '#' lines are skipped; every other
    line must be one finite float().  The first that is not raises a
    ValueError naming its line, and text with no data line raises too.
    """
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
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
        values.append(value)
    if not values:
        raise ValueError(f"no data in {path}")
    return np.array(values)


def _typed(convert):
    """An argparse type: ``convert``, its ValueError a usage error."""
    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


# --seed: an integer in [0, 2**63); --levels, --n: comma lists
_seed_arg = _typed(lambda text: check_seed(int(text), "seed"))
_levels_arg = _typed(lambda text: tuple(map(float, text.split(","))))
_n_arg = _typed(lambda text: tuple(map(int, text.split(","))))


def _write(text, out=None):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out):
    """Raise now what ``open(out, "w")`` would if out's directory is missing."""
    if out and not os.path.exists(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


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
        table = CriticalValueTable.from_json(_read_text(args.cv))
        table.check_matches(spec.hurst, spec.window)
        return table, "file"
    return critical_values(spec), "simulated"


def cmd_test(parser, args):
    spec = _limit_spec(parser, args, levels=(args.level,))
    series = read_series(args.input)
    spec.window.split_range(series.n)  # too short: fails before simulating
    _check_out(args.out)
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
    _check_out(args.out)
    values = sample_fgn(build_sampler(params), args.seed)
    np.savetxt(args.out, values, fmt="%.17g")
    _emit(
        {"out": args.out, "hurst": args.hurst, "length": args.length,
         "seed": args.seed}
    )
    return 0


def cmd_critical_values(parser, args):
    spec = _limit_spec(parser, args, grid_size=args.grid,
                       replications=args.reps, levels=args.levels)
    _check_out(args.out)
    _write(critical_values(spec).to_json(), args.out)
    return 0


def cmd_experiment(parser, args):
    kind = _KIND_ALIASES[args.kind]
    limit_spec = _limit_spec(parser, args, levels=(args.level,))
    specs = [
        _spec(
            parser, ExperimentSpec,
            kind=kind, hurst=args.hurst, n=n, replications=args.reps,
            delta=args.delta,
            tau=args.tau, c=args.c, level=args.level,
            window=limit_spec.window, master_seed=args.seed,
        )
        for n in args.n
    ]
    _check_out(args.out)
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
    sub.add_argument("--tau1", type=float, default=TestWindow.tau1,
                     help="lower trimming fraction (default %(default)s)")
    sub.add_argument("--tau2", type=float, default=TestWindow.tau2,
                     help="upper trimming fraction (default %(default)s)")


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
    # the name-to-subparser map argparse fills as each one is added
    parser._command_parsers = commands.choices

    sub = commands.add_parser("test", allow_abbrev=False,
                              help="test a series for a mean change")
    sub.add_argument("--input", required=True, help="file, one value per line")
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--level", type=float, default=ExperimentSpec.level)
    _add_window_flags(sub)
    sub.add_argument("--cv", help="critical-value table JSON (else simulated)")
    sub.add_argument("--seed", type=_seed_arg,
                     help="seed for simulated critical values")
    sub.add_argument("--out", help="write the JSON verdict here instead of stdout")
    sub.set_defaults(handler=cmd_test)

    sub = commands.add_parser("generate-fgn", allow_abbrev=False,
                              help="sample fGn to a file")
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0, 1)")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=cmd_generate_fgn)

    sub = commands.add_parser("critical-values", allow_abbrev=False,
                              help="simulate limit-distribution quantiles")
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--grid", type=int, default=LimitSimSpec.grid_size)
    sub.add_argument("--reps", type=int, default=LimitSimSpec.replications)
    _add_window_flags(sub)
    sub.add_argument("--levels", type=_levels_arg, default=LimitSimSpec.levels)
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--out", help="write the table JSON here instead of stdout")
    sub.set_defaults(handler=cmd_critical_values)

    sub = commands.add_parser("experiment", allow_abbrev=False,
                              help="Monte Carlo experiment")
    sub.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES))
    sub.add_argument("--hurst", type=float, help="Hurst parameter in (0.5, 1)")
    sub.add_argument("--n", type=_n_arg, required=True,
                     help="series length, or comma list for sweeps")
    sub.add_argument("--delta", type=float, default=ExperimentSpec.delta,
                     help="shift height (power/consistency)")
    sub.add_argument("--tau", type=float, default=ExperimentSpec.tau,
                     help="change fraction (default %(default)s)")
    sub.add_argument("--c", type=float, default=ExperimentSpec.c,
                     help="local-alternative scale: shift c * n^(H-1)")
    sub.add_argument("--level", type=float, default=ExperimentSpec.level)
    sub.add_argument("--reps", type=int, default=5000)
    _add_window_flags(sub)
    sub.add_argument("--seed", type=_seed_arg)
    sub.add_argument("--cv", help="critical-value table JSON (else simulated)")
    sub.add_argument("--out", help="write results here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="file format for --out (default csv)")
    sub.set_defaults(handler=cmd_experiment)

    sub = commands.add_parser("reproduce-tables", allow_abbrev=False,
                              help="emit the standard study tables")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="replication-count multiplier (floor 200)")
    _add_window_flags(sub)
    sub.add_argument("--seed", type=_seed_arg)
    sub.set_defaults(handler=cmd_reproduce_tables)

    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses: one per process, built on first use."""
    return build_parser()


# JSON types a config value cannot take: no flag is boolean or structured
_NOT_SCALAR = {bool: "a boolean", list: "an array", dict: "an object"}


def _options(sub):
    return {action.dest: action for action in sub._actions
            if action.default is not argparse.SUPPRESS}


def _apply_config(parser, args, argv):
    """Re-parse ``argv`` with the --config values as subcommand defaults.

    The file must hold one JSON object, no key given twice.  Every key
    must name an option of some subcommand, and every non-null value must
    be a JSON string or number.  Each value for an option of this
    subcommand is parsed as its flag's command-line text; argparse then
    keeps a typed flag over it.  Options of other subcommands are
    ignored, so one file can serve several subcommands.  The re-parse
    runs on a parser of its own, so the values never become defaults of
    ``parser``.
    """
    if not args.config:
        return args
    text = _read_text(args.config)
    try:
        config = json.loads(
            text, object_pairs_hook=_unique_keys(f"bad config {args.config}:"))
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
    fresh = build_parser()
    fresh._command_parsers[args.command].set_defaults(**defaults)
    return fresh.parse_args(argv)


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
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        # not required=True: a config file may supply it
        if hasattr(args, "hurst") and args.hurst is None:
            parser.error("--hurst is required")
        if args.seed is None:
            args.seed = random.SystemRandom().getrandbits(63)
        return args.handler(parser, args)
    except (OSError, ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
