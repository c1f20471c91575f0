"""Command-line front end.

Subcommands: transform | parse | koszul | verify | moments | expand.

The parser, ``transform`` and ``parse`` run on the exact operator layer alone,
without ``json``, ``dataclasses`` or the shift polynomials.  A handler imports
the rest of what it runs when it runs: ``koszul`` the tail-series reductions
(``shiftpoly``, ``series``), ``verify``, ``moments`` and ``expand`` the numeric
layer (``testfunctions``, ``quadrature``, ``numerics``, and numpy with them),
and every report subcommand ``json``.

Exit codes are part of the contract:

    0  success (all requested checks passed)
    1  a check ran but did not pass
    2  operator text did not parse, or has a zero denominator
    3  algebra mismatch (mixed or wrong-side generators, an index above the arity,
       or an index or arity above ``ore.MAX_INDEX``, 65536)
    4  truncation window overflow (n_max below 4, or too large to index, or a
       koszul window of more than ``koszul.MAX_WINDOW``, 10,000 indices: the
       product over the axes of N on a zero axis and N + 1 on an inf axis; a
       variable index sizes nothing)
    5  annihilation guard failed
    6  quadrature failure (unsettled estimate, no decay certificate, failed grid
       function, a non-finite ``expand`` sample)
    7  usage or configuration error (malformed argument, a koszul variable
       index that is not an integer in 1..``ore.MAX_INDEX``, bad config key or
       value, unreadable config file, unwritable output path, negative order,
       a ``grid_count`` outside 1..1000, a ``moments --kmax`` above 1000 or
       ``--order`` above 100 (``MAX_GRID_COUNT``, ``MAX_KMAX``, ``MAX_ORDER``),
       a non-finite ``moments --s``, a function the subcommand does not name;
       for ``expand``, a bad radius, a non-finite ``--T0``, an ``alpha_max``
       whose coefficients overflow at that radius, or one of 256 or more; in
       the library, a non-finite s or a zero or non-finite convolution ``t``)

Run configuration: RunConfig's defaults (``function``: gamma for verify, mode2
for moments, geometric for expand), then the optional key=value file
(``--config``), then the flags ``--N`` (n_max), ``--function`` and ``--output``.
``--function`` and the file's ``function`` accept the same names: the built-ins
of ``BUILTIN_NAMES`` for verify and moments, the three families for expand.
Recognized keys: n_max, quad_tol, check_tol, grid_start, grid_stop, grid_count,
grid_imag, function, output.  Reports are JSON with sorted keys and no
timestamps, so identical runs produce identical bytes on one platform.

Every report echoes the whole configuration, but not every subcommand reads all
of it.  ``verify`` reads the grid, function, quad_tol and check_tol.
``moments`` reads function, grid_imag and quad_tol (f's table and its checks);
it judges Stokes and commutation rows at a fixed 1e-6 and observed tail orders
against a fixed band of 0.5 at radii 20, 40 and 80, and its remainder check
ignores quad_tol (tails settle at a fixed 1e-13 relative).  ``expand`` reads
function and check_tol and ignores quad_tol.  ``koszul`` reads only n_max,
and its config file may not set ``function`` (a usage error).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache

from .errors import (
    MixedAlgebra,
    ParseError,
    PreconditionFailed,
    QuadratureFailure,
    TruncationOverflow,
)
from .ore import MAX_INDEX
from .syntax import format_operator, parse
from .transform import inverse_mellin_op, mellin_op

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_ALGEBRA = 3
EXIT_TRUNCATION = 4
EXIT_GUARD = 5
EXIT_QUADRATURE = 6
EXIT_USAGE = 7

# The largest sizes a request may set, each refused (exit 7) before any grid is
# built.  The workloads, tests and README use at most 24 grid points, kmax 40
# and order 12.  At the caps verify takes about 0.2 s and moments 0.3 s; a
# remainder order above 100 reads tails of 80^-(order + 1), which leaves the
# normal doubles from order 161 on.
MAX_GRID_COUNT = 1000
MAX_KMAX = 1000
MAX_ORDER = 100

# verify and moments read one of these; build_builtin also takes any mode<k>
BUILTIN_NAMES = (
    "gamma",
    "gaussian",
    "bessel",
    "radial",
    "mode1",
    "mode2",
    "mode3",
    "modeblend",
    "gaussblend",
    "sep-mode2",
    "sep-modeblend",
)


class RunConfig:
    """Run parameters shared by the report-producing subcommands: the annotated
    class attributes, in order, are the keys and their defaults."""

    n_max: int = 12
    quad_tol: float = 1e-10  # numerics.ABS_TOL, which a test ties to this one
    check_tol: float = 1e-8
    grid_start: float = 0.5
    grid_stop: float = 3.0
    grid_count: int = 20
    grid_imag: float = 0.0
    function: str = "gamma"
    output: str = ""

    def __init__(self, **values):
        for key, value in values.items():
            if key not in _CONFIG_TYPES:
                raise TypeError(f"RunConfig() got an unexpected keyword argument {key!r}")
            setattr(self, key, value)

    def validate(self):
        if self.n_max < 4:
            raise TruncationOverflow(f"truncation window n_max={self.n_max} is below 4")
        if self.n_max >= sys.maxsize:  # range(n_max + 1) has no length
            raise TruncationOverflow(
                f"truncation window n_max={self.n_max} is above {sys.maxsize - 1}")
        for key in ("quad_tol", "check_tol"):
            if not 0 < getattr(self, key) < math.inf:  # a NaN fails both comparisons
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)}")
        for key in ("grid_start", "grid_stop", "grid_imag"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not 1 <= self.grid_count <= MAX_GRID_COUNT:
            raise ValueError(f"grid_count must be in 1..{MAX_GRID_COUNT}, got {self.grid_count}")
        return self

    def s_grid(self):
        n = self.grid_count
        step = (self.grid_stop - self.grid_start) / (n - 1) if n > 1 else 0.0
        return tuple(complex(self.grid_start + i * step, self.grid_imag) for i in range(n))

    def echo(self):
        return {
            "n_max": self.n_max,
            "quad_tol": self.quad_tol,
            "check_tol": self.check_tol,
            "grid": [self.grid_start, self.grid_stop, self.grid_count, self.grid_imag],
            "function": self.function,
        }


_CONFIG_TYPES = {key: type(getattr(RunConfig, key)) for key in RunConfig.__annotations__}


def load_config(path=None, overrides=None, defaults=None, unread=()):
    """``defaults``, then the key=value file at ``path``, then non-None
    ``overrides``; a key of ``unread`` in the file is an error."""
    cfg = RunConfig(**(defaults or {}))
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (x.strip() for x in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in unread:
                raise ValueError(f"{path}:{lineno}: this subcommand does not read {key!r}")
            convert = _CONFIG_TYPES[key]
            try:
                setattr(cfg, key, convert(value))
            except ValueError:
                kind = "an int" if convert is int else "a float"  # str takes any text
                raise ValueError(f"{path}:{lineno}: {key} must be {kind}, got {value!r}") from None
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _emit_report(report, cfg, stream):
    import json

    payload = {"config": cfg.echo(), "report": report}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write output {cfg.output}: {exc.strerror}") from exc
    print(text, file=stream)


# -- subcommand handlers -------------------------------------------------------
# transform and parse return canonical text; the report subcommands take the
# run configuration and return (report dict, whether every check passed).


def _cmd_transform(args):
    if args.inverse:
        return format_operator(inverse_mellin_op(parse(args.expr, algebra="S")))
    return format_operator(mellin_op(parse(args.expr, algebra="D")))


def _cmd_parse(args):
    return format_operator(parse(args.expr, algebra=args.algebra))


def _cmd_koszul(args, cfg):
    from .koszul import koszul_reduce

    i_set, j_set = _parse_index_set(args.I, "--I"), _parse_index_set(args.J, "--J")
    report = koszul_reduce(i_set, j_set, cfg.n_max)
    return report.to_dict(), report.matches_prediction and report.checks_passed


def _function(args, cfg, names):
    """``cfg.function`` if it is one of ``names``; the flag and the file alike."""
    if cfg.function not in names:
        raise ValueError(f"{args.command} has no function {cfg.function!r}; "
                         f"choose from {', '.join(names)}")
    return cfg.function


def _builtin(args, cfg):
    from .testfunctions import build_builtin

    return build_builtin(_function(args, cfg, BUILTIN_NAMES))


def _cmd_verify(args, cfg):
    from .numerics import verify_commutation

    f, op = _builtin(args, cfg), parse(args.operator, algebra="D")
    report = verify_commutation(op, f, cfg.s_grid(), tol=cfg.check_tol, quad_tol=cfg.quad_tol)
    return report.to_dict(), report.verdict


# the radii over which tail orders are observed; from r = 20 on, the envelope's
# exp(-r) falls by e^-r < 2^-28 across a doubling, faster than the order
# n + 5 <= 17 of any tail after n <= 12 terms
_REMAINDER_RADII = (20.0, 40.0, 80.0)


def _cmd_moments(args, cfg):
    for flag, value, top in (("--kmax", args.kmax, MAX_KMAX), ("--order", args.order, MAX_ORDER)):
        if value > top:
            raise ValueError(f"{flag} {value} is above {top}")
    from .numerics import (asymptotic_remainder_check, epsilon_commutation_check, moment_table,
                           stokes_checks)

    f = _builtin(args, cfg)
    s = complex(args.s, cfg.grid_imag)
    table = moment_table(f, args.kmax, s, cfg.quad_tol)
    reports = stokes_checks(f, table)
    if args.remainders:
        reports.append(asymptotic_remainder_check(f, args.order, _REMAINDER_RADII, s=s))
    if args.commutation:
        reports.append(epsilon_commutation_check(f, table))
    checks = [rep.to_dict() for rep in reports]
    return {"moments": table.to_dict(), "checks": checks}, all(rep.verdict for rep in reports)


_EXPAND_FAMILIES = ("geometric", "linear", "power2")


def _cmd_expand(args, cfg):
    import numpy as np

    from .numerics import parameter_expansion

    family = dict(zip(_EXPAND_FAMILIES, (  # in the order of their names
        lambda t, T: np.exp(-np.asarray(t, dtype=complex)) / (1.0 - T),
        lambda t, T: np.exp(-np.asarray(t, dtype=complex)) * T,
        lambda t, T: np.asarray(t, dtype=complex) ** 2 / (1.0 - T),
    )))[_function(args, cfg, _EXPAND_FAMILIES)]
    result = parameter_expansion(
        family,
        center=complex(args.T0),
        radius=args.R,
        alpha_max=args.alpha_max,
        recon_tol=cfg.check_tol,
    )
    return result.to_dict(), result.bound_ok and result.reconstruction_ok


def _parse_index_set(text, flag):
    """The variable indices of ``flag``, separated by commas or spaces."""
    indices = []
    for token in text.replace(",", " ").split():
        try:
            indices.append(int(token))
        except ValueError:
            if token.lstrip("+-").isdecimal():  # more digits than int() converts
                raise ValueError(f"variable index {token[:20]}... not in 1..{MAX_INDEX}") from None
            raise ValueError(f"{flag} takes integer variable indices, got {token!r}") from None
    return tuple(indices)


# -- entry point -----------------------------------------------------------------


# Python 3.10 and 3.11 read only -5 and -.5 as negative numbers and take "-2e-1"
# or "-inf" after a flag for an option; every negative float literal is a value
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)


@cache
def build_parser():
    """The argument parser, built on first use and then shared by every call of
    :func:`main` in the process: parsing returns a fresh namespace and leaves
    no state in the parser.  (A shell invocation builds it once either way.)"""
    # Each subparser sets ``run``, its handler.  A flag whose dest is a RunConfig
    # field defaults to None and overrides the config file; a report
    # subcommand's own default for such a field goes in ``config_defaults``.
    ap = argparse.ArgumentParser(
        prog="mellinops",
        description="Exact operator transforms, tail-series reductions, and "
        "quadrature verification runs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("--output", help="write the JSON report to this path")
    common.set_defaults(config_defaults={}, config_unread=())
    sub = ap.add_subparsers(dest="command", required=True)
    # the accepted names of --function, printed as argparse prints choices;
    # the handlers check them, for the flag and the config file alike
    builtins, families = ("{" + ",".join(names) + "}" for names in (BUILTIN_NAMES, _EXPAND_FAMILIES))

    p = sub.add_parser("transform", help="map operator text across the correspondence")
    p.add_argument("expr")
    p.add_argument("--inverse", action="store_true", help="map from the shift side back")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("parse", help="parse and reprint in canonical form")
    p.add_argument("expr")
    p.add_argument("--algebra", choices=["D", "S", "Dtilde"], default=None)
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("koszul", parents=[common],
                       help="run a tail-series reduction for a partition")
    p.add_argument("--I", default="", help="comma-separated zero-type variables")
    p.add_argument("--J", default="", help="comma-separated infinity-type variables")
    p.add_argument("--N", dest="n_max", metavar="N", type=int, help="truncation window top")
    p.set_defaults(run=_cmd_koszul, config_unread=("function",))

    p = sub.add_parser("verify", parents=[common],
                       help="commutation check for an annihilating pair")
    p.add_argument("operator")
    p.add_argument("--function", metavar=builtins, help="default: gamma")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("moments", parents=[common],
                       help="moment table plus transport identities")
    p.add_argument("--function", metavar=builtins, help="default: mode2")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--remainders", action="store_true")
    p.add_argument("--order", type=int, default=2, help="remainder expansion order")
    p.add_argument("--commutation", action="store_true")
    p.set_defaults(run=_cmd_moments, config_defaults={"function": "mode2"})

    p = sub.add_parser("expand", parents=[common],
                       help="disc-coefficient extraction and bounds")
    p.add_argument("--function", metavar=families, help="default: geometric")
    p.add_argument("--T0", type=float, default=0.0)
    p.add_argument("--R", type=float, default=0.5)
    p.add_argument("--alpha-max", dest="alpha_max", type=int, default=12)
    p.set_defaults(run=_cmd_expand, config_defaults={"function": "geometric"})

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


# (exception type, exit code, stderr label): one type per code
_EXIT_TABLE = (
    (ParseError, EXIT_PARSE, "parse error"),
    (MixedAlgebra, EXIT_ALGEBRA, "algebra error"),
    (TruncationOverflow, EXIT_TRUNCATION, "truncation error"),
    (PreconditionFailed, EXIT_GUARD, "guard failure"),
    (QuadratureFailure, EXIT_QUADRATURE, "quadrature failure"),
    (ValueError, EXIT_USAGE, "usage error"),
)


def main(argv=None, stream=None):
    """Run one subcommand and return its exit code; never raises SystemExit."""
    stream = stream or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if "config" not in args:  # transform, parse: canonical text, no report
            print(args.run(args), file=stream)
            return 0
        overrides = {key: value for key, value in vars(args).items() if key in _CONFIG_TYPES}
        cfg = load_config(args.config, overrides, args.config_defaults, args.config_unread)
        report, passed = args.run(args, cfg)
        _emit_report(report, cfg, stream)
        return 0 if passed else EXIT_FAIL
    except SystemExit as exc:  # argparse has printed the help (0) or the argument error
        return EXIT_USAGE if exc.code else 0
    except tuple(t for t, _, _ in _EXIT_TABLE) as exc:
        code, label = next((c, lab) for t, c, lab in _EXIT_TABLE if isinstance(exc, t))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
