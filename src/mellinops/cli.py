"""Command-line front end.

Subcommands: transform | parse | koszul | verify | moments | expand.

Exit codes are part of the contract:

    0  success (all requested checks passed)
    1  a check ran but did not pass
    2  operator text did not parse
    3  algebra mismatch (mixed or wrong-side generators)
    4  truncation window overflow
    5  annihilation guard failed
    6  quadrature failure
    7  usage or configuration error (bad argument or config value, unreadable
       config file, unwritable output path)

Run configuration comes from an optional key=value file (``--config``) with
flag overrides.  Recognized keys: n_max, quad_tol, check_tol, grid_start,
grid_stop, grid_count, grid_imag, function, output.  Reports are
JSON with sorted keys and no timestamps, so identical runs produce identical
bytes on one platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    MixedAlgebra,
    ParseError,
    PreconditionFailed,
    QuadratureFailure,
    TruncationOverflow,
)
from .koszul import koszul_reduce
from .numerics import (
    ABS_TOL,
    asymptotic_remainder_check,
    epsilon_commutation_check,
    moment_table,
    parameter_expansion,
    stokes_identity_check,
    verify_commutation,
)
from .syntax import format_operator, parse
from .testfunctions import BUILTIN_NAMES, build_builtin
from .transform import inverse_mellin_op, mellin_op

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_ALGEBRA = 3
EXIT_TRUNCATION = 4
EXIT_GUARD = 5
EXIT_QUADRATURE = 6
EXIT_USAGE = 7


@dataclass
class RunConfig:
    """Run parameters shared by the report-producing subcommands."""

    n_max: int = 12
    quad_tol: float = ABS_TOL
    check_tol: float = 1e-8
    grid_start: float = 0.5
    grid_stop: float = 3.0
    grid_count: int = 20
    grid_imag: float = 0.0
    function: str = "gamma"
    output: str | None = None

    def validate(self):
        if self.n_max < 4:
            raise TruncationOverflow(f"truncation window n_max={self.n_max} is below 4")
        if self.quad_tol <= 0 or self.check_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.grid_count < 1:
            raise ValueError("grid count must be at least 1")
        return self

    def s_grid(self):
        if self.grid_count == 1:
            return (complex(self.grid_start, self.grid_imag),)
        step = (self.grid_stop - self.grid_start) / (self.grid_count - 1)
        return tuple(
            complex(self.grid_start + i * step, self.grid_imag)
            for i in range(self.grid_count)
        )

    def echo(self):
        return {
            "n_max": self.n_max,
            "quad_tol": self.quad_tol,
            "check_tol": self.check_tol,
            "grid": [self.grid_start, self.grid_stop, self.grid_count, self.grid_imag],
            "function": self.function,
        }


_CONFIG_TYPES = {
    "n_max": int,
    "quad_tol": float,
    "check_tol": float,
    "grid_start": float,
    "grid_stop": float,
    "grid_count": int,
    "grid_imag": float,
    "function": str,
    "output": str,
}


def load_config(path=None, overrides=None):
    cfg = RunConfig()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (x.strip() for x in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, _CONFIG_TYPES[key](value))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _emit_report(report, cfg, stream):
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


def _cmd_transform(args, stream):
    if args.inverse:
        op = parse(args.expr, algebra="S")
        print(format_operator(inverse_mellin_op(op)), file=stream)
    else:
        op = parse(args.expr, algebra="D")
        print(format_operator(mellin_op(op)), file=stream)
    return 0


def _cmd_parse(args, stream):
    op = parse(args.expr, algebra=args.algebra)
    print(format_operator(op), file=stream)
    return 0


def _cmd_koszul(args, cfg, stream):
    if args.N is not None:
        cfg.n_max = args.N
        cfg.validate()
    i_set = _parse_index_set(args.I)
    j_set = _parse_index_set(args.J)
    report = koszul_reduce(i_set, j_set, cfg.n_max)
    _emit_report(report.to_dict(), cfg, stream)
    return 0 if (report.matches_prediction and report.checks_passed) else EXIT_FAIL


def _cmd_verify(args, cfg, stream):
    op = parse(args.operator, algebra="D")
    f = build_builtin(args.function or cfg.function)
    report = verify_commutation(
        op, f, cfg.s_grid(), tol=cfg.check_tol, quad_tol=cfg.quad_tol
    )
    _emit_report(report.to_dict(), cfg, stream)
    return 0 if report.verdict else EXIT_FAIL


def _cmd_moments(args, cfg, stream):
    f = build_builtin(args.function or cfg.function)
    s = complex(args.s, cfg.grid_imag)
    table = moment_table(f, args.kmax, s, cfg.quad_tol)
    floor = max(abs(v) for v in table.inf_side + table.zero_side)
    checks = []
    ok = True
    for k in range(args.kmax + 1):
        rep = stokes_identity_check(
            f, k, s, tol=1e-6, quad_tol=cfg.quad_tol, scale_floor=floor
        )
        checks.append(rep.to_dict())
        ok &= rep.verdict
    if args.remainders:
        rem = asymptotic_remainder_check(f, args.order, (10.0, 20.0, 40.0), s=s)
        checks.append(rem.to_dict())
        ok &= rem.verdict
    if args.commutation:
        com = epsilon_commutation_check(f, s, args.kmax, tol=1e-6, quad_tol=cfg.quad_tol)
        checks.append(com.to_dict())
        ok &= com.verdict
    _emit_report({"moments": table.to_dict(), "checks": checks}, cfg, stream)
    return 0 if ok else EXIT_FAIL


_EXPAND_FAMILIES = {
    "geometric": lambda t, T: np.exp(-np.asarray(t, dtype=complex)) / (1.0 - T),
    "linear": lambda t, T: np.exp(-np.asarray(t, dtype=complex)) * T,
    "power2": lambda t, T: np.asarray(t, dtype=complex) ** 2 / (1.0 - T),
}


def _cmd_expand(args, cfg, stream):
    result = parameter_expansion(
        _EXPAND_FAMILIES[args.function],
        center=complex(args.T0),
        radius=args.R,
        alpha_max=args.alpha_max,
        recon_tol=cfg.check_tol,
    )
    _emit_report(result.to_dict(), cfg, stream)
    return 0 if (result.bound_ok and result.reconstruction_ok) else EXIT_FAIL


def _parse_index_set(text):
    text = (text or "").strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.replace(",", " ").split())


# -- entry point -----------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mellinops",
        description="Exact operator transforms, tail-series reductions, and "
        "quadrature verification runs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("--output", help="write the JSON report to this path")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="map operator text across the correspondence")
    p.add_argument("expr")
    p.add_argument("--inverse", action="store_true", help="map from the shift side back")

    p = sub.add_parser("parse", help="parse and reprint in canonical form")
    p.add_argument("expr")
    p.add_argument("--algebra", choices=["D", "S", "Dtilde"], default=None)

    p = sub.add_parser("koszul", parents=[common],
                       help="run a tail-series reduction for a partition")
    p.add_argument("--I", default="", help="comma-separated zero-type variables")
    p.add_argument("--J", default="", help="comma-separated infinity-type variables")
    p.add_argument("--N", type=int, default=None, help="truncation window top")

    p = sub.add_parser("verify", parents=[common],
                       help="commutation check for an annihilating pair")
    p.add_argument("operator")
    p.add_argument("--function", default=None, choices=list(BUILTIN_NAMES))

    p = sub.add_parser("moments", parents=[common],
                       help="moment table plus transport identities")
    p.add_argument("--function", default="mode2", choices=list(BUILTIN_NAMES))
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--remainders", action="store_true")
    p.add_argument("--order", type=int, default=2, help="remainder expansion order")
    p.add_argument("--commutation", action="store_true")

    p = sub.add_parser("expand", parents=[common],
                       help="disc-coefficient extraction and bounds")
    p.add_argument("--function", default="geometric", choices=sorted(_EXPAND_FAMILIES))
    p.add_argument("--T0", type=float, default=0.0)
    p.add_argument("--R", type=float, default=0.5)
    p.add_argument("--alpha-max", dest="alpha_max", type=int, default=12)

    return ap


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in ("transform", "parse"):
            handler = _cmd_transform if args.command == "transform" else _cmd_parse
            return handler(args, stream)
        cfg = load_config(getattr(args, "config", None), {"output": getattr(args, "output", None)})
        if args.command == "koszul":
            return _cmd_koszul(args, cfg, stream)
        if args.command == "verify":
            return _cmd_verify(args, cfg, stream)
        if args.command == "moments":
            return _cmd_moments(args, cfg, stream)
        if args.command == "expand":
            return _cmd_expand(args, cfg, stream)
        raise AssertionError("unreachable")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MixedAlgebra, IndexOutOfRange) as exc:
        print(f"algebra error: {exc}", file=sys.stderr)
        return EXIT_ALGEBRA
    except TruncationOverflow as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except PreconditionFailed as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except QuadratureFailure as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its key; print the message itself
        print(f"usage error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
