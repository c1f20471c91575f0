import ast
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mellinops
from mellinops import TestFunction, build_builtin, cli, numerics, stokes_identity_check, testfunctions
from mellinops.cli import (
    EXIT_ALGEBRA,
    EXIT_FAIL,
    EXIT_GUARD,
    EXIT_PARSE,
    EXIT_QUADRATURE,
    EXIT_TRUNCATION,
    EXIT_USAGE,
    RunConfig,
    load_config,
    main,
)
from mellinops.ore import MAX_INDEX
from mellinops.syntax import MAX_EXPONENT


def run(argv):
    out = io.StringIO()
    code = main(argv, stream=out)
    return code, out.getvalue()


def test_transform_forward():
    code, out = run(["transform", "t*th + t"])
    assert code == 0 and out.strip() == "-tau*s + tau"


def test_transform_trivial():
    code, out = run(["transform", "1"])
    assert code == 0 and out.strip() == "1"


def test_transform_inverse():
    code, out = run(["transform", "--inverse", "tau"])
    assert code == 0 and out.strip() == "t"


def test_parse_roundtrip_command():
    code, out = run(["parse", "th*t"])
    assert code == 0 and out.strip() == "t*th + t"


def test_parse_error_exit_code():
    code, _ = run(["transform", "t*+th"])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("argv, offset", [(["parse", "1/0"], 0), (["transform", "t*3/00"], 2)])
def test_a_zero_denominator_is_a_parse_error_at_its_literal(capsys, argv, offset):
    assert run(argv) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == f"parse error: zero denominator (offset {offset})\n"


def test_an_exponent_above_the_bound_is_refused_before_any_product(capsys):
    # a power is that many products: this one would run until killed
    start = time.perf_counter()
    assert run(["parse", "t^99999999999999999999999"]) == (EXIT_PARSE, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"parse error: exponent above {MAX_EXPONENT} (offset 2)\n"
    assert run(["parse", f"t^{MAX_EXPONENT}"]) == (0, f"t^{MAX_EXPONENT}\n")


@pytest.mark.parametrize("text, offset", [
    ("t_" + "1" * 5000, 0),
    ("7" * 5000 + "/3", 0),
    ("t + 3/" + "7" * 5000, 4),
    ("t^" + "7" * 5000, 2),
], ids=["index", "numerator", "denominator", "exponent"])
def test_an_integer_too_long_to_convert_is_a_parse_error_at_its_token(capsys, text, offset):
    # more digits than int() converts (4300 by default)
    assert run(["parse", text]) == (EXIT_PARSE, "")
    assert capsys.readouterr().err == f"parse error: integer literal too long (offset {offset})\n"


def test_algebra_mismatch_exit_code():
    code, _ = run(["transform", "tau + t"])
    assert code == EXIT_ALGEBRA
    code, _ = run(["transform", "s"])  # shift-side text on the forward map
    assert code == EXIT_ALGEBRA
    # test functions have one variable: a p=2 operator is a mismatch, not a
    # failed annihilation guard
    code, _ = run(["verify", "th_2 + t_2", "--function", "gamma"])
    assert code == EXIT_ALGEBRA


def test_koszul_verdicts(tmp_path):
    out_file = tmp_path / "k.json"
    code, _ = run(["koszul", "--I", "", "--J", "1", "--N", "12", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["report"]["verdict"] == "acyclic"

    code, _ = run(["koszul", "--I", "1", "--J", "", "--N", "12", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["report"]["verdict"] == "h0"
    assert payload["report"]["extraction_index"] == [1]

    code, _ = run(["koszul", "--I", "1", "--J", "2", "--N", "8"])
    assert code == 0


# sha256 of the stdout of each koszul command: the reports the exact layer must
# keep byte for byte while it is made faster
KOSZUL_GOLDEN = [
    ("--I 1,2 --J 3 --N 12", "95d910c8b442c7a80fe12f3f75b1c86cbca19f32194519920203910826787c0c"),
    ("--I 1,2,3 --N 12", "6aabbed865c2851ac8d75bfe1bf5c02597f807d6a51ec721e65bb583c052245b"),
    ("--I 1 --N 48", "2f912967f223a71ea7ff3dac132a94fc4b6989559939816d5f1f7e1fdec03a9e"),
    ("--I 2 --J 1,3 --N 9", "99c501b0e3a78161b4599bccc5fb1adbdca684fa9f501fda3267b87b9e56bdf9"),
    ('--I "" --J 1,2 --N 14', "6a8884ad4b26f87461c7b1eae956e719f60b452d41bca1863a8f775f63a46b1b"),
]


@pytest.mark.parametrize("args, digest", KOSZUL_GOLDEN)
def test_koszul_report_bytes_are_pinned(args, digest):
    code, out = run(["koszul", *shlex.split(args)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# operator products with halves and thirds in one to three variables: D texts
# go through transform and parse, S texts through the inverse transform and
# parse on the shift side
CANONICAL_D = [
    "(1/2*th + t)^3*(tinv - 2/3*th)^2",
    "(th - 1/3)^4*(t + 3/2*tinv)^2",
    "(-3/2*t*th + 1/2)^3*(th + tinv)",
    "(2/3*t^2 - th^2)^2*(1/2*tinv*th + 1)^2",
    "(1/2*th_1 + t_2)^3*(tinv_1 - 2/3*th_2)^2",
    "(th_1 + th_2 - 1/3*t_1*t_2)^3*(t_1 - 1/2*tinv_2)",
    "(3/2*t_1*th_2 + 1/2*t_2*th_1)^3",
    "(1/2*th_1 + t_2 - 1/3*th_3)^2*(tinv_3 + 3/2*th_2)^2",
    "(t_1*th_3 - 2/3*t_3*th_1)^3*(1/2*tinv_2 + th_2)",
    "(th_1 + 1/2*th_2 + 1/3*th_3 + t_1*t_2*t_3)^3",
]
CANONICAL_S = [text.replace("th", "s").replace("t", "tau") for text in CANONICAL_D]
CANONICAL_ARGVS = (
    [[*cmd, text] for text in CANONICAL_D for cmd in (["transform"], ["parse"])]
    + [[*cmd, text] for text in CANONICAL_S
       for cmd in (["transform", "--inverse"], ["parse", "--algebra", "S"])]
)


def test_canonical_text_bytes_are_pinned():
    # sha256 of the stdout of all 40 commands in order: the canonical text the
    # operator products must keep byte for byte while they are made faster
    digest = hashlib.sha256()
    for argv in CANONICAL_ARGVS:
        code, out = run(argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == "f0101220fade973797e94d46febb5f7c303a67739b2aa8deb08e55204541407b"


# combined-algebra products in one to three variables: both sides in one word,
# inverse generators, and halves and thirds among the coefficients
CANONICAL_DTILDE = [
    "(1/2*th + tau)^3*(tinv - 2/3*s)^2",
    "(s*t - 1/3*th*tau)^3*(tauinv + th)",
    "(th + s)^2*(tauinv + 3/2*t)^2*(tinv - tau)",
    "(-3/2*t*s + 1/2*tau*th)^2*(tauinv*tinv + 1)^2",
    "(1/2*th_1 + tau_2)^3*(tinv_1 - 2/3*s_2)^2",
    "(s_1 + th_2 - 1/3*t_1*tau_2)^3*(tauinv_1 - 1/2*tinv_2)",
    "(3/2*tau_1*th_2 + 1/2*t_2*s_1)^3*(tinv_1 + tauinv_2)",
    "(1/2*th_1 + tau_2 - 1/3*s_3)^2*(tinv_3 + 3/2*th_2 - tauinv_1)^2",
    "(t_1*s_3 - 2/3*tau_3*th_1)^3*(1/2*tauinv_2 + th_2)",
    "(th_1 + 1/2*s_2 + 1/3*th_3 + t_1*tau_2*tinv_3)^3",
]


def test_combined_algebra_text_bytes_are_pinned():
    # sha256 of the stdout of `parse --algebra Dtilde` on each text in order:
    # the slot order t, th, tau, s of a combined monomial, byte for byte
    digest = hashlib.sha256()
    for text in CANONICAL_DTILDE:
        code, out = run(["parse", "--algebra", "Dtilde", text])
        assert code == 0, text
        digest.update(out.encode())
    assert digest.hexdigest() == "e78a7b2daeed9dfc45a6f45ade674b0741d2716e13169347562130d51910a447"


def test_koszul_truncation_exit_code():
    code, _ = run(["koszul", "--I", "1", "--J", "", "--N", "2"])
    assert code == EXIT_TRUNCATION


def test_verify_gamma_and_guard(tmp_path):
    out_file = tmp_path / "v.json"
    code, _ = run(["verify", "th + t", "--function", "gamma", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["report"]["verdict"] is True
    assert payload["report"]["operator"] == "t + th"

    code, _ = run(["verify", "th + t", "--function", "gaussian"])
    assert code == EXIT_GUARD


def test_verify_bessel():
    code, _ = run(["verify", "th + t - tinv", "--function", "bessel"])
    assert code == 0


def test_moments_report(tmp_path):
    out_file = tmp_path / "m.json"
    code, _ = run(["moments", "--function", "mode2", "--kmax", "3", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["report"]["moments"]["k_max"] == 3
    assert len(payload["report"]["checks"]) == 4


def test_moments_zero_function_all_zeros():
    # a pure angular mode has no coupling at mismatched orders: the table
    # rows away from k=2 vanish
    code, out = run(["moments", "--function", "mode2", "--kmax", "3"])
    assert code == 0
    payload = json.loads(out)
    inf_side = payload["report"]["moments"]["inf_side"]
    assert abs(inf_side[1][0]) < 1e-10 and abs(inf_side[2][0]) > 1e-3


def test_moments_quadrature_failure_exit_code():
    # ray-only decay cannot back a Haar-measure table
    code, _ = run(["moments", "--function", "gamma", "--kmax", "2"])
    assert code == EXIT_QUADRATURE


VERIFY_FAILURES = {  # config: the first failing point and its own message
    # no ray-decay certificate below Re s = 0
    "grid_start = -0.5\ngrid_stop = 0.5\n": "((-0.5+0j),): gamma: no ray-decay certificate at Re s = -0.5",
    # the ray transform's finest level pair cannot judge Im s = 60
    "grid_imag = 60\n": "((0.5+60j),): the ray lattice resolves |Im s| <= 35.26 only",
    # t^(s-1) overflows on the ray: the sums are NaN
    "grid_stop = 200\ngrid_count = 3\n": "((100.25+0j),): quadrature increment nan is not finite",
}


@pytest.mark.parametrize("config", VERIFY_FAILURES)
def test_verify_grid_function_failure_exit_code(tmp_path, capsys, config):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    code, out = run(["verify", "th + t", "--function", "gamma", "--config", str(cfg_file)])
    assert code == EXIT_QUADRATURE and out == ""
    message = f"quadrature failure: grid function failed at {VERIFY_FAILURES[config]}\n"
    assert capsys.readouterr().err == message


# (arguments, config file) of verify commands: the three acceptance pairs on the
# default grid, Gamma off the real line, and a grid whose every ray point s has
# s - 1 real and integral
VERIFY_GOLDEN = [
    (["th + t", "--function", "gamma"], ""),
    (["th + 2*t^2", "--function", "gaussian"], ""),
    (["th + t - tinv", "--function", "bessel"], ""),
    (["th + t", "--function", "gamma"], "grid_imag = 1.5\n"),
    (["th + t - tinv", "--function", "bessel"], "grid_start = -2\ngrid_stop = 4\ngrid_count = 7\n"),
]


def test_verify_report_bytes_are_pinned(tmp_path):
    # sha256 of the stdout of the commands in order: the numeric reports the
    # ray transform must keep byte for byte while it is made faster
    cfg_file = tmp_path / "run.cfg"
    digest = hashlib.sha256()
    for argv, config in VERIFY_GOLDEN:
        cfg_file.write_text(config)
        code, out = run(["verify", *argv, "--config", str(cfg_file)])
        assert code == 0, (argv, config)
        digest.update(out.encode())
    assert digest.hexdigest() == "1cee7ecf3fdf205c4dba154e4281025f68519e143826c057f266a92b0764b734"


# moments commands whose tails are refined one number at a time: the remainder
# orders of three functions, and one commutation table at s = 0.3
MOMENTS_GOLDEN = [
    ["--function", name, "--kmax", "4", "--remainders", "--order", str(n)]
    for name in ("mode3", "modeblend", "gaussblend") for n in (0, 2, 8, 12)
] + [["--function", "sep-modeblend", "--kmax", "8", "--s", "0.3", "--commutation"]]


def test_moments_report_bytes_are_pinned():
    # sha256 of the stdout of the commands in order
    digest = hashlib.sha256()
    for argv in MOMENTS_GOLDEN:
        code, out = run(["moments", *argv])
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == "3bfa38aef1ff18145e8452bea1f5854fe73cb8469e677b02c0709b14d580d721"


class _Periodic(TestFunction):
    """f(t, s) (1 + sin(2 pi s) / 10), whose ray transform F(s) (1 + sin(2 pi s) / 10)
    satisfies every difference equation with integer shifts that F does."""

    def __call__(self, t, s=0j):
        return super().__call__(t, s) * (1 + 0.1 * np.sin(2 * np.pi * np.asarray(s)))


@pytest.mark.parametrize("operator, function", [("th + t", "gamma"), ("th + 2*t^2", "gaussian")])
def test_verify_fails_a_transform_off_by_a_periodic_factor(monkeypatch, operator, function):
    monkeypatch.setattr(testfunctions, "build_builtin", lambda name: _Periodic(build_builtin(name).terms, name))
    code, out = run(["verify", operator, "--function", function])
    report = json.loads(out)["report"]
    assert max(report["relative_residuals"]) <= report["tolerance"]  # blind to the factor
    assert code == EXIT_FAIL and report["verdict"] is False
    assert max(report["closed_form_relative"]) > 0.05


@pytest.mark.parametrize(
    "argv, config",
    [
        (["th + t", "--function", "gamma"], ""),
        (["th + 2*t^2", "--function", "gaussian"], ""),
        (["th + t - tinv", "--function", "bessel"], ""),  # 2 K_s(2) has no stdlib form
        (["th + t", "--function", "gamma"], "grid_imag = 1.5\n"),  # nor Gamma off the real line
    ],
)
def test_verify_closed_form_column(tmp_path, argv, config):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    code, out = run(["verify", *argv, "--config", str(cfg_file)])
    report = json.loads(out)["report"]
    assert code == 0 and len(report["relative_residuals"]) == len(report["grid"]) == 20
    closed = report.get("closed_form_relative")
    if argv[-1] == "bessel" or config:
        assert closed is None
    else:
        assert len(closed) == 20 and max(closed) <= 1e-12


def test_expand_geometric(tmp_path):
    out_file = tmp_path / "e.json"
    code, _ = run(["expand", "--function", "geometric", "--R", "0.5", "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["report"]["reconstruction_ok"] is True
    assert payload["report"]["bound_ok"] is True


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["koszul", "--I", "1", "--J", "", "--N", "8", "--output", str(a)])
    run(["koszul", "--I", "1", "--J", "", "--N", "8", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


FRESH_PROCESS_ARGV = (
    ("moments", "--function", "modeblend", "--kmax", "8", "--remainders"),
    ("moments", "--function", "sep-modeblend", "--kmax", "6", "--commutation"),
    ("verify", "th + t", "--function", "gamma"),
)


@pytest.fixture(scope="module")
def fresh_process_runs():
    """(process, stdout, stderr) of two fresh CLI processes per argv, all started at once."""
    env = {**os.environ, "PYTHONPATH": str(Path(mellinops.__file__).parents[1])}
    procs = {argv: [subprocess.Popen([sys.executable, "-m", "mellinops.cli", *argv], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                    for _ in range(2)]
             for argv in FRESH_PROCESS_ARGV}
    return {argv: [(p, *p.communicate(timeout=120)) for p in pair] for argv, pair in procs.items()}


@pytest.mark.parametrize("argv", FRESH_PROCESS_ARGV)
def test_fresh_processes_write_identical_reports(fresh_process_runs, argv):
    (proc_a, out_a, err_a), (proc_b, out_b, err_b) = fresh_process_runs[argv]
    assert (proc_a.returncode, proc_b.returncode) == (0, 0), (err_a, err_b)
    assert out_a and out_a == out_b


@pytest.mark.parametrize("kmax", [12, 40])
def test_moments_of_unsettled_orders_never_pass(kmax):
    # modeblend has the angular orders 0..-5 only: every order past them is an
    # exact zero, not an unsettled quadrature, so the run passes with a small
    # error estimate; an order that does not settle still fails the table
    # (test_moment_table_of_an_unsettled_order_fails)
    code, out = run(["moments", "--function", "modeblend", "--kmax", str(kmax)])
    table = json.loads(out)["report"]["moments"]
    assert code == 0 and len(table["inf_side"]) == len(table["zero_side"]) + 1 == kmax + 1
    assert all(z == [0.0, 0.0] for z in table["inf_side"][6:] + table["zero_side"])
    assert table["error_estimate"] < 1e-12


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_max = 10\ngrid_count = 5\nfunction = gamma\n# comment\n")
    cfg = load_config(str(cfg_file))
    assert cfg.n_max == 10 and cfg.grid_count == 5 and cfg.function == "gamma"
    assert len(cfg.s_grid()) == 5

    code, _ = run(["verify", "th + t", "--config", str(cfg_file)])
    assert code == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "argv, config",
    [
        (["koszul", "--I", "1", "--J", "1"], None),
        (["koszul", "--I", "a"], None),
        (["verify", "th + t"], "grid_count = abc\n"),
        (["verify", "th + t"], "function = nosuch\n"),
        (["verify", "th + t"], "degree_bound = 12\n"),  # removed key
        (["verify", "th + t", "--config", "{tmp}/missing.conf"], None),
        (["koszul", "--I", "1", "--N", "6", "--output", "{tmp}"], None),  # a directory
    ],
)
def test_usage_error_exit_code(tmp_path, capsys, argv, config):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
        argv = argv + ["--config", str(cfg_file)]
    code, out = run(argv)
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "key, value",
    [("grid_start", "nan"), ("grid_stop", "inf"), ("grid_imag", "-inf"),
     ("quad_tol", "nan"), ("check_tol", "nan"), ("check_tol", "inf")],
)
def test_non_finite_config_values_exit_usage(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    code, out = run(["verify", "th + t", "--config", str(cfg_file)])
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err.startswith(f"usage error: {key} must be ")


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(grid_count=0).validate()
    with pytest.raises(ValueError):
        RunConfig(quad_tol=-1.0).validate()
    grid = RunConfig(grid_start=0.5, grid_stop=3.0, grid_count=20, grid_imag=0.25).s_grid()
    assert len(grid) == 20
    assert grid[0] == 0.5 + 0.25j and grid[-1] == 3.0 + 0.25j


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--kmax", "abc"],  # malformed flag value
        ["nosuch"],  # unknown subcommand
        ["verify", "th + t", "--function", "nosuch"],  # not a choice
        ["koszul", "--N"],  # missing flag value
    ],
)
def test_argument_errors_exit_usage(capsys, argv):
    code, out = run(argv)
    assert code == EXIT_USAGE and out == ""
    assert "error: " in capsys.readouterr().err


def test_repeated_calls_in_one_process_leak_no_state(tmp_path, capsys):
    # the parser is built once per process and shared by every call
    assert cli.build_parser() is cli.build_parser()
    code, out = run(["moments", "--kmax", "2"])
    assert code == 0 and json.loads(out)["config"]["function"] == "mode2"
    code, out = run(["verify", "th + t"])
    assert code == 0 and json.loads(out)["report"]["function"] == "gamma"
    path = tmp_path / "report.json"
    code, out = run(["expand", "--output", str(path)])
    assert code == 0 and path.read_text(encoding="utf-8") == out
    path.unlink()
    assert run(["expand"])[0] == 0 and not any(tmp_path.iterdir())
    assert run(["parse", "--algebra", "S", "s*tau"]) == (0, "tau*s - tau\n")
    assert run(["parse", "th*t"]) == (0, "t*th + t\n")  # D, inferred again
    assert run(["moments", "--kmax", "x"]) == (EXIT_USAGE, "")
    assert "error: " in capsys.readouterr().err
    assert run(["transform", "t*th + t"]) == (0, "-tau*s + tau\n")


@pytest.mark.parametrize("argv", [["--help"], ["moments", "--help"]])
def test_help_returns_zero(capsys, argv):
    assert run(argv)[0] == 0
    assert "usage: mellinops" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, function",
    [
        (["verify", "th + t - tinv", "--function", "bessel"], "bessel"),
        (["moments", "--function", "mode2", "--kmax", "2"], "mode2"),
        (["moments", "--kmax", "2"], "mode2"),
        (["expand", "--function", "power2"], "power2"),
        (["expand"], "geometric"),
    ],
)
def test_echo_names_the_function_that_ran(argv, function):
    code, out = run(argv)
    payload = json.loads(out)
    assert code == 0 and payload["config"]["function"] == function
    if argv[0] != "expand":
        assert payload["report"].get("function", function) == function
        assert all(c["function"] == function for c in payload["report"].get("checks", []))


def test_config_function_runs_and_flag_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("function = radial\n")
    for argv, function in [([], "radial"), (["--function", "mode1"], "mode1")]:
        code, out = run(["moments", "--kmax", "2", "--config", str(cfg_file), *argv])
        payload = json.loads(out)
        assert code == 0 and payload["config"]["function"] == function
        assert {c["function"] for c in payload["report"]["checks"]} == {function}


def test_expand_config_function_must_be_a_family(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("function = gamma\n")
    code, out = run(["expand", "--config", str(cfg_file)])
    assert code == EXIT_USAGE and out == ""
    assert "'gamma'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, names", [
    (["verify", "th + t"], mellinops.BUILTIN_NAMES),
    (["moments", "--kmax", "2"], mellinops.BUILTIN_NAMES),
    (["expand"], ("geometric", "linear", "power2")),
])
@pytest.mark.parametrize("function", ["mode7", "mode-3", "nosuch"])
def test_config_function_follows_the_flags_rule(tmp_path, capsys, argv, names, function):
    # build_builtin reads any mode<k>; the flag and the file accept the same names
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"function = {function}\n")
    assert run(argv + ["--config", str(cfg_file)]) == (EXIT_USAGE, "")
    from_file = capsys.readouterr().err
    assert run(argv + ["--function", function]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == from_file == (
        f"usage error: {argv[0]} has no function {function!r}; choose from {', '.join(names)}\n")


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xff\xfen\x00_\x00m\x00a\x00x\x00")  # UTF-16 with its byte-order mark
    assert run(["koszul", "--I", "1", "--config", str(cfg_file)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == (f"usage error: cannot read config {cfg_file}: "
                                       "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("function", ["nosuch", "gamma"])
def test_a_koszul_config_may_not_set_the_function_it_never_reads(tmp_path, capsys, function):
    # a report that exits 0 echoes no function koszul was given but never read
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"n_max = 6\nfunction = {function}\n")
    assert run(["koszul", "--I", "1", "--config", str(cfg_file)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"usage error: {cfg_file}:2: this subcommand does not read 'function'\n"
    cfg_file.write_text("n_max = 6\n")
    code, out = run(["koszul", "--I", "1", "--config", str(cfg_file)])
    assert code == 0 and json.loads(out)["config"]["n_max"] == 6


@pytest.mark.parametrize("line, message", [
    ("n_max = 1e3", "n_max must be an int, got '1e3'"),
    ("grid_count = 2.5", "grid_count must be an int, got '2.5'"),
    ("quad_tol = abc", "quad_tol must be a float, got 'abc'"),
])
def test_a_config_value_that_does_not_convert_names_its_line(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"# run\n{line}\n")
    assert run(["verify", "th + t", "--config", str(cfg_file)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"usage error: {cfg_file}:2: {message}\n"


def test_the_default_quad_tol_is_the_numeric_layers():
    # RunConfig spells ABS_TOL itself, so that the parser loads no numpy
    assert RunConfig().quad_tol == numerics.ABS_TOL


NUMERIC_LAYER = ("numpy", "mellinops.numerics", "mellinops.quadrature", "mellinops.testfunctions")
HELP_RUNS = [[command, "--help"]
             for command in ("transform", "parse", "koszul", "verify", "moments", "expand")]
EXACT_RUNS = [["transform", "t"], ["parse", "th*t"], ["koszul", "--I", "1", "--N", "4"]] + HELP_RUNS


def test_exact_subcommands_and_help_load_no_numeric_layer():
    # a fresh interpreter on the package this test imports (the installed one
    # when no PYTHONPATH is set); verify then loads the numeric layer itself
    code = f"""if True:
        import contextlib, io, json, sys
        import mellinops
        from mellinops.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in {EXACT_RUNS!r}]
            loaded = sorted(set({NUMERIC_LAYER!r}) & set(sys.modules))
            verify = main(["verify", "th + t"])
        print(json.dumps([codes, loaded, verify]))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(mellinops.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(EXACT_RUNS), [], 0]


# what transform, parse and --help never run: the report encoder, dataclasses
# (and the inspect, ast and dis that it imports), the shift polynomials, the
# tail-series reductions and the numeric layer
TEXT_RUNS = [["transform", "t"], ["parse", "th*t"]] + HELP_RUNS
NOT_RUN_BY_TEXT = ("dataclasses", "inspect", "json", "mellinops.shiftpoly", "mellinops.series",
                   "mellinops.koszul") + NUMERIC_LAYER


def test_cold_start_of_transform_parse_and_help_loads_only_what_they_run():
    # a fresh interpreter, as in the test above; it reports through repr,
    # since json is among the modules it must not load
    code = f"""if True:
        import contextlib, io, sys
        from mellinops.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in {TEXT_RUNS!r}]
        print(repr([codes, sorted(set({NOT_RUN_BY_TEXT!r}) & set(sys.modules))]))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(mellinops.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [[0] * len(TEXT_RUNS), []]


def test_run_config_takes_its_keys_alone():
    assert RunConfig(n_max=6).n_max == 6 and RunConfig().n_max == 12
    with pytest.raises(TypeError, match="'nmax'"):
        RunConfig(nmax=6)


@pytest.mark.parametrize("command, names", [
    ("verify", cli.BUILTIN_NAMES),
    ("moments", cli.BUILTIN_NAMES),
    ("expand", ("geometric", "linear", "power2")),
])
def test_help_lists_every_function_name(capsys, command, names):
    assert run([command, "--help"]) == (0, "")
    assert "--function {" + ",".join(names) + "}\n" in capsys.readouterr().out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_each_exit_code_has_one_exception_type():
    assert [code for _, code, _ in cli._EXIT_TABLE] == list(range(EXIT_PARSE, EXIT_USAGE + 1))
    assert all(isinstance(exc_type, type) for exc_type, _, _ in cli._EXIT_TABLE)
    errors = list(_subclasses(mellinops.MellinopsError))
    for exc_type in errors:
        rows = [code for row_type, code, _ in cli._EXIT_TABLE if issubclass(exc_type, row_type)]
        assert len(rows) == 1, exc_type
    assert len(errors) == EXIT_QUADRATURE - EXIT_PARSE + 1


@pytest.mark.parametrize("kmax", [0, 1, 2])
def test_moments_of_a_mode_below_and_at_its_order_pass(kmax):
    # below order 2 every moment of mode2 vanishes, so both sides of each Stokes
    # identity are rounding, judged against the integral of |xi^k f|; an
    # exact zero prints as 0.0 whatever its sign (the zero side negates)
    code, out = run(["moments", "--function", "mode2", "--kmax", str(kmax)])
    assert "-0.0" not in out
    report = json.loads(out)["report"]
    table = report["moments"]["inf_side"] + report["moments"]["zero_side"]
    assert (max(abs(complex(*z)) for z in table) < 1e-15) == (kmax < 2)
    assert code == 0 and len(report["checks"]) == kmax + 1
    assert all(c["verdict"] and c["relative_residuals"][0] < 1e-12 for c in report["checks"])


@pytest.mark.parametrize("function, kmax", [("sep-mode2", 0), ("mode3", 1)])
def test_commutation_on_a_table_of_vanishing_moments_passes(function, kmax):
    # every compared entry is rounding, judged against the integrals of |xi^k f|
    code, out = run(["moments", "--function", function, "--kmax", str(kmax), "--commutation"])
    comm = json.loads(out)["report"]["checks"][-1]
    assert comm["operator"].startswith("expansion-map commutation")
    assert code == 0 and comm["verdict"] is True
    assert max(comm["relative_residuals"]) < 1e-12


def test_moments_remainders_on_a_single_mode_pass():
    code, out = run(["moments", "--function", "mode2", "--kmax", "8", "--remainders"])
    rem = json.loads(out)["report"]["checks"][-1]
    assert code == 0 and rem["verdict"] is True and rem["one_sided"] is True


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["moments", "--kmax", "-1"], EXIT_USAGE, "k_max"),
        (["moments", "--kmax", "2", "--remainders", "--order", "-3"], EXIT_USAGE, "order n"),
        (["expand", "--alpha-max", "-1"], EXIT_USAGE, "alpha_max"),
        (["expand", "--R", "0"], EXIT_USAGE, "radius"),
        (["expand", "--R", "1"], EXIT_QUADRATURE, "not finite"),
    ],
)
def test_bad_orders_and_radii_exit_with_a_named_cause(capsys, argv, code, message):
    assert run(argv) == (code, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["moments", "--function", "mode2", "--s", "nan", "--kmax", "2"],
    ["moments", "--function", "mode2", "--s", "inf", "--kmax", "2"],
    ["moments", "--function", "mode2", "--s=-inf", "--kmax", "2"],
    ["moments", "--function", "radial", "--s", "inf", "--kmax", "1", "--remainders"],
    ["moments", "--function", "sep-mode2", "--s", "nan"],
    ["expand", "--T0", "inf"],
    ["expand", "--T0", "nan"],
])
def test_non_finite_s_and_center_are_usage_errors(capsys, argv):
    assert run(argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("spaced, joined", [
    (["expand", "--T0", "-2e-1"], ["expand", "--T0=-2e-1"]),
    (["moments", "--kmax", "2", "--s", "-5e-1"], ["moments", "--kmax", "2", "--s=-5e-1"]),
])
def test_a_negative_number_in_exponent_notation_follows_its_flag(spaced, joined):
    # argparse of Python 3.10 and 3.11 took "-2e-1" for an option and exited 7
    result = run(spaced)
    assert result[0] == 0 and result == run(joined)


def test_negative_infinity_after_its_flag_is_a_usage_error(capsys):
    assert run(["moments", "--s", "-inf"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("usage error: ")


def test_docstring_matches_config_keys_and_exit_codes():
    doc = cli.__doc__
    keys = re.search(r"Recognized keys:\s+([^.]*)\.", doc).group(1)
    assert [k.strip() for k in keys.split(",")] == list(cli.RunConfig.__annotations__)
    table = {int(m) for m in re.findall(r"^    (\d)  ", doc, flags=re.MULTILINE)}
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert codes and codes | {0} <= table


@pytest.mark.parametrize("function, kmax, s", [("mode2", 4, 1.0), ("sep-modeblend", 3, 0.3)])
def test_moments_checks_equal_stokes_identity_check(function, kmax, s):
    code, out = run(["moments", "--function", function, "--kmax", str(kmax), "--s", str(s)])
    report = json.loads(out)["report"]
    f = build_builtin(function)
    want = [stokes_identity_check(f, k, complex(s)).to_dict() for k in range(kmax + 1)]
    assert code == 0 and report["checks"] == json.loads(json.dumps(want))


def test_moments_evaluates_f_and_its_derivative_once_per_level(monkeypatch):
    calls = []
    split = TestFunction.modes
    monkeypatch.setattr(TestFunction, "modes", lambda f, *a: calls.append(1) or split(f, *a))
    assert run(["moments", "--function", "mode2", "--kmax", "8"])[0] == 0
    assert len(calls) == 4  # the table of f and the derivative moments, two levels each


def test_moments_commutation_extends_the_runs_table(monkeypatch):
    calls = []
    split = TestFunction.modes
    monkeypatch.setattr(TestFunction, "modes", lambda f, *a: calls.append(1) or split(f, *a))
    argv = ["moments", "--function", "sep-modeblend", "--kmax", "8", "--commutation"]
    assert run(argv)[0] == 0
    # two levels each: f's table, the derivative moments, and the tables at
    # s + 1, of the Euler derivative and of the cycled function; not f's again
    assert len(calls) == 10


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["expand", "--alpha-max", "1074"], EXIT_USAGE, "alpha_max=1074 overflow at radius=0.5"),
        (["expand", "--R", "4", "--alpha-max", "600"], EXIT_USAGE, "alpha_max=600 overflow at radius=4.0"),
        (["koszul", "--I", "1", "--N", str(10 ** 20)], EXIT_TRUNCATION, "n_max=100000000000000000000"),
        # an index with no tuple of its length
        (["parse", f"t_{10 ** 23}"], EXIT_ALGEBRA, f"index {10 ** 23} not in 1..{MAX_INDEX}"),
        (["transform", f"th*t_{sys.maxsize}"], EXIT_ALGEBRA, f"index {sys.maxsize} not in 1..{MAX_INDEX}"),
        (["koszul", "--I", str(10 ** 20), "--N", "4"], EXIT_USAGE,
         f"variable index {10 ** 20} not in 1..{sys.maxsize - 1}"),
        (["koszul", "--I", "1", "--J", str(sys.maxsize), "--N", "4"], EXIT_USAGE,
         f"variable index {sys.maxsize} not in 1.."),
        # the largest index is the length of every exponent: 4 indices of 250001
        # entries are one window over koszul.MAX_ENTRIES
        (["koszul", "--I", "250001", "--N", "4"], EXIT_TRUNCATION,
         "truncation window of 4 indices of 250001 exponents (N=4) is above 1000000 entries"),
    ],
)
def test_overflowing_windows_and_orders_exit_with_a_named_cause(capsys, argv, code, message):
    assert run(argv) == (code, "")
    assert message in capsys.readouterr().err


# requests too large to hold: each must exit with its documented code before
# it allocates.  They run only in a child whose address space is capped at
# 1 GB, so that a lost bound ends in a MemoryError there and not here.
OVERSIZE_REQUESTS = [
    pytest.param(["koszul", "--I", "1,2,3", "--N", "400"], EXIT_TRUNCATION, id="koszul-window"),
    pytest.param(["moments", "--function", "mode1", "--kmax", "1000000"], EXIT_USAGE, id="kmax"),
    pytest.param(["verify", "th + t", "--config", "{config}"], EXIT_USAGE, id="grid-count"),
    pytest.param(["parse", "t_100000000"], EXIT_ALGEBRA, id="operator-index"),
    # a koszul index sets the length of every exponent, so the index alone and
    # a window of a few indices times a large one both overflow
    pytest.param(["koszul", "--I", "100000000", "--N", "4"], EXIT_TRUNCATION, id="koszul-index"),
    pytest.param(["koszul", "--I", "65536", "--N", "1000"], EXIT_TRUNCATION, id="koszul-entries"),
]


@pytest.mark.parametrize("argv, code", OVERSIZE_REQUESTS)
def test_oversize_requests_exit_at_once_with_their_code(tmp_path, argv, code):
    config = tmp_path / "grid.cfg"
    config.write_text("grid_count = 100000000\n")
    child = """if True:
        import resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from mellinops.cli import main
        start = time.perf_counter()
        code = main(sys.argv[1:])
        print(time.perf_counter() - start)
        sys.exit(code)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(mellinops.__file__).parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    argv = [arg.format(config=config) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) < 1.0


TOP_INDEX = sys.maxsize - 1  # a coefficient exponent holds max-index entries


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--I 0", f"variable index 0 not in 1..{TOP_INDEX}"),
        ("--I -1", f"variable index -1 not in 1..{TOP_INDEX}"),
        ("--I 2 --J 0", f"variable index 0 not in 1..{TOP_INDEX}"),
        (f"--I 1 --J {sys.maxsize}", f"variable index {sys.maxsize} not in 1..{TOP_INDEX}"),
        ("--I 1.5", "--I takes integer variable indices, got '1.5'"),
        ("--I 1,x", "--I takes integer variable indices, got 'x'"),
        ("--I 1 --J 2,a", "--J takes integer variable indices, got 'a'"),
        # more digits than int() converts: out of range, its token abbreviated
        pytest.param("--I 1" + "0" * 4400, f"variable index 1{'0' * 19}... not in 1..{TOP_INDEX}",
                     id="index-too-long-to-convert"),
    ],
)
def test_koszul_variable_index_errors_name_the_index(capsys, flags, message):
    # each index is judged once, against the one range of the top index
    assert run(["koszul", *shlex.split(flags), "--N", "4"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_expand_high_order_within_float_range_passes():
    code, out = run(["expand", "--alpha-max", "255"])
    assert code == 0 and "NaN" not in out and "Infinity" not in out


def test_expand_aliasing_order_exits_before_any_evaluation(capsys):
    # the order is judged before the ring is evaluated and its orders looped over
    start = time.perf_counter()
    assert run(["expand", "--function", "linear", "--R", "1", "--alpha-max", str(10 ** 7)]) == (EXIT_USAGE, "")
    assert time.perf_counter() - start < 1.0
    assert "alpha_max=10000000 aliases on the 256-node circle" in capsys.readouterr().err


@pytest.mark.parametrize("alpha_max", [256, 1000])
def test_expand_orders_that_alias_on_the_circle_are_usage_errors(capsys, alpha_max):
    # order alpha reads the same 256 ring samples as order alpha - 256
    assert run(["expand", "--alpha-max", str(alpha_max)]) == (EXIT_USAGE, "")
    assert f"alpha_max={alpha_max} aliases on the 256-node circle" in capsys.readouterr().err
