import io
import json

import pytest

from mellinops.cli import (
    EXIT_ALGEBRA,
    EXIT_GUARD,
    EXIT_PARSE,
    EXIT_QUADRATURE,
    EXIT_TRUNCATION,
    EXIT_USAGE,
    RunConfig,
    load_config,
    main,
)


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


@pytest.mark.parametrize(
    "config",
    [
        "grid_start = -0.5\ngrid_stop = 0.5\n",  # no ray-decay certificate below Re s = 0
        "grid_imag = 60\n",  # the ray transform does not settle
    ],
)
def test_verify_grid_function_failure_exit_code(tmp_path, capsys, config):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    code, out = run(["verify", "th + t", "--function", "gamma", "--config", str(cfg_file)])
    assert code == EXIT_QUADRATURE and out == ""
    assert capsys.readouterr().err.startswith("quadrature failure: grid function failed at ")


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


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(grid_count=0).validate()
    with pytest.raises(ValueError):
        RunConfig(quad_tol=-1.0).validate()
    grid = RunConfig(grid_start=0.5, grid_stop=3.0, grid_count=20, grid_imag=0.25).s_grid()
    assert len(grid) == 20
    assert grid[0] == 0.5 + 0.25j and grid[-1] == 3.0 + 0.25j
