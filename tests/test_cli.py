"""Command-line interface: output format, exit codes, error records."""

import re
import subprocess
import sys

import pytest

from prepost import scenarios, scenfile
from prepost.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    # key-sorted `key = value` lines into a dict
    d = {}
    for line in out.strip().splitlines():
        key, sep, value = line.partition(" = ")
        assert sep, f"malformed output line: {line!r}"
        d[key] = value
    return d


def test_weakvalue_three_box_c(capsys):
    code, out, err = run_cli(
        capsys, "weakvalue", "builtin:three-box", "--obs", "C"
    )
    assert code == 0
    assert err == ""
    d = kv(out)
    assert list(d) == sorted(d)
    assert d["command"] == "weakvalue"
    assert d["scenario"] == "three-box"
    assert d["wv.re"] == "-1"
    assert d["wv.im"] == "0"
    assert d["wv.class"] == "STWV"
    assert abs(float(d["overlap.re"]) - 1.0 / 3.0) < 1e-12
    assert float(d["overlap.im"]) == 0.0


def test_weakvalue_hardy_n1_is_strange(capsys):
    code, out, _ = run_cli(capsys, "weakvalue", "builtin:hardy", "--obs", "N1")
    assert code == 0
    d = kv(out)
    assert d["wv.re"] == "-1"
    assert d["wv.class"] == "STWV"


def test_repeat_invocations_are_byte_identical(capsys):
    argv = ("weakvalue", "builtin:three-box", "--obs", "C")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_abl_three_box(capsys):
    code, out, _ = run_cli(
        capsys, "abl", "builtin:three-box", "--obs", "C", "--outcome", "1"
    )
    assert code == 0
    d = kv(out)
    assert d["outcome"] == "1"
    assert abs(float(d["abl"]) - 0.2) < 1e-12


def test_consistency_hardy_n1(capsys):
    code, out, _ = run_cli(
        capsys, "consistency", "builtin:hardy", "--obs", "N1"
    )
    assert code == 0
    d = kv(out)
    assert d["consistent"] == "false"
    assert d["failure_mode"] == "Strange"
    assert abs(float(d["functional.re"]) + 1.0 / 6.0) < 1e-12
    assert abs(float(d["factor.overlap_sq"]) - 1.0 / 12.0) < 1e-12
    assert d["factor.wv.re"] == "-1"


def test_weight_three_box(capsys):
    for obs in ("A", "B", "C"):
        code, out, _ = run_cli(
            capsys, "weight", "builtin:three-box", "--obs", obs
        )
        assert code == 0
        assert abs(float(kv(out)["weight"]) - 1.0) < 1e-12


def test_simulate_writes_csvs(capsys, tmp_path):
    dens = tmp_path / "density.csv"
    samp = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "builtin:three-box",
        "--obs",
        "C",
        "--delta",
        "10",
        "--n",
        "5000",
        "--seed",
        "7",
        "--density-out",
        str(dens),
        "--samples-out",
        str(samp),
    )
    assert code == 0
    d = kv(out)
    assert d["n"] == "5000"
    assert d["seed"] == "7"
    assert abs(float(d["rate"])) > 0
    for key in ("mean", "variance", "estimate", "delta"):
        assert key in d
    dens_lines = dens.read_text().strip().splitlines()
    assert dens_lines[0] == "x,p_x"
    assert len(dens_lines) == 2**14 + 1
    samp_lines = samp.read_text().strip().splitlines()
    assert samp_lines[0] == "index,x"
    assert len(samp_lines) == 5001


def test_verify_builtins(capsys):
    for name in ("three-box", "hardy"):
        code, out, err = run_cli(capsys, "verify", f"builtin:{name}")
        assert code == 0
        assert err == ""
        d = kv(out)
        assert d["checks.failed"] == "0"
        assert int(d["checks.total"]) > 0
        assert all(v == "pass" for k, v in d.items() if k.startswith("check."))


def test_verify_file_without_fixtures(capsys, tmp_path):
    path = tmp_path / "plain.scen"
    path.write_text(
        "basis a b\n"
        "state up = 1 a\n"
        "state down = 1 b\n"
        "pre up\n"
        "post up\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert kv(out)["checks.total"] == "0"


def test_weakvalue_from_serialized_builtin_file(capsys, tmp_path):
    doc = scenfile.doc_from_scenario(scenarios.three_box())
    path = tmp_path / "boxes.scen"
    path.write_text(scenfile.serialize(doc))
    code, out, _ = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert code == 0
    d = kv(out)
    assert d["wv.re"] == "-1"
    assert d["scenario"] == "boxes"


SIMULATE = ("simulate", "builtin:three-box", "--obs", "C", "--n", "10")


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("weakvalue", "builtin:nope", "--obs", "C"), "Usage"),
        (("weakvalue", "/no/such/file.scen", "--obs", "C"), "Usage"),
        (("weakvalue", "builtin:three-box", "--obs", "Q"), "Usage"),
        (("weakvalue", "builtin:three-box"), "Usage"),
        (("abl", "builtin:three-box", "--obs", "C", "--outcome", "5"), "Usage"),
        (SIMULATE + ("--delta", "0"), "Usage"),
        (SIMULATE + ("--delta", "nan"), "Usage"),
        (SIMULATE + ("--n", "0"), "Usage"),
        (SIMULATE + ("--seed", "-1"), "Usage"),
        (SIMULATE + ("--samples-out", "/missing/dir/x.csv"), "FileNotFoundError"),
        (SIMULATE + ("--coupling", "0"), "Usage"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, kind):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error kind={kind} ")


def test_parse_error_record_has_position(capsys, tmp_path):
    path = tmp_path / "broken.scen"
    path.write_text("basis a b\nstate x = 1 a +\n")
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "O")
    assert code == 1
    assert out == ""
    m = re.match(r'^error kind=ParseError line=(\d+) col=(\d+) msg="', err)
    assert m is not None
    assert m.group(1) == "2"


def test_orthogonal_pre_post_exits_two(capsys, tmp_path):
    path = tmp_path / "blocked.scen"
    path.write_text(
        "basis a b\n"
        "state up = 1 a\n"
        "state down = 1 b\n"
        "pre up\n"
        "post down\n"
        "proj Pa = |a><a|\n"
        "proj Pb = |b><b|\n"
        "obs O = 1*Pa + 0*Pb\n"
    )
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "O")
    assert code == 2
    assert out == ""
    assert err.startswith("error kind=UndefinedWeakValue ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prepost", "weakvalue", "builtin:three-box",
         "--obs", "C"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "wv.re = -1" in proc.stdout


@pytest.mark.parametrize(
    "flags", [("--delta", "1e-5"), ("--coupling", "20", "--delta", "0.1")]
)
def test_simulate_prints_no_warnings(flags):
    # flat CDF runs divide by zero when the inverse CDF is tabulated; a
    # numpy warning leaking to stderr would break the one-record contract
    proc = subprocess.run(
        [sys.executable, "-m", "prepost", "simulate", "builtin:three-box",
         "--obs", "C", "--n", "1000", "--seed", "0", *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_import_loads_no_executor_modules():
    # startup cost shows on every short scencli process; the sampler's
    # threads come from `threading`, which numpy has already imported
    proc = subprocess.run(
        [sys.executable, "-c",
         "import prepost, sys; "
         "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
         "if m in sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
