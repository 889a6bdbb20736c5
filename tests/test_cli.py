"""Command-line interface: output format, exit codes, error records."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from prepost import (
    ParseError, PointerConfig, entangle, pointer_density, postselect, scenarios, scenfile,
)
from prepost import cli, errors
from prepost.cli import main
from prepost.pointer import _CHUNK

from conftest import NESTED_COEFFICIENTS, diagonal_scenario_text, nested_state_text


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


def test_simulate_stdout_does_not_depend_on_samples_out(capsys, tmp_path):
    argv = ["simulate", "builtin:hardy", "--obs", "N1", "--delta", "0.5",
            "--n", str(_CHUNK + 3), "--seed", str(2**128 - 1)]
    code, without, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    samp = tmp_path / "samples.csv"
    code, with_samples, err = run_cli(capsys, *argv, "--samples-out", str(samp))
    assert (code, err) == (0, "")
    assert with_samples == without
    assert len(samp.read_text().splitlines()) == _CHUNK + 4


def _three_box_c_density(delta, coupling=1.0):
    sc = scenarios.builtin("three-box")
    cfg = PointerConfig(delta=delta, coupling=coupling)
    amps, _ = postselect(entangle(sc.observables["C"], sc.pre, cfg), sc.post, cfg)
    return pointer_density(amps, cfg)


@pytest.mark.parametrize("delta, coupling", [(1e-5, 1.0), (0.1, 20.0)])
def test_simulate_sharp_and_far_branch_means(capsys, delta, coupling):
    n = 10**6
    code, out, err = run_cli(
        capsys, "simulate", "builtin:three-box", "--obs", "C", "--n", str(n),
        "--delta", repr(delta), "--coupling", repr(coupling),
    )
    assert (code, err) == (0, "")
    density = _three_box_c_density(delta, coupling)
    stderr = (density.variance() / n) ** 0.5
    assert abs(float(kv(out)["mean"]) - 0.2 * coupling) <= 6 * stderr


def test_simulate_keeps_branches_at_a_tiny_overlap(capsys, tmp_path):
    # |<phi|psi>| = 2e-7: each branch has norm 1e-7 and amplitude 1e-7, above ZERO_TOL,
    # so both stay and the pointer splits its weight evenly between 0 and 1
    path = tmp_path / "tiny.scn"
    path.write_text(
        "basis a b\n"
        "state psi = 1 a + 0.0000001 b\n"
        "state phi = 0.0000001 a + 1 b\n"
        "pre psi\n"
        "post phi\n"
        "proj Pb = |b><b|\n"
        "proj Pa = |a><a|\n"
        "obs B = 1*Pb + 0*Pa\n"
    )
    n, delta = 100_000, 0.01
    code, out, err = run_cli(
        capsys, "simulate", str(path), "--obs", "B", "--delta", repr(delta), "--n", str(n),
        "--seed", "1",
    )
    assert (code, err) == (0, "")
    sc = scenfile.to_scenario(scenfile.parse(path.read_text()))
    obs = sc.observables["B"]
    amps = [(lam, p.amplitude(sc.post.vec, sc.pre.vec))
            for lam, p in zip(obs.eigenvalues, obs.projectors)]
    density = pointer_density(amps, PointerConfig(delta=delta))
    d = kv(out)
    assert float(d["rate"]) == pytest.approx(density.rate, rel=1e-11, abs=0.0)
    assert density.rate == pytest.approx(2e-14, rel=1e-6, abs=0.0)
    stderr = (density.variance() / n) ** 0.5
    assert abs(float(d["mean"]) - density.mean()) <= 6 * stderr


@pytest.mark.parametrize("delta", ["1e-300", "1e-100", "1e-14", "1e154", "1e200"])
def test_extreme_delta_gives_a_checked_mean_or_one_error(capsys, delta):
    n = 1000
    code, out, err = run_cli(
        capsys, "simulate", "builtin:three-box", "--obs", "C", "--n", str(n), "--delta", delta
    )
    if code == 0:
        assert err == ""
        density = _three_box_c_density(float(delta))
        stderr = (density.variance() / n) ** 0.5
        assert abs(float(kv(out)["mean"]) - density.mean()) <= 6 * stderr
    else:
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error kind=")


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


def test_verify_reports_a_failing_fixture(capsys, monkeypatch):
    # |wv| equals the weight |wv|^2 = 1 of every builtin fixture, so the wrong
    # weight here is the signed weak value: weight_C reads -1 against 1
    def signed_weight(e, d, f):
        return (e.amplitude(f.vec, d.vec) / np.vdot(f.vec.amps, d.vec.amps)).real

    monkeypatch.setattr(scenarios, "conditional_weight", signed_weight)
    code, out, err = run_cli(capsys, "verify", "builtin:three-box")
    assert code == 2
    d = kv(out)
    assert {k for k, v in d.items() if k.startswith("check.") and v != "pass"} == {"check.weight_C"}
    assert d["check.weight_C"] == "fail"
    assert (d["checks.failed"], d["checks.total"]) == ("1", "7")
    assert err == 'error kind=FixtureMismatch msg="1 of 7 checks failed"\n'


def test_weakvalue_from_serialized_builtin_file(capsys, tmp_path):
    path = tmp_path / "boxes.scen"
    path.write_text(scenfile.serialize(scenfile.parse(scenarios.THREE_BOX)))
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


@pytest.mark.parametrize(
    "argv, option",
    [(("abl", "builtin:three-box", "--obs", "C"), "--outcome"),
     (SIMULATE, "--delta"), (SIMULATE, "--x0"), (SIMULATE, "--coupling")],
)
@pytest.mark.parametrize("value", ["-1e-3", "-2E3", "-0e0", "-.5e1", "-inf"])
def test_negative_values_in_exponent_notation_parse_as_after_equals(capsys, argv, option, value):
    # argparse's own negative-number pattern (Python 3.10-3.12) took "-1e-3" for an option
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert run_cli(capsys, *argv, option, value) == joined
    assert "expected one argument" not in joined[2]


@pytest.mark.parametrize("coupling, code", [("1e-320", 1), ("-1e-320", 1), ("1e-300", 0)])
def test_coupling_needs_a_finite_reciprocal(capsys, coupling, code):
    # the estimate divides by the coupling: 1/1e-320 overflowed to an estimate of -inf
    got, out, err = run_cli(capsys, *SIMULATE, "--coupling", coupling)
    assert got == code
    if code:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error kind=Usage msg=\"coupling must be finite")
    else:
        assert err == "" and np.isfinite(float(kv(out)["estimate"]))


def test_samples_and_density_naming_one_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # the samples overwrote the density; now nothing is sampled or written
    from prepost import pointer

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pointer, "simulate", None)  # a call would raise TypeError
    code, out, err = run_cli(capsys, *SIMULATE, "--samples-out", "x.csv", "--density-out", "./x.csv")
    assert (code, out) == (1, "")
    assert err == 'error kind=Usage msg="--samples-out and --density-out name one file: x.csv"\n'
    assert not (tmp_path / "x.csv").exists()


#: The README's three-box scenario file.
_README_THREE_BOX = """\
# three boxes
basis a b c
state psi = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
state phi = (1/sqrt(3)) a + (1/sqrt(3)) b - (1/sqrt(3)) c
pre psi
post phi
proj PC = |c><c|
proj PCc = span(a, b)
obs C = 1*PC + 0*PCc
"""


@pytest.mark.parametrize("argv", [("weakvalue", "--obs", "C"), ("abl", "--obs", "C", "--outcome", "1"),
                                  ("consistency", "--obs", "C"), ("verify",)])
def test_a_leading_byte_order_mark_is_read_past(capsys, tmp_path, argv):
    # Windows editors save UTF-8 with a BOM, which the parser took for an unexpected character
    outs = []
    for folder, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / folder / "boxes.scn"
        path.parent.mkdir()
        path.write_bytes(bom + _README_THREE_BOX.encode())
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_a_byte_order_mark_is_stripped_once_and_not_counted(capsys, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"\xef\xbb\xbf" + "# café ".encode() + b"\xff")
    _, _, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert err == 'error kind=ParseError line=1 col=8 msg="not UTF-8: invalid start byte 0xff"\n'
    path.write_bytes(2 * b"\xef\xbb\xbf" + _README_THREE_BOX.encode())
    code, _, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert code == 1
    assert err.startswith("error kind=ParseError line=1 col=1 ")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_not_utf8_position_is_the_parsers(capsys, tmp_path, end):
    # a form feed or U+2028 in a comment ends no line, so the bad byte stays on line 3
    head = f"basis a b{end}# page \f break \u2028 here{end}state psi = "
    with pytest.raises(ParseError, match="unexpected character '\\$'") as parsed:
        scenfile.parse(head + "$")
    assert (parsed.value.line, parsed.value.col) == (3, 13)
    path = tmp_path / "bad.scn"
    path.write_bytes(head.encode() + b"\xff")
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert (code, out) == (1, "")
    assert err == 'error kind=ParseError line=3 col=13 msg="not UTF-8: invalid start byte 0xff"\n'


def _raise_memory_error(source):
    raise MemoryError("out of memory")


def _allocate_too_much(source):
    return np.empty(2**58, np.uint8)  # past any address space: fails at once, holding nothing


@pytest.mark.parametrize("load", [_raise_memory_error, _allocate_too_much])
def test_memory_error_gives_one_error_record(capsys, monkeypatch, load):
    # numpy raises a private MemoryError subclass; the record names the public kind
    monkeypatch.setattr(cli, "load_scenario", load)
    code, out, err = run_cli(capsys, "weakvalue", "builtin:three-box", "--obs", "C")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error kind=MemoryError msg=")


def _library_errors(cls=errors.PrepostError):
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield from _library_errors(sub)


@pytest.mark.parametrize("error", sorted(set(_library_errors()), key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_library_error_gives_one_record(capsys, monkeypatch, error):
    # exit 2 means the quantity is undefined for the pair: the ComputationError family
    positioned = issubclass(error, errors.PositionedError)

    def fail(*args):
        raise error("no value here", 4, 9) if positioned else error("no value here")

    monkeypatch.setattr(cli, "weak_value", fail)
    code, out, err = run_cli(capsys, "weakvalue", "builtin:three-box", "--obs", "C")
    kind = "Usage" if error is errors.UnknownEigenvalue else error.__name__
    where = " line=4 col=9" if positioned else ""
    assert (out, err) == ("", f'error kind={kind}{where} msg="no value here"\n')
    assert code == (2 if issubclass(error, errors.ComputationError) else 1)


def test_the_exit_two_family_is_the_undefined_quantities():
    family = {cls.__name__ for cls in _library_errors(errors.ComputationError)}
    assert family == {"ComputationError", "UndefinedWeakValue", "UndefinedABL",
                      "UndefinedWeight", "PostSelectionImpossible", "ScenarioFixtureError"}


def test_parse_error_record_has_position(capsys, tmp_path):
    path = tmp_path / "broken.scen"
    path.write_text("basis a b\nstate x = 1 a +\n")
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "O")
    assert code == 1
    assert out == ""
    m = re.match(r'^error kind=ParseError line=(\d+) col=(\d+) msg="', err)
    assert m is not None
    assert m.group(1) == "2"


@pytest.mark.parametrize("shape", sorted(NESTED_COEFFICIENTS))
def test_deeply_nested_expression_gives_one_parse_error_record(capsys, tmp_path, shape):
    path = tmp_path / "deep.scn"
    path.write_text(nested_state_text(shape, 2000), encoding="utf-8")
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert (code, out) == (1, "")
    assert err == 'error kind=ParseError line=2 msg="expression nested too deeply"\n'


_EVERY_COMMAND = [("weakvalue", "--obs", "C"), ("consistency", "--obs", "C"), ("weight", "--obs", "C"),
                  ("abl", "--obs", "C", "--outcome", "1"), ("simulate", "--obs", "C", "--n", "10"),
                  ("verify",)]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize("source", ["builtin", "file"])
def test_every_record_names_its_command_scenario_and_observable(capsys, tmp_path, argv, source):
    if source == "file":
        path = tmp_path / "boxes.scn"
        path.write_text(_README_THREE_BOX, encoding="utf-8")
        source, name = str(path), "boxes"
    else:
        source, name = "builtin:three-box", "three-box"
    code, out, err = run_cli(capsys, argv[0], source, *argv[1:])
    assert (code, err) == (0, "")
    d = kv(out)
    assert (d["command"], d["scenario"]) == (argv[0], name)
    assert d.get("obs") == (None if argv[0] == "verify" else "C")


@pytest.mark.parametrize(
    "argv, msg",
    [
        # the source first, then --obs, then the command's own options
        (("nofile.scn", "--obs", "Q", "--n", "0"), "no such scenario file: nofile.scn"),
        (("builtin:three-box", "--obs", "Q", "--n", "0"),
         "scenario 'three-box' has no observable 'Q'; available: A, B, C"),
        (("builtin:three-box", "--obs", "C", "--n", "0"), "--n must be at least 1, got 0"),
        (("builtin:nope", "--obs", "C"), "unknown builtin scenario 'nope'; available: hardy, three-box"),
    ],
)
def test_checks_run_in_one_order_with_exact_messages(capsys, argv, msg):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert (code, out) == (1, "")
    assert err == f'error kind=Usage msg="{msg}"\n'


def test_a_key_error_inside_a_builder_is_not_an_unknown_name(capsys, monkeypatch):
    def broken(text):
        return {}["missing"]

    monkeypatch.setattr(scenfile, "parse", broken)
    code, out, err = run_cli(capsys, "verify", "builtin:hardy")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "unknown builtin" not in err


#: Orthogonal pre- and post-selection: every weak value is undefined.
_BLOCKED = """\
basis a b
state up = 1 a
state down = 1 b
pre up
post down
proj Pa = |a><a|
proj Pb = |b><b|
obs O = 1*Pa + 0*Pb
"""


def test_orthogonal_pre_post_exits_two(capsys, tmp_path):
    path = tmp_path / "blocked.scen"
    path.write_text(_BLOCKED)
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "O")
    assert code == 2
    assert out == ""
    assert err.startswith("error kind=UndefinedWeakValue ")


#: An overlap of 6e-8 under eigenvalues of +-1e308: the weak value overflows.
_OVERFLOW = """\
basis a b
state psi = 0.6 a + 0.8 b
state phi = 0.8000001 a - 0.6 b
pre psi
post phi
proj P = |a><a|
proj Q = |b><b|
obs X = 1e308*P + -1e308*Q
"""


def test_an_overflowing_weak_value_is_undefined(capsys, tmp_path):
    # 0.96e308 / 6e-8 has no finite double, so no weak value is printed
    path = tmp_path / "overflow.scn"
    path.write_text(_OVERFLOW)
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "X")
    assert (code, out) == (2, "")
    assert err == ('error kind=UndefinedWeakValue msg="<post|O|pre> / <post|pre> '
                   'is not a finite double; weak value undefined"\n')


def test_a_family_without_eigenvalue_one_gives_the_abl_record(capsys, tmp_path):
    # consistency and weight look up outcome 1 as abl does, so they fail with its record
    path = tmp_path / "boxes.scn"
    path.write_text(_README_THREE_BOX + "proj PA = |a><a|\nproj PAc = span(b, c)\n"
                    "obs A = 1000*PA + 0*PAc\n")
    code, out, err = run_cli(capsys, "abl", str(path), "--obs", "A", "--outcome", "1")
    assert (code, out) == (1, "")
    assert err == 'error kind=Usage msg="1.0 is not an eigenvalue of the observable"\n'
    for command in ("consistency", "weight"):
        assert run_cli(capsys, command, str(path), "--obs", "A") == (1, "", err)
    code, out, _ = run_cli(capsys, "abl", str(path), "--obs", "A", "--outcome", "1000")
    assert code == 0 and kv(out)["abl"] == "1"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prepost", "weakvalue", "builtin:three-box",
         "--obs", "C"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "wv.re = -1" in proc.stdout


def _run_module(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "prepost", *argv], text=True, **kwargs)


def test_module_exit_matches_in_process_main(capsys, tmp_path):
    # the process flushes and ends with os._exit once main returns, so it must
    # print and exit exactly as main(argv) prints and returns in-process
    broken, blocked = tmp_path / "broken.scn", tmp_path / "blocked.scn"
    broken.write_text("basis a b\nstate x = 1 a +\n")
    blocked.write_text(_BLOCKED)
    table = [
        (0, ("weakvalue", "builtin:three-box", "--obs", "C")),
        (0, ("consistency", "builtin:hardy", "--obs", "N1")),
        (0, ("abl", "builtin:three-box", "--obs", "C", "--outcome", "1")),
        (0, ("weight", "builtin:hardy", "--obs", "N1")),
        (0, SIMULATE),
        (0, ("verify", "builtin:hardy")),
        (1, ("weakvalue", "builtin:three-box", "--obs", "Q")),
        (1, ("weakvalue", str(broken), "--obs", "O")),
        (1, SIMULATE + ("--delta", "1e-300")),
        (2, ("weakvalue", str(blocked), "--obs", "O")),
    ]
    for code, argv in table:
        proc = _run_module(*argv, capture_output=True)
        assert proc.returncode == code, (argv, proc.stderr)
        assert run_cli(capsys, *argv) == (code, proc.stdout, proc.stderr), argv


def test_module_writes_the_library_csvs(capsys, tmp_path):
    argv = ("simulate", "builtin:hardy", "--obs", "N1", "--delta", "0.5", "--n", "5000",
            "--seed", "11")

    def outputs(who):
        return ("--samples-out", str(tmp_path / f"{who}-samples.csv"),
                "--density-out", str(tmp_path / f"{who}-density.csv"))

    proc = _run_module(*argv, *outputs("process"), capture_output=True)
    assert run_cli(capsys, *argv, *outputs("main")) == (0, proc.stdout, proc.stderr)
    for kind in ("samples", "density"):
        written = (tmp_path / f"process-{kind}.csv").read_bytes()
        assert written == (tmp_path / f"main-{kind}.csv").read_bytes(), kind


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_gives_one_error_record(unbuffered):
    # as under `scencli ... | head` once head has gone: buffered, the write
    # fails only when the output is flushed after main returns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module("verify", "builtin:hardy", stdout=write_end,
                           stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error kind=BrokenPipeError "), lines


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


@pytest.mark.parametrize("warnings", [(), ("-W", "error")])
def test_overflowing_pointer_centre_gives_one_error_record(warnings):
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "prepost", "simulate", "builtin:three-box",
         "--obs", "C", "--x0", "1.7e308", "--coupling", "1e308", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error kind=PointerRangeError "), lines


#: Imports numpy, then the CLI, and runs it in-process when given arguments;
#: prints the exit code and every module loaded beyond numpy's own to stderr.
#: It runs under -S, as no site hook (a .pth file) may load modules before it looks.
_LOADED_PROBE = (
    "import sys, numpy\n"
    "before = set(sys.modules)\n"
    "from prepost.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
)

#: The sampler's threads come from `threading`, which numpy has already imported;
#: the CLI opens a file by its name, without `pathlib`.
_NEVER = {"concurrent.futures", "multiprocessing", "pathlib"}
_SAMPLING = {"prepost.pointer", "dataclasses", "numpy.random"}


def test_import_loads_no_executor_modules(tmp_path):
    # startup cost shows on every short scencli process, so each subcommand
    # loads only the modules it calls: queries parse their scenario text but never sample
    path = tmp_path / "boxes.scn"
    path.write_text(scenarios.THREE_BOX)
    query, parsed = _NEVER | _SAMPLING, {"prepost.scenfile"}
    table = [
        ((), query | parsed, set()),
        (("weakvalue", "builtin:three-box", "--obs", "C"), query, parsed),
        (("consistency", "builtin:hardy", "--obs", "N1"), query, parsed),
        (("abl", "builtin:three-box", "--obs", "C", "--outcome", "1"), query, parsed),
        (("weight", "builtin:hardy", "--obs", "N1"), query, parsed),
        (("verify", "builtin:hardy"), query, parsed),
        (("weakvalue", str(path), "--obs", "C"), query, parsed),
        (SIMULATE, _NEVER | {"dataclasses"}, {"prepost.pointer", "prepost.scenfile"}),
    ]
    roots = (os.path.dirname(os.path.dirname(m.__file__)) for m in (cli, np))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(roots)}
    for argv, absent, present in table:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _LOADED_PROBE, *argv], capture_output=True, text=True,
            env=env,
        )
        status, *loaded = proc.stderr.split()
        assert status == "0", (argv, proc.stderr)
        assert not absent & set(loaded), (argv, sorted(absent & set(loaded)))
        assert present <= set(loaded), (argv, sorted(present - set(loaded)))


def test_every_exported_name_resolves():
    # pointer and scenfile names are exported lazily; each must still resolve
    proc = subprocess.run(
        [sys.executable, "-c",
         "import prepost; print(sorted(n for n in prepost.__all__ if not hasattr(prepost, n)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    import prepost

    assert prepost.parse is scenfile.parse and prepost.PointerConfig is PointerConfig
    with pytest.raises(AttributeError):
        prepost.no_such_name


def test_non_utf8_file_gives_one_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.scn"
    cases = ((b"\xff\xfe bad", 1, 1), ("basis a b\n# café ".encode() + b"\xff", 2, 8))
    for data, line, col in cases:
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
        assert code == 1
        assert out == ""
        assert err == (f'error kind=ParseError line={line} col={col} '
                       'msg="not UTF-8: invalid start byte 0xff"\n')


@pytest.mark.parametrize(
    "decl, col",
    [("state psi = 1e400 a", 13), ("state psi = a - 1e300*1e300 b", 17)],
)
def test_overflowing_amplitude_is_a_parse_error(capsys, tmp_path, decl, col):
    # inf * sign is inf+nanj, whose NaN norm used to pass the norm check
    path = tmp_path / "huge.scn"
    path.write_text(f"basis a b\n{decl}\npre psi\npost psi\nproj P = |a><a|\n"
                    "proj Q = |b><b|\nobs C = 1*P + 0*Q\n")
    code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error kind=ParseError line=2 col={col} msg=")
    path.write_text("basis a b\nstate psi = a\npre psi\npost psi\nproj P = |a><a|\n"
                    "proj Q = |b><b|\nobs C = 1e400*P + 0*Q\n")
    code, _, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
    assert code == 1
    assert err.startswith("error kind=ParseError line=7 col=9 msg=")


@pytest.mark.filterwarnings("error")
def test_normalized_state_at_any_scale_gives_the_unit_scale_weak_value(capsys, tmp_path):
    # the squares of 1e200 overflow and those of 1e-200 underflow; the norm of
    # 1.5e308 overflows itself, and that of 5e-324 is subnormal
    path = tmp_path / "scaled.scn"
    weak_values = []
    for s in ("1", "1e200", "1e-200", "1.5e308", "5e-324"):
        path.write_text(f"basis a b c\nstate psi normalize = {s} a + {s} b + {s} c\n"
                        f"state phi normalize = {s} a + {s} b - {s} c\npre psi\npost phi\n"
                        "proj PC = |c><c|\nproj PCc = span(a, b)\nobs C = 1*PC + 0*PCc\n")
        code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", "C")
        assert (code, err) == (0, ""), s
        weak_values.append({k: v for k, v in kv(out).items() if k.startswith("wv.")})
    assert weak_values[0] == {"wv.class": "STWV", "wv.im": "0", "wv.re": "-1"}
    assert all(wv == weak_values[0] for wv in weak_values[1:])


#: The README three-box file with the observable M = a*PA + 2a*PAc, whose weak
#: value is exactly the eigenvalue a, and S at a = 1e-9.
_SCALED_THREE_BOX = """\
basis a b c
state psi = (1/sqrt(3)) a + (1/sqrt(3)) b + (1/sqrt(3)) c
state phi = (1/sqrt(3)) a + (1/sqrt(3)) b - (1/sqrt(3)) c
pre psi
post phi
proj PA = |a><a|
proj PAc = span(b, c)
obs M = {a:g}*PA + {b:g}*PAc
obs S = 0.000000001*PA + 0.000000002*PAc
"""


def test_weak_value_class_does_not_depend_on_the_observable_scale(capsys, tmp_path):
    path = tmp_path / "scaled.scn"
    for a in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
        path.write_text(_SCALED_THREE_BOX.format(a=a, b=2 * a))
        for name, value in (("M", a), ("S", 1e-9)):
            code, out, err = run_cli(capsys, "weakvalue", str(path), "--obs", name)
            assert (code, err) == (0, ""), (a, name)
            d = kv(out)
            assert d["wv.class"] == "SWV", (a, name, d["wv.re"])
            assert float(d["wv.re"]) == pytest.approx(value, rel=1e-12)


#: psi = a + 1e-7 b against a post-selection phi at a small overlap.
_SMALL_OVERLAP = """\
basis a b
state psi = {psi}
state phi = {phi}
pre psi
post phi
proj Pb = |b><b|
proj Pa = |a><a|
obs B = 1*Pb + 0*Pa
"""


@pytest.mark.parametrize(
    "phi, wv, mode",
    [
        ("0.0000001 a + sqrt(1-1e-14) b", "0.5", "Unsharp"),  # overlap 2e-7
        ("-0.0000002 a + sqrt(1-4e-14) b", "-1", "Strange"),  # overlap -1e-7
    ],
)
def test_consistency_verdict_does_not_scale_with_the_overlap(capsys, tmp_path, phi, wv, mode):
    path = tmp_path / "small.scn"
    path.write_text(_SMALL_OVERLAP.format(psi="sqrt(1-1e-14) a + 0.0000001 b", phi=phi))
    code, out, _ = run_cli(capsys, "consistency", str(path), "--obs", "B")
    assert code == 0
    d = kv(out)
    assert d["factor.wv.re"] == wv
    assert d["consistent"] == "false"
    assert d["failure_mode"] == mode


def test_checks_do_not_rely_on_assert():
    # python -O strips assert statements, so every check must raise itself
    def run_optimized(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "prepost", *argv],
            capture_output=True,
            text=True,
        )

    for name in ("three-box", "hardy"):
        proc = run_optimized("verify", f"builtin:{name}")
        assert proc.returncode == 0, proc.stderr
        assert "checks.failed = 0" in proc.stdout
    proc = run_optimized("simulate", "builtin:three-box", "--obs", "C", "--delta", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error kind=Usage ")


def test_no_command_builds_a_dense_observable_matrix(capsys, monkeypatch, tmp_path):
    from prepost import cli

    path = tmp_path / "d128.scn"
    path.write_text(diagonal_scenario_text(128, np.random.default_rng(128)), encoding="utf-8")
    sc = scenfile.to_scenario(scenfile.parse(path.read_text(encoding="utf-8")))
    assert all("mat" not in vars(obs) for obs in sc.observables.values())
    loaded, real_load = [], cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda source: loaded.append(real_load(source))
                        or loaded[-1])
    sources = {"builtin:three-box": "ABC", "builtin:hardy": ("N1", "N4"), str(path): "XY"}
    for source, names in sources.items():
        for name in names:
            for argv in (["weakvalue"], ["abl", "--outcome", "1"], ["consistency"], ["weight"],
                         ["simulate", "--delta", "1", "--n", "1000", "--seed", "3"]):
                code, _, err = run_cli(capsys, argv[0], source, "--obs", name, *argv[1:])
                assert (code, err) == (0, ""), (source, name, argv)
    assert len(loaded) == 35
    assert all("mat" not in vars(obs) for sc in loaded for obs in sc.observables.values())
