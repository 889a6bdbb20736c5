"""Self-test of the benchmark at tiny sizes; not part of any timed run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Monte Carlo sizes and probe repeats cut down; records and work files
    kept in tmp_path, apart from those of real runs."""
    monkeypatch.setattr(workloads, "SAMPLE_N", 4000)
    monkeypatch.setattr(workloads, "WRITE_N", 400)
    monkeypatch.setattr(tracing, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    result = run.run_workload(workload, 3, 1.0, bool(trace))
    return result, capsys.readouterr().out


def _assert_schema(result: dict, section: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == list(run.spec_units(section))
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def test_end_to_end_schema_and_clean_run(tiny, capsys):
    result, stdout = _run(capsys, "cli-small", 0)
    _assert_schema(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    for name, m in result["metrics"].items():
        assert f"{name} = " in stdout and m["value"] > 0


def test_known_defects_fail_and_nothing_else(tiny, capsys):
    result, stdout = _run(capsys, "mc-pointer", 0)
    assert result["attempted"] % 7 == 0
    assert result["failed"] * 7 == result["attempted"] * 2
    assert result["correct"]
    failed = {line.split(": ")[0] for line in stdout.splitlines() if line.startswith("failed ")}
    assert failed == {"failed simulate:bug-fine-delta", "failed simulate:bug-far-branch"}


def test_per_layer_schema(tiny, capsys):
    result, _ = _run(capsys, "cli-small", 1)
    _assert_schema(result, "per_layer")


def _stdout_for(cmd, **override) -> str:
    values = oracle.expected(cmd)
    if cmd.kind == "simulate":
        _, mean, variance = oracle.pointer_moments(cmd)
        values.update(mean=mean, variance=variance, estimate=mean / cmd.coupling)
    values.update(override)
    lines = []
    for key in sorted(values):
        value = values[key]
        lines.append(f"{key} = {format(value, '.12g') if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def mc_commands(tiny, tmp_path):
    return {c.group: c for c in workloads.build_mc_pointer(5, tmp_path).units[0]}


def test_oracle_rejects_grid_bias_mean(mc_commands):
    cmd = mc_commands["simulate:bug-fine-delta"]
    assert oracle.check(cmd, 0, _stdout_for(cmd), "") == []
    problems = oracle.check(cmd, 0, _stdout_for(cmd, mean=1.0, estimate=1.0), "")
    assert any(p.startswith("mean = 1") for p in problems)


def test_oracle_rejects_wrong_rate_and_exit(mc_commands):
    cmd = mc_commands["simulate:sample"]
    assert oracle.check(cmd, 0, _stdout_for(cmd), "") == []
    assert oracle.check(cmd, 0, _stdout_for(cmd, rate=0.5), "")
    assert oracle.check(cmd, 2, "", "error kind=X") == ["exit 2: error kind=X"]


def test_known_defect_excused_only_for_its_mean(mc_commands):
    cmd = mc_commands["simulate:bug-fine-delta"]

    def correct(returncode, stdout):
        record = run.Record(cmd.group, 1.0, oracle.check(cmd, returncode, stdout, ""))
        return run.verdict(run.Loop([record]))

    assert correct(0, _stdout_for(cmd, mean=1.0, estimate=1.0)) == (True, 1)
    assert correct(2, "") == (False, 1)
    assert correct(0, _stdout_for(cmd, mean=1.0, estimate=1.0, rate=0.5)) == (False, 1)


def test_oracle_checks_csv_contents(mc_commands):
    cmd = mc_commands["simulate:write"]
    xs = np.linspace(-3.0, 3.0, oracle.DENSITY_ROWS)
    draws = np.random.default_rng(0).normal(size=cmd.n)
    got = {"mean": format(float(np.mean(draws)), ".12g")}

    def problems(density_x=xs, samples=draws):
        rows = "".join(f"{float(x)!r},0.5\n" for x in density_x)
        Path(cmd.density_out).write_text("x,p_x\n" + rows)
        rows = "".join(f"{i},{float(x)!r}\n" for i, x in enumerate(samples))
        Path(cmd.samples_out).write_text("index,x\n" + rows)
        return oracle.check_csv(cmd, got)

    assert problems() == []
    assert problems(density_x=xs[:-1]) == [f"density.csv: {len(xs) - 1} rows, expected {len(xs)}"]
    assert problems(density_x=xs[::-1]) == ["density.csv: x does not increase"]
    assert problems(samples=draws[:-1]) == [f"samples.csv: {cmd.n - 1} rows, expected {cmd.n}"]
    assert problems(samples=draws + 0.01)[0].startswith("samples.csv: x averages")


def test_oracle_rejects_wrong_weak_value(tmp_path):
    cmds = [u[0] for u in workloads.build_cli_small(5, tmp_path).units]
    for cmd in cmds:
        assert oracle.check(cmd, 0, _stdout_for(cmd), "") == [], cmd
    wv = next(c for c in cmds if c.kind == "weakvalue" and c.obs == "C")
    assert oracle.check(wv, 0, _stdout_for(wv, **{"wv.re": -0.999999}), "")
