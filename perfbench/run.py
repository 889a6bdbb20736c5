"""prepost benchmark: closed-loop scencli processes, checked by an oracle.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run from the repository root.  One client starts one `python -m prepost`
child at a time (PYTHONPATH=src, BLAS threads pinned to one) and times it;
every output is checked against the independent reference in oracle.py.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced in-process replay.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record
(provenance, per-command results, spans) goes to perfbench/_out/.
`--workload all` runs every workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# workloads, oracle and tracing import numpy, so they are imported inside the
# functions that use them: the thread settings below must be in the
# environment before numpy loads.

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"
WORK_DIR = ROOT / "perfbench" / "_work"

#: Thread settings passed to every child (and applied to this process), so
#: numpy's BLAS pool does not compete with the single client for the cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-ups per trace-0 run; setup_s is their median.
SETUPS = 5
#: Seconds after which one child counts as failed and is killed.
CHILD_TIMEOUT = 60


def spec_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@dataclass
class Record:
    group: str
    ms: float
    problems: list[str]


@dataclass
class Loop:
    records: list[Record] = field(default_factory=list)
    seconds: float = 0.0
    draws: int = 0


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, so children
    write and reuse bytecode caches the same way wherever the benchmark runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return {**env, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}


def run_child(args: list[str], env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )


def setup(name: str, seed: int, env, work: Path, serialize=None):
    """Generate inputs, write scenario files, warm each command kind once."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    plan = WORKLOADS[name](seed, workdir, serialize)
    for cmd in plan.warmups:
        proc = run_child(["-m", "prepost", *cmd.argv()], env)
        if proc.returncode != 0:
            raise SystemExit(f"warm-up {cmd.argv()} failed: {proc.stderr.strip()}")
    return plan, time.perf_counter() - start


def closed_loop(plan, seconds: float, env, between=None) -> Loop:
    """One client, one child at a time; stops between units once time is up.

    `between`, when given, runs after every command, outside its timing.
    """
    import oracle

    loop, first_stdout = Loop(), {}
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds:
        for cmd in plan.units[cycle % len(plan.units)]:
            argv = cmd.argv()
            t0 = time.perf_counter()
            try:
                proc = run_child(["-m", "prepost", *argv], env)
            except subprocess.TimeoutExpired:
                loop.records.append(Record(cmd.group, CHILD_TIMEOUT * 1e3, ["timeout"]))
                cmd.remove_outputs()
                continue
            ms = (time.perf_counter() - t0) * 1e3
            problems = oracle.check(cmd, proc.returncode, proc.stdout, proc.stderr)
            if first_stdout.setdefault(tuple(argv), proc.stdout) != proc.stdout:
                problems.append("stdout differs from an earlier run of the same argv")
            cmd.remove_outputs()
            loop.records.append(Record(cmd.group, ms, problems))
            loop.draws += cmd.n or 0
            if between:
                between()
        cycle += 1
    loop.seconds = time.perf_counter() - start
    return loop


def verdict(loop: Loop) -> tuple[bool, int]:
    """(correct, failed): every failure counts in `failed`.

    A known defect keeps `correct` true only while it fails the way it is
    known to: its one problem is the Monte Carlo mean.  Any other problem
    (an exit, a timeout, a wrong rate, a changed stdout) makes it false.
    """
    from workloads import KNOWN_DEFECTS

    failed = [r for r in loop.records if r.problems]
    unexpected = [
        r for r in failed
        if r.group not in KNOWN_DEFECTS or not all(p.startswith("mean = ") for p in r.problems)
    ]
    return not unexpected, len(failed)


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, float]:
    lat = [r.ms for r in loop.records]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "cmds_per_s": len(lat) / loop.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def child_ms(args: list[str], env) -> float:
    t0 = time.perf_counter()
    run_child(args, env).check_returncode()
    return (time.perf_counter() - t0) * 1e3


def traced_layers(name, seed, seconds, env, work):
    """Per-layer metrics: e2e loop, startup probes, traced replay, probes."""
    import tracing
    from workloads import WORKLOADS

    own = tracing.Tracer()
    plan, _ = setup(name, seed, env, work, serialize=_traced_serialize(own))
    # Half a run's worth of children gives each group's e2e median.  A
    # `python -c pass` and an `import prepost` probe follow every command,
    # so startup is measured under the same machine load as the commands.
    starts = {"pass": [], "import prepost": []}

    def startup_probe():
        for code, times in starts.items():
            times.append(child_ms(["-c", code], env))

    loop = closed_loop(plan, seconds / 2, env, between=startup_probe)
    interp = statistics.median(starts["pass"])
    imp = statistics.median(starts["import prepost"]) - interp

    def trace(tracer, plan, budget):
        tracing.replay(tracer, plan.units, plan.files, budget)
        tracing.probe_dims(tracer, plan.files)
        sims = [c for u in plan.units for c in u if c.kind == "simulate"]
        if sims:
            tracing.probe_sample_memory(tracer, sims[0])

    trace(own, plan, seconds / 4)
    metrics = tracing.layer_metrics(own)
    required = list(spec_units("per_layer"))
    tracers = [own]
    # Layers this workload never calls are measured on one cycle of the
    # other workloads' commands, so every reported metric is a measurement.
    if any(n not in metrics for n in required if not n.startswith("cli.") and not n.endswith(".errors")):
        ref = tracing.Tracer()
        for other in WORKLOADS:
            if other != name:
                other_plan, _ = setup(other, seed, env, work, serialize=_traced_serialize(ref))
                trace(ref, other_plan, 0.0)
        for key, value in tracing.layer_metrics(ref).items():
            metrics.setdefault(key, value)
        tracers.append(ref)

    breakdown = group_breakdown(own, loop, interp, imp)
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imp
    metrics["cli.self_ms"] = statistics.median(b["self_ms"] for b in breakdown.values())
    errors = sum((t.errors() for t in tracers), Counter())
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    missing = [n for n in required if n not in metrics]
    if missing:
        raise SystemExit(f"per-layer metrics not measured: {', '.join(missing)}")
    values = {n: metrics[n] for n in required}
    spans = [
        {"tracer": k, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "cmd": s.cmd, "group": t.commands[s.cmd].group if s.cmd is not None else None,
         "error": s.error}
        for k, t in enumerate(tracers) for s in t.spans
    ]
    for group, exc in sorted({f for t in tracers for f in t.failures}):
        print(f"trace error {group}: {exc}")
    return loop, values, breakdown, spans


def _traced_serialize(tracer):
    from prepost import scenfile

    return lambda doc: tracer.call("scenfile.serialize", scenfile.serialize, doc)


def group_breakdown(t, loop: Loop, interp: float, imp: float) -> dict[str, dict]:
    """Per command group: e2e median = interp + import + spans + cli self.

    Spans are reduced to self time (span minus its children) per call name,
    the median over the group's replayed commands; cli self is what is left.
    """
    child_ms = Counter()
    for s in t.spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    per_cmd = defaultdict(Counter)
    for i, s in enumerate(t.spans):
        if s.cmd is not None:
            per_cmd[s.cmd][s.name] += s.ms - child_ms[i]
    by_group = defaultdict(list)
    for cmd_id, calls in per_cmd.items():
        by_group[t.commands[cmd_id].group].append(calls)
    e2e = defaultdict(list)
    for r in loop.records:
        e2e[r.group].append(r.ms)
    out = {}
    for group, rows in sorted(by_group.items()):
        if group not in e2e:
            continue
        calls = {name: statistics.median(row[name] for row in rows)
                 for name in sorted({k for row in rows for k in row})}
        e2e_ms = statistics.median(e2e[group])
        spans_ms = sum(calls.values())
        parts = {"interp": interp, "import": imp, **calls}
        self_ms = e2e_ms - interp - imp - spans_ms
        parts["cli self"] = self_ms
        out[group] = {
            "e2e_ms": e2e_ms, "samples": len(e2e[group]), "interp_ms": interp,
            "import_ms": imp, "spans_ms": calls, "self_ms": self_ms,
            "dominant": max(parts, key=parts.get),
        }
    return out


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "prepost").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": _loadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "child_thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    prov = provenance()
    # Each run writes its scenario and CSV files to a directory of its own,
    # so runs sharing the checkout never remove each other's files.
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_DIR))
    try:
        if trace:
            loop, metrics, breakdown, spans = traced_layers(name, seed, seconds, env, work)
            units = spec_units("per_layer")
        else:
            setups = []
            for _ in range(SETUPS):
                plan, secs = setup(name, seed, env, work)
                setups.append(secs)
            loop = closed_loop(plan, seconds, env)
            breakdown, spans = {}, []
            units = spec_units("end_to_end")
            measured = end_to_end(loop, setups)
            missing = [n for n in units if n not in measured]
            if missing:
                raise SystemExit(f"end-to-end metrics not measured: {', '.join(missing)}")
            metrics = {n: measured[n] for n in units}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only once no other run is using it
        except OSError:
            pass
    prov["loadavg_end"] = _loadavg()
    correct, failed = verdict(loop)
    attempted = len(loop.records)

    print(f"workload = {name}  seed = {seed}  seconds = {seconds:g}  trace = {int(trace)}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    lat_n = len(loop.records)
    print(f"latency samples = {lat_n} commands in {loop.seconds:.3f} s of loop wall time")
    if loop.draws:
        print(f"samples_per_s = {loop.draws / loop.seconds:.6g} 1/s")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for group, problems in sorted({(r.group, "; ".join(r.problems)) for r in loop.records if r.problems}):
        print(f"failed {group}: {problems}")
    for group, b in breakdown.items():
        spans_txt = ", ".join(f"{k} {v:.3f}" for k, v in b["spans_ms"].items() if v >= 0.001)
        print(f"breakdown {group}: e2e {b['e2e_ms']:.2f} = interp {b['interp_ms']:.2f} + import "
              f"{b['import_ms']:.2f} + spans [{spans_txt}] + cli self {b['self_ms']:.2f} ms; "
              f"dominant {b['dominant']} (n = {b['samples']})")
    print("provenance = " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": prov, "result": result, "breakdown": breakdown,
        "commands": [vars(r) for r in loop.records], "spans": spans,
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prepost" / "__init__.py").is_file():
        print(f"perfbench: no prepost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    # One process per workload keeps each peak_rss_mb to its own children.
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
