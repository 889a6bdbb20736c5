"""Traced in-process replay: one span per call into a prepost layer.

Each command is replayed as the sequence of public calls its `cli._cmd_*`
function makes.  `cli.load_scenario` is called as is; its calls into
`scenarios.builtin`, `scenfile.parse` and `scenfile.to_scenario` are
traced by swapping those module attributes for the length of the replay.
Spans live in memory (name, start, end, parent, command) and are written
out by the caller when the run ends.

Layer metrics take the median over spans of one call.  Calls on the
builtin-sized scenarios (dimension below 32) give the plain metric name;
calls on dim-scale files add a `.d<n>` suffix.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from prepost import cli, scenarios, scenfile
from prepost.histories import abl_probability, conditional_weight, consistency
from prepost.linalg import CMat
from prepost.pointer import (
    PointerConfig,
    entangle,
    pointer_density,
    postselect,
    sample,
    write_density_csv,
    write_samples_csv,
)
from prepost.quantum import Observable, spectral_decompose, weak_value

from workloads import DIMS, Command

LAYERS = ("cli", "scenarios", "scenfile", "quantum", "histories", "pointer")

#: Repetitions of the off-path probes (Observable rebuild, eigh, spectral).
PROBE_REPEATS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    cmd: Optional[int] = None
    error: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    probes: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (group, exception)
    _stack: list[int] = field(default_factory=list)
    _cmd: Optional[int] = None

    def call(self, name: str, fn, /, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent=parent, cmd=self._cmd)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = repr(exc)
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def traced_attrs(self, targets):
        """Trace calls made through module attributes, e.g. (scenfile, "parse")."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
        for mod, attr, orig in saved:
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(mod, attr, lambda *a, _n=name, _f=orig, **k: self.call(_n, _f, *a, **k))
        try:
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def errors(self) -> Counter:
        return Counter(s.layer for s in self.spans if s.error)


def _replay(cmd: Command, t: Tracer, first_cycle: bool):
    """The calls `cli._cmd_<kind>` makes, each under its own span."""
    sc = t.call("cli.load_scenario", cli.load_scenario, cmd.source)
    if cmd.kind == "weakvalue":
        t.call("quantum.weak_value", weak_value, sc.observables[cmd.obs], sc.pre, sc.post)
    elif cmd.kind == "abl":
        obs = sc.observables[cmd.obs]
        t.call("histories.abl_probability", abl_probability, obs, sc.pre, sc.post, cmd.outcome)
    elif cmd.kind in ("consistency", "weight"):
        fam = t.call("histories.family_for", sc.family_for, cmd.obs)
        if cmd.kind == "consistency":
            t.call("histories.consistency", consistency, fam)
        else:
            t.call("histories.conditional_weight", conditional_weight, fam.e, fam.d, fam.f)
    elif cmd.kind == "verify":
        checks = t.call("scenarios.check_all", sc.check_all)
        if first_cycle:
            t.counts["scenarios.checks"] += len(checks)
    elif cmd.kind == "simulate":
        cfg = PointerConfig(delta=cmd.delta, coupling=cmd.coupling)
        branches = t.call("pointer.entangle", entangle, sc.observables[cmd.obs], sc.pre, cfg)
        amps, _ = t.call("pointer.postselect", postselect, branches, sc.post, cfg)
        density = t.call("pointer.pointer_density", pointer_density, amps, cfg)
        ens = t.call("pointer.sample", sample, density, cmd.n, cmd.seed)
        t.counts["pointer.draws"] += cmd.n
        if cmd.density_out:
            t.call("pointer.write_density_csv", write_density_csv, density, cmd.density_out)
            t.counts["pointer.csv_rows"] += len(density.xs) + 1
            if first_cycle:
                t.counts["pointer.csv_bytes"] += os.path.getsize(cmd.density_out)
        if cmd.samples_out:
            t.call("pointer.write_samples_csv", write_samples_csv, ens, cmd.samples_out)
            t.counts["pointer.csv_rows"] += cmd.n + 1
            if first_cycle:
                t.counts["pointer.csv_bytes"] += os.path.getsize(cmd.samples_out)
        cmd.remove_outputs()


def replay(t: Tracer, units: list[list[Command]], files: dict[str, int], budget: float):
    """Replay whole cycles of the units until `budget` seconds have passed.

    At least one cycle runs; counts cover the first cycle only.  A command
    that raises is abandoned; its exception is kept in `failures` and on
    the span that raised it.
    """
    start, cycle = time.perf_counter(), 0
    with t.traced_attrs([(scenarios, "builtin"), (scenfile, "parse"), (scenfile, "to_scenario")]):
        while cycle == 0 or time.perf_counter() - start < budget:
            for unit in units:
                for cmd in unit:
                    t._cmd = len(t.commands)
                    t.commands.append(cmd)
                    if cycle == 0:
                        t.counts["scenfile.lines"] += files.get(cmd.source, 0)
                    try:
                        _replay(cmd, t, cycle == 0)
                    except Exception as exc:
                        t.failures.append((cmd.group, repr(exc)))
                    t._cmd = None
            cycle += 1


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def probe_dims(t: Tracer, files: dict[str, int]):
    """Off-path quantum probes on each dim-scale file's observable X."""
    repeats = PROBE_REPEATS
    for path in files:
        sc = scenfile.to_scenario(scenfile.parse(Path(path).read_text(encoding="utf-8")))
        if sc.pre.dim not in DIMS:
            continue
        d, obs = sc.pre.dim, sc.observables["X"]
        t.probes[f"quantum.observable_init_ms.d{d}"] = _median_ms(
            lambda: Observable(obs.mat, obs.eigenvalues, obs.projectors), repeats)
        t.probes[f"quantum.spectral_decompose_ms.d{d}"] = _median_ms(
            lambda: spectral_decompose(CMat(obs.mat.entries, obs.labels)), repeats)
        t.probes[f"quantum.eigh_ms.d{d}"] = _median_ms(
            lambda: np.linalg.eigh(obs.mat.entries), repeats)


def probe_sample_memory(t: Tracer, cmd: Command):
    """Peak traced allocation of one `sample` call, apart from the timings."""
    sc = cli.load_scenario(cmd.source)
    cfg = PointerConfig(delta=cmd.delta, coupling=cmd.coupling)
    amps, _ = postselect(entangle(sc.observables[cmd.obs], sc.pre, cfg), sc.post, cfg)
    density = pointer_density(amps, cfg)
    tracemalloc.start()
    try:
        sample(density, cmd.n, cmd.seed)
        t.probes["pointer.sample_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _suffix(cmd: Optional[Command]) -> str:
    return f".d{cmd.dim}" if cmd is not None and cmd.dim in DIMS else ""


#: Span name -> (metric stem, unit scale from ms).
_CALL_METRICS = {
    "scenarios.builtin": ("scenarios.build_ms", 1.0),
    "scenarios.check_all": ("scenarios.check_all_ms", 1.0),
    "scenfile.parse": ("scenfile.parse_ms", 1.0),
    "scenfile.to_scenario": ("scenfile.to_scenario_ms", 1.0),
    "quantum.weak_value": ("quantum.weak_value_us", 1e3),
    "histories.family_for": ("histories.family_us", 1e3),
    "histories.consistency": ("histories.consistency_us", 1e3),
    "histories.abl_probability": ("histories.abl_us", 1e3),
    "histories.conditional_weight": ("histories.weight_us", 1e3),
    "pointer.entangle": ("pointer.entangle_us", 1e3),
    "pointer.postselect": ("pointer.postselect_us", 1e3),
    "pointer.pointer_density": ("pointer.density_ms", 1.0),
    "pointer.sample": ("pointer.sample_ms", 1.0),
    "pointer.write_samples_csv": ("pointer.samples_csv_ms", 1.0),
    "pointer.write_density_csv": ("pointer.density_csv_ms", 1.0),
}

#: Suffixed metrics exist only for the layers a scenario's size drives.
_SIZED = ("scenfile", "quantum", "histories")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans, counts and probes of one tracer."""
    samples = defaultdict(list)
    total_ms = Counter()
    for s in t.spans:
        if s.error or s.name not in _CALL_METRICS:
            continue
        stem, scale = _CALL_METRICS[s.name]
        cmd = t.commands[s.cmd] if s.cmd is not None else None
        name = stem + (_suffix(cmd) if s.layer in _SIZED else "")
        samples[name].append(s.ms * scale)
        total_ms[s.name] += s.ms
    out = {name: statistics.median(v) for name, v in samples.items()}
    if t.counts["pointer.draws"] and total_ms["pointer.sample"]:
        out["pointer.sample_ns_per_draw"] = total_ms["pointer.sample"] * 1e6 / t.counts["pointer.draws"]
    csv_ms = total_ms["pointer.write_samples_csv"] + total_ms["pointer.write_density_csv"]
    if t.counts["pointer.csv_rows"] and csv_ms:
        out["pointer.csv_ns_per_row"] = csv_ms * 1e6 / t.counts["pointer.csv_rows"]
    serialize = [s.ms for s in t.spans if s.name == "scenfile.serialize"]
    if serialize:
        out["scenfile.serialize_ms"] = sum(serialize)
    for name in ("scenarios.checks", "scenfile.lines", "pointer.csv_bytes"):
        if t.counts[name]:
            out[name] = t.counts[name]
    out.update(t.probes)
    return out
