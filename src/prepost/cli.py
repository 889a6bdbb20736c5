"""Command-line front end: load a scenario, run one computation, print results.

Scenario sources are either `builtin:NAME` or a path to a scenario file.
Results go to stdout as key-sorted `key = value` lines (complex values are
split into .re/.im), so identical invocations produce identical bytes.
Failures print a single machine-parsable record to stderr:

    error kind=ParseError line=3 col=7 msg="expected '=', got 'a'"

Exit codes: 0 success, 1 usage, parse or file error, 2 computation error
(orthogonal pre/post, impossible post-selection, and similar).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from . import scenarios
from .errors import (
    ParseError,
    PointerRangeError,
    PositionedError,
    PostSelectionImpossible,
    ScenarioFixtureError,
    UndefinedABL,
    UndefinedWeakValue,
    UndefinedWeight,
    UnknownEigenvalue,
)
from .histories import abl_probability, conditional_weight, consistency
from .quantum import weak_value
from .scenarios import Scenario

_COMPUTATION_ERRORS = (
    UndefinedWeakValue,
    UndefinedABL,
    UndefinedWeight,
    PostSelectionImpossible,
    ScenarioFixtureError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for computation
    # errors, so route usage problems through the normal error path instead.
    def error(self, message):
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    if x == 0:
        x = 0.0
    return format(float(x), ".12g")


def _emit(results: dict):
    for key in sorted(results):
        value = results[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt_float(value)
        else:
            text = str(value)
        print(f"{key} = {text}")


def _put_complex(results: dict, key: str, value: Optional[complex]):
    if value is None:
        results[key] = "undefined"
    else:
        results[f"{key}.re"] = float(value.real)
        results[f"{key}.im"] = float(value.imag)


def _emit_error(kind: str, msg: str, line=None, col=None):
    msg = msg.replace("\\", "\\\\").replace('"', '\\"').replace("\n", " ")
    fields = [f"kind={kind}"]
    if line is not None:
        fields.append(f"line={line}")
    if col is not None:
        fields.append(f"col={col}")
    fields.append(f'msg="{msg}"')
    print("error " + " ".join(fields), file=sys.stderr)


def load_scenario(source: str) -> Scenario:
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        if name not in scenarios.BUILTINS:
            raise UsageError(
                f"unknown builtin scenario {name!r}; available: "
                + ", ".join(sorted(scenarios.BUILTINS))
            )
        return scenarios.builtin(name)
    path = Path(source)
    if not path.is_file():
        raise UsageError(f"no such scenario file: {source}")
    from . import scenfile  # only file sources parse, so builtins never load it

    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # line and column as the parser counts them: str.splitlines lines, characters
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}", len(lines), len(lines[-1])
        ) from None
    return scenfile.to_scenario(scenfile.parse(text), name=path.stem)


def _pick_observable(sc: Scenario, name: str):
    if name not in sc.observables:
        raise UsageError(
            f"scenario {sc.name!r} has no observable {name!r}; available: "
            + ", ".join(sorted(sc.observables))
        )
    return sc.observables[name]


def _cmd_weakvalue(args) -> int:
    sc = load_scenario(args.source)
    obs = _pick_observable(sc, args.obs)
    report = weak_value(obs, sc.pre, sc.post)
    results = {"command": "weakvalue", "scenario": sc.name, "obs": args.obs}
    _put_complex(results, "wv", report.value)
    results["wv.class"] = report.wv_class.value
    _put_complex(results, "overlap", report.overlap)
    _emit(results)
    return 0


def _cmd_consistency(args) -> int:
    sc = load_scenario(args.source)
    _pick_observable(sc, args.obs)
    report = consistency(sc.family_for(args.obs))
    results = {
        "command": "consistency",
        "scenario": sc.name,
        "obs": args.obs,
        "consistent": report.consistent,
        "failure_mode": report.failure_mode.value,
        "factor.overlap_sq": report.factor_overlap_sq,
    }
    _put_complex(results, "functional", report.functional)
    _put_complex(results, "factor.wv", report.factor_wv)
    _put_complex(results, "factor.wv_conj", report.factor_wv_conj)
    _emit(results)
    return 0


def _cmd_abl(args) -> int:
    sc = load_scenario(args.source)
    obs = _pick_observable(sc, args.obs)
    value = abl_probability(obs, sc.pre, sc.post, args.outcome)
    _emit(
        {
            "command": "abl",
            "scenario": sc.name,
            "obs": args.obs,
            "outcome": float(args.outcome),
            "abl": value,
        }
    )
    return 0


def _cmd_weight(args) -> int:
    sc = load_scenario(args.source)
    _pick_observable(sc, args.obs)
    fam = sc.family_for(args.obs)
    value = conditional_weight(fam.e, fam.d, fam.f)
    _emit(
        {
            "command": "weight",
            "scenario": sc.name,
            "obs": args.obs,
            "weight": value,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    from . import pointer  # only simulate samples, so only simulate loads it

    sc = load_scenario(args.source)
    obs = _pick_observable(sc, args.obs)
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed < 2**128:
        raise UsageError(f"--seed must be in [0, 2**128), got {args.seed}")
    try:
        cfg = pointer.PointerConfig(delta=args.delta, x0=args.x0, coupling=args.coupling)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ens = pointer.simulate(obs, sc.pre, sc.post, cfg, args.n, args.seed)
    if args.density_out:
        pointer.write_density_csv(ens.density, args.density_out)
    if args.samples_out:
        pointer.write_samples_csv(ens, args.samples_out)
    _emit(
        {
            "command": "simulate",
            "scenario": sc.name,
            "obs": args.obs,
            "delta": float(args.delta),
            "n": args.n,
            "seed": args.seed,
            "mean": ens.mean,
            "variance": ens.variance,
            "rate": ens.postselect_rate,
            "estimate": pointer.weak_value_estimate(ens, cfg),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    sc = load_scenario(args.source)
    checks = sc.check_all()
    results = {"command": "verify", "scenario": sc.name}
    failed = 0
    for check in checks:
        results[f"check.{check.name}"] = "pass" if check.passed else "fail"
        if not check.passed:
            failed += 1
    results["checks.total"] = str(len(checks))
    results["checks.failed"] = str(failed)
    _emit(results)
    if failed:
        _emit_error("FixtureMismatch", f"{failed} of {len(checks)} checks failed")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scencli",
        description="Weak values, history consistency, ABL probabilities, "
        "conditional weights, and Gaussian-pointer simulation for "
        "pre/post-selected scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source", help="scenario file path or builtin:NAME")
        p.set_defaults(func=func)
        return p

    p = add("weakvalue", _cmd_weakvalue, "weak value of an observable")
    p.add_argument("--obs", required=True)

    p = add("consistency", _cmd_consistency, "history-family consistency report")
    p.add_argument("--obs", required=True)

    p = add("abl", _cmd_abl, "ABL probability of an outcome")
    p.add_argument("--obs", required=True)
    p.add_argument("--outcome", type=float, required=True)

    p = add("weight", _cmd_weight, "conditional weight of the eigenvalue-1 event")
    p.add_argument("--obs", required=True)

    p = add("simulate", _cmd_simulate, "Gaussian-pointer Monte Carlo")
    p.add_argument("--obs", required=True)
    p.add_argument("--delta", type=float, default=10.0)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--density-out")
    p.add_argument("--samples-out")

    add("verify", _cmd_verify, "re-run a scenario's stored fixture checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, UnknownEigenvalue) as exc:
        _emit_error("Usage", str(exc))
        return 1
    except PositionedError as exc:
        msg = exc.args[0] if exc.args else str(exc)
        _emit_error(type(exc).__name__, msg, line=exc.line, col=exc.col)
        return 1
    except (OSError, PointerRangeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except MemoryError as exc:  # numpy raises its own subclass, _ArrayMemoryError
        _emit_error("MemoryError", str(exc))
        return 1
    except _COMPUTATION_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2


def run():
    """Entry point of `python -m prepost` and `scencli`: run `main()`, flush, `os._exit`.

    Interpreter teardown (module cleanup, final collections) takes tens of
    milliseconds and writes nothing here: `pointer.sample` and the CSV writers
    wait for their worker processes, the writers close their files, and
    prepost registers no atexit hook.
    A stdout that cannot be flushed (a pipe whose reader has gone) gives one
    error record and exit 1, as unbuffered output does.  An exception that
    escapes `main()` ends the process the usual way.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _emit_error(type(exc).__name__, str(exc))
        code = 1
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
