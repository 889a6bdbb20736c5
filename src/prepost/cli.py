"""Command-line front end: load a scenario, run one computation, print results.

Scenario sources are either `builtin:NAME` or a path to a scenario file.
`main` checks in one order: the source, then `--obs` (every command but
`verify`), then the command's own options.  Results go to stdout as
key-sorted `key = value` lines (complex values are split into .re/.im), so
identical invocations produce identical bytes.  Every record holds `command`
and `scenario`, and `obs` unless the command is `verify`.
Failures print a single machine-parsable record to stderr:

    error kind=ParseError line=3 col=7 msg="expected '=', got 'a'"

Exit codes: 0 success, 1 usage, parse or file error, 2 computation error
(orthogonal pre/post, a weak value that is not a finite double, impossible
post-selection, and similar) or a `verify` whose fixture checks fail, which
prints its record and then `error kind=FixtureMismatch`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import scenarios
from .errors import (
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

    # No option looks like a number, so a "-" token that float() reads is a value:
    # argparse's own pattern (Python 3.10-3.12) takes "-1e-3" for an option.
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


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
        try:
            return scenarios.builtin(source[len("builtin:") :])
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    if not os.path.isfile(source):
        raise UsageError(f"no such scenario file: {source}")
    from . import scenfile  # not at the top: a usage error needs no parser

    with open(source, "rb") as handle:
        text = scenfile.decode(handle.read())
    name = os.path.splitext(os.path.basename(source))[0]
    return scenfile.to_scenario(scenfile.parse(text), name=name)


# Each command gets its args, scenario, observable (None for verify) and the
# record `main` started; it adds its keys, and verify returns its failure text.


def _cmd_weakvalue(args, sc, obs, results):
    report = weak_value(obs, sc.pre, sc.post)
    _put_complex(results, "wv", report.value)
    results["wv.class"] = report.wv_class.value
    _put_complex(results, "overlap", report.overlap)


def _cmd_consistency(args, sc, obs, results):
    report = consistency(sc.family_for(args.obs))
    results["consistent"] = report.consistent
    results["failure_mode"] = report.failure_mode.value
    results["factor.overlap_sq"] = report.factor_overlap_sq
    _put_complex(results, "functional", report.functional)
    _put_complex(results, "factor.wv", report.factor_wv)
    _put_complex(results, "factor.wv_conj", report.factor_wv_conj)


def _cmd_abl(args, sc, obs, results):
    results["outcome"] = float(args.outcome)
    results["abl"] = abl_probability(obs, sc.pre, sc.post, args.outcome)


def _cmd_weight(args, sc, obs, results):
    fam = sc.family_for(args.obs)
    results["weight"] = conditional_weight(fam.e, fam.d, fam.f)


def _cmd_simulate(args, sc, obs, results):
    from . import pointer  # only simulate samples, so only simulate loads it

    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed < 2**128:
        raise UsageError(f"--seed must be in [0, 2**128), got {args.seed}")
    outs = (args.samples_out, args.density_out)
    if all(outs) and os.path.realpath(outs[0]) == os.path.realpath(outs[1]):
        raise UsageError(f"--samples-out and --density-out name one file: {outs[0]}")
    try:
        cfg = pointer.PointerConfig(delta=args.delta, x0=args.x0, coupling=args.coupling)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ens = pointer.simulate(obs, sc.pre, sc.post, cfg, args.n, args.seed)
    if args.density_out:
        pointer.write_density_csv(ens.density, args.density_out)
    if args.samples_out:
        pointer.write_samples_csv(ens, args.samples_out)
    results["delta"] = float(args.delta)
    results["n"] = args.n
    results["seed"] = args.seed
    results["mean"] = ens.mean
    results["variance"] = ens.variance
    results["rate"] = ens.postselect_rate
    results["estimate"] = pointer.weak_value_estimate(ens, cfg)


def _cmd_verify(args, sc, obs, results) -> Optional[str]:
    checks = sc.check_all()
    for check in checks:
        results[f"check.{check.name}"] = "pass" if check.passed else "fail"
    failed = sum(not check.passed for check in checks)
    results["checks.total"] = str(len(checks))
    results["checks.failed"] = str(failed)
    return f"{failed} of {len(checks)} checks failed" if failed else None


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
        if name != "verify":
            p.add_argument("--obs", required=True)
        p.set_defaults(func=func)
        return p

    add("weakvalue", _cmd_weakvalue, "weak value of an observable")

    add("consistency", _cmd_consistency, "history-family consistency report")

    p = add("abl", _cmd_abl, "ABL probability of an outcome")
    p.add_argument("--outcome", type=float, required=True)

    add("weight", _cmd_weight, "conditional weight of the eigenvalue-1 event")

    p = add("simulate", _cmd_simulate, "Gaussian-pointer Monte Carlo")
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
        sc = load_scenario(args.source)
        results = {"command": args.command, "scenario": sc.name}
        obs = None
        if hasattr(args, "obs"):  # every command but verify
            if args.obs not in sc.observables:
                raise UsageError(
                    f"scenario {sc.name!r} has no observable {args.obs!r}; available: "
                    + ", ".join(sorted(sc.observables))
                )
            obs = sc.observables[args.obs]
            results["obs"] = args.obs
        failure = args.func(args, sc, obs, results)
        _emit(results)
        if failure:
            _emit_error("FixtureMismatch", failure)
            return 2
        return 0
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
