"""Mutation sweep of the pinned tolerance comparisons.

Each mutant multiplies or divides one comparison's tolerance by 100 in a copy of
`src/`, `tests/` and `pyproject.toml` under a temporary directory, then runs
`pytest -x -q` there.
A mutant that passes every test survived: no behavioural test holds that
threshold.  The unmutated copy runs first and must pass.

    python tools/mutate_tolerances.py

Prints one line per mutant and exits 1 if any mutant survived.
Standard library only; each survivor costs one full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file under src/prepost, the comparison's text, its tolerance name, what it decides)
COMPARISONS = [
    ("quantum.py", "scaled_tol(REAL_TOL, eigenvalues)", "REAL_TOL", "classify: real weak value"),
    ("quantum.py", "scaled_tol(SHARP_TOL, eigenvalues)", "SHARP_TOL", "classify: sharp weak value"),
    ("quantum.py", "match = scaled_tol(DEGENERACY_TOL, self.eigenvalues)", "DEGENERACY_TOL",
     "outcome_index: outcome matches"),
    ("histories.py", "consistent = r <= CONSISTENCY_TOL", "CONSISTENCY_TOL",
     "consistency: verdict"),
    ("histories.py", "if abs(overlap) <= ZERO_TOL:\n        raise UndefinedWeight", "ZERO_TOL",
     "conditional_weight: undefined"),
    ("scenfile.py", "abs(norm - 1.0) <= DECLARED_NORM_TOL", "DECLARED_NORM_TOL",
     "to_scenario: declared norm"),
]


def mutants():
    for name, text, tol, what in COMPARISONS:
        for op in ("*", "/"):
            yield name, text, text.replace(tol, f"({tol} {op} 100)", 1), f"{what}, {tol} {op} 100"


def passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    src = ROOT / "src" / "prepost"
    stale = [what for name, old, _, what in mutants()
             if (src / name).read_text(encoding="utf-8").count(old) != 1]
    if stale:
        print("comparisons not found exactly once:", *sorted(set(stale)), sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        if not passes(tree):
            print("the unmutated copy fails its tests; no mutant can be judged")
            return 1
        survivors = 0
        for name, old, new, what in mutants():
            path = tree / "src" / "prepost" / name
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(old, new), encoding="utf-8")
            killed = not passes(tree)
            path.write_text(source, encoding="utf-8")
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}  {name}: {what}", flush=True)
        print(f"{survivors} survivors of {2 * len(COMPARISONS)} mutants")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
