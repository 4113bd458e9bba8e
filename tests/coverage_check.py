"""Coverage check: every executable line of ndrank runs in the Tier-1 suite.

Run it from the repository root:

    PYTHONPATH=src python tests/coverage_check.py

It runs the suite (``pytest -q --continue-on-collection-errors`` on
``tests/``) under the standard library's line tracer,
``trace.Trace(count=1, trace=0)``, which counts the lines run; that takes
about six times as long as the plain suite.  A module's executable lines
are those of ``trace._find_executable_linenos``.  ndrank is imported first
inside the traced run, so the module-level lines that run at import are
seen to run like any other.  Code that runs only in a subprocess (the
demos, the start-up check) is not seen.

Exits 1 if the suite fails, if an executable line of ``src/ndrank`` never
runs and ``ALLOWED`` does not name it, or if an entry of ``ALLOWED`` names
no line left unrun (so the list stays exact).  ``ALLOWED`` is keyed by file
and stripped source text, not line number, so an edit elsewhere in a file
leaves it valid.
"""

import os
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ndrank"

# Lines the suite never runs, by file and stripped source text, with why
# each is left unrun rather than tested or deleted.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: the console script and the tests call main()",
}


def unrun_lines(counts: dict) -> list:
    """``(file name, line number, stripped text)`` of every executable line
    of the package that ``counts`` never saw."""
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = os.path.realpath(path)
        for lineno in sorted(trace._find_executable_linenos(str(path))):
            # line 0 is no source line: it marks a code object's start
            if lineno > 0 and counts.get((name, lineno), 0) == 0:
                unrun.append((path.name, lineno, lines[lineno - 1].strip()))
    return unrun


def main(argv: list) -> int:
    tracer = trace.Trace(count=1, trace=0)
    code = tracer.runfunc(pytest.main, ["-q", "--continue-on-collection-errors",
                                        str(ROOT / "tests"), *argv])
    if code != 0:
        print(f"coverage check: the suite failed (pytest exit code {code})")
        return 1
    counts = {(os.path.realpath(f), n): c for (f, n), c in tracer.results().counts.items()}
    unrun = unrun_lines(counts)
    bad = [(f, n, text) for f, n, text in unrun if (f, text) not in ALLOWED]
    stale = sorted(set(ALLOWED) - {(f, text) for f, _, text in unrun})
    for f, n, text in bad:
        print(f"src/ndrank/{f}:{n}: never runs: {text}")
    for f, text in stale:
        print(f"src/ndrank/{f}: allowed but no unrun line reads: {text}")
    allowed = len(unrun) - len(bad)
    print(f"coverage check: {len(bad)} unrun lines, {allowed} allowed, {len(stale)} stale entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
