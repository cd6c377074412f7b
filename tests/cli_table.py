"""The CLI surface as one golden table: one section per argv, recording its
exit code, stdout and stderr.

Every row runs `matrixcode.cli.main` in process from the repository root, so
paths in the table are relative to it.  `tests/test_cli_table.py` compares
each row with `tests/golden/cli_table.txt`; rewrite the table on purpose with

    PYTHONPATH=src python tests/cli_table.py --write

and name every changed row in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "cli_table.txt"

CORPUS = ["primes", "primes0", "primes1", "primes2", "mrg0", "mrg1", "mrg2",
          "emerge", "turing", "decnum"]
FIXTURES = ["bad_builtin", "bad_dup_state", "bad_from_halt", "bad_into_start",
            "bad_undeclared", "corrupted-primes", "overlap", "tiny"]
FILES = (["src/matrixcode/corpus/%s.mxc" % name for name in CORPUS]
         + ["tests/fixtures/%s.mxc" % name for name in FIXTURES])

_MERGE = ("left=[1,4]", "right=[2,3]", "left0=[1,4]", "right0=[2,3]")
INPUTS = {
    "primes": ("N=3",), "primes0": ("N=3",), "primes1": ("N=3",), "primes2": ("N=3",),
    "mrg0": _MERGE, "mrg1": _MERGE, "mrg2": _MERGE, "emerge": _MERGE,
    "turing": ("t=tape[A(()A]@1",), "decnum": ("left=[-1,1,2,3]",),
}


def _corpus(name):
    return "src/matrixcode/corpus/%s.mxc" % name


def _inputs(name):
    return tuple(arg for binding in INPUTS[name] for arg in ("--input", binding))


# verify on domains wider than the files' own
WIDENED = [
    ("verify", _corpus("primes"), "--domain", "j=0..23"),
    ("verify", _corpus("primes1"), "--domain", "k=1..5"),
    ("verify", "tests/fixtures/corrupted-primes.mxc", "--domain", "j={5,7}", "--domain", "n=0..1"),
    ("verify", _corpus("mrg2"), "--domain", "u=0..2"),
]

ERRORS = [
    ("identities", "--trials", "0"),
    ("identities", "--trials", "-3"),
    ("bench-merge", "--pairs", "0"),
    ("bench-merge", "--pairs", "-2"),
    ("verify", _corpus("primes1"), "--domain", "N[]=0..1"),
    ("closure", "tests/fixtures/tiny.mxc", "--domain", "x[]=0..1"),
    ("verify", _corpus("primes1"), "--domain", "zz=0..3"),
    ("closure", "tests/fixtures/tiny.mxc", "--domain", "zz=0..3"),
    ("verify", _corpus("primes1"), "--domain", "N=3..1"),
    ("verify", _corpus("primes1"), "--domain", "N={1,2"),
    ("closure", _corpus("mrg2"), "--domain", "left=stream(-1..0, 0..1)"),
    ("compile", _corpus("mrg2"), "--out", "tests/golden/no-such-directory/x.c"),
    ("run", _corpus("primes"), "--input", "N=99999999999999999999"),
    ("run", _corpus("mrg2"), "--input", "left=[1,9223372036854775808]"),
    ("run", _corpus("turing"), "--input", "t=tape[AB"),
    ("run", _corpus("primes"), "--input", "N=3", "--input", "ZZ=5"),
    ("run", _corpus("primes"), "--input", "N"),
    ("run", _corpus("primes"), "--input", "N=4611686018427387904"),
    ("verify", _corpus("primes1"), "--domain", "N=1..4611686018427387904"),
    # no --input to size p, no step to take, and a negative depth
    ("run", _corpus("primes")),
    ("run", _corpus("primes"), "--input", "N=3", "--steps", "0"),
    ("enumerate", _corpus("primes"), "--input", "N=3", "--depth", "-1"),
]


def rows():
    """Every argv of the table, in table order."""
    out = []
    for path in FILES:
        out += [("render", path), ("verify", path), ("closure", path), ("compile", path),
                ("enumerate", path, "--depth", "6")]
    for name in CORPUS:
        out += [("run", _corpus(name), *_inputs(name), "--mode", mode)
                for mode in ("det", "all")]
    out += [("identities", "--trials", "20", "--seed", "0"),
            ("bench-merge", "--pairs", "4", "--seed", "1")]
    return out + WIDENED + ERRORS


def section(argv):
    """One row's section: the argv, then exit code, stdout and stderr."""
    from matrixcode.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return "@@ matrixcode %s\n@@ exit %d\n@@ stdout\n%s@@ stderr\n%s" % (
        " ".join(argv), code, out.getvalue(), err.getvalue())


def sections(text):
    """The table's sections keyed by their first line."""
    parts = ("\n" + text).split("\n@@ matrixcode ")[1:]
    return {p.split("\n", 1)[0]: p for p in parts}


@contextlib.contextmanager
def at_root():
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(here)


def render():
    with at_root():
        return "".join(section(argv) for argv in rows())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(render(), encoding="utf-8")
        print("wrote %s, %d rows" % (TABLE.relative_to(ROOT), len(rows())))
    else:
        sys.exit("usage: python tests/cli_table.py --write")
