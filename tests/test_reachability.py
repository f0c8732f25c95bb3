"""Every function in src/twodist runs in a command, a demo or the benchmark.

A child interpreter installs `sys.setprofile` before it imports
`twodist.cli`, so calls made at import time count, and then runs the golden
command lines of test_cli_golden, the exit-code and usage-error contracts of
test_cli (without the rows that inject a failure), the demos and the
benchmark's library entry `dioph.y2_curve_search`.  Any `def` under
src/twodist that the child never entered fails the test unless ALLOWLIST
names it with the reason it stays.  Code only a test calls belongs in
tests/, as a named oracle beside the tests that use it.

The rule holds below the def too, where a profile of calls cannot see: a
branch, a parameter or a record field that only tests reach is dropped
from src/twodist as well.  The child run checks whole defs; a scan of the
source checks record fields (`test_every_record_field_is_read`).
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import EXIT_CODE_CONTRACT, USAGE_ERRORS, write_contract_files
from test_cli_golden import CASES as GOLDEN_ARGV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twodist"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# what a command, a demo or the benchmark runs
READERS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")

# module:qualified name -> why it stays although the run above never calls it
ALLOWLIST = {
    "cli:main": "the console script; it only wraps dispatch, which the child calls",
    "cli:CommandReport.fail": "runs only when a proof fails",
    "designs:IncidenceDesign._make": "sends the namedtuple's _make and _replace through the "
                                     "checks of __new__; no command copies a design",
    "exactnum:QuadExt.__hash__": "value semantics: equal values hash equal",
    "exactnum:QuadExt.__repr__": "value semantics: what a failing comparison prints",
    "exactnum:QuadExt.__bool__": "value semantics: zero is false, as for int and Fraction",
    "polynomials:Poly.__hash__": "value semantics: equal polynomials hash equal",
    "polynomials:Poly.__repr__": "verify_identities prints it when a residue is nonzero",
}

CHILD = """
import contextlib, io, json, runpy, sys

job = json.load(sys.stdin)
seen = set()


def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(record)
import twodist.cli
from twodist import dioph

sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for argv in job["argv"]:
        twodist.cli.dispatch(argv)
    for path in job["demos"]:
        runpy.run_path(path, run_name="__main__")
    dioph.y2_curve_search(3, 40, -5, 5)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in seen})))
"""


def source_defs() -> dict:
    """(path, first line) -> "module:qualified name" of every def under SRC.

    The first line is the one a code object reports: a decorator's, when
    the def has one.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = f"{path.stem}:{name}"
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def reached_defs(tmp_path: Path) -> set:
    write_contract_files(tmp_path)
    argv = list(GOLDEN_ARGV)
    argv += [[a.replace("{tmp}", str(tmp_path)) for a in p.values[0]]
             for p in EXIT_CODE_CONTRACT if p.values[2] is None]
    argv += [a for a, _ in USAGE_ERRORS]
    job = {"argv": argv, "demos": [str(p) for p in DEMOS]}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(job), cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    defs = source_defs()
    return {defs[(Path(f).resolve(), line)] for f, line in json.loads(result.stdout)
            if (Path(f).resolve(), line) in defs}


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    return reached_defs(tmp_path_factory.mktemp("contract"))


def test_every_def_is_reached_or_allowlisted(reached):
    unreached = sorted(set(source_defs().values()) - reached - set(ALLOWLIST))
    assert not unreached, (
        "no command, demo or benchmark entry calls these; delete them, or move them "
        f"to tests/ as an oracle: {unreached}")


def test_allowlist_names_only_unreached_defs(reached):
    defs = set(source_defs().values())
    assert not set(ALLOWLIST) - defs, "allowlist entries that name no def"
    assert not set(ALLOWLIST) & reached, "allowlist entries that the run reaches"


def record_fields() -> dict:
    """Every record field under SRC, as "module:Class.field" -> field.

    A record's fields are the field string of its `namedtuple(...)` base,
    and the names in its `__slots__`.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = [name for base in node.bases if isinstance(base, ast.Call)
                     and isinstance(base.func, ast.Name) and base.func.id == "namedtuple"
                     for name in ast.literal_eval(base.args[1]).split()]
            names += [name for stmt in node.body if isinstance(stmt, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
                      for name in ast.literal_eval(stmt.value)]
            out.update({f"{path.stem}:{node.name}.{name}": name for name in names})
    return out


def test_record_field_scan_sees_every_namedtuple_field():
    # a record form the scan does not parse would leave its fields unchecked
    fields = set(record_fields())
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"twodist.{path.stem}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__:
                missing = {f"{path.stem}:{name}.{f}" for f in cls._fields} - fields
                assert not missing, f"record_fields does not find {sorted(missing)}"


def attributes_read() -> set:
    """Every name read as `expr.name` in a file under READERS; assignments do not count."""
    return {node.attr for root in READERS for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_record_field_is_read():
    """A field that no command, demo or benchmark reads goes, as an unreached def does.

    The scan matches names, not objects: a field is taken as read when any
    object under READERS has an attribute read by its name.  So a name read
    on another object hides a field: `args.branch` in cli.py would hide a
    `branch` field that nothing reads.  A field read only by unpacking or
    indexing the tuple is reported, and should then be an attribute read.
    """
    read = attributes_read()
    unread = sorted(key for key, name in record_fields().items() if name not in read)
    assert not unread, f"no command, demo or benchmark reads these record fields: {unread}"
