"""The record types: one form, no generated annotations at import, immutable.

Every immutable record is a `collections.namedtuple` subclass with empty
`__slots__`; a record that checks its input does so in `__new__`, and its
`_make`, which `_replace` calls, goes through `__new__` too.  Only
`cli.CommandReport`, which its command handlers append to, is a `__slots__`
class with its own `__init__`.  A `@dataclass` `exec`s its generated
methods when its module is imported, and a `typing.NamedTuple` turns every
field annotation into a `ForwardRef`: costs every command pays at start-up.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from twodist import designs, dioph, geometry
from twodist.designs import IncidenceDesign
from twodist.errors import DesignError

SRC = Path(__file__).parent.parent / "src" / "twodist"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    for node in ast.walk(ast.parse(path.read_text())):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        assert "dataclasses" not in names, (
            f"{path.name}:{node.lineno} imports dataclasses: its 27 decorators and the module "
            "itself cost about 25-30 ms of every command's start-up; subclass "
            "collections.namedtuple, checking any input in __new__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_typing_namedtuple(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            assert "NamedTuple" not in [a.name for a in node.names], (
                f"{path.name}:{node.lineno} imports typing.NamedTuple: it turns each field "
                "annotation into a ForwardRef when the class is made, 4-6 ms of every "
                "command's start-up over the records of src/twodist; subclass "
                "collections.namedtuple instead")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_relies_on_assert(path):
    # `python -O` strips assert statements; checks must raise explicitly
    asserts = [n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]
    assert not asserts, f"{path.name} has assert statements at lines {asserts}"


def test_immutable_records_refuse_assignment(lisonek, lisonek_cc):
    records = [
        (designs.derive_parameters(9, 2, 1, 0), "m"),
        (dioph.solve_quadratic("z^2 - 1", 1, 0, -1), "roots"),
        (geometry.two_distance_classify(geometry.theoretical_spectrum(2, 9, 1, 0)), "letter"),
        (lisonek_cc, "points"),
        (lisonek, "m"),
        (lisonek, "blocks"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del lisonek.blocks
    assert lisonek.m == 9 and lisonek.block_count == 36


def test_records_keep_equality_and_repr(lisonek):
    same = IncidenceDesign(9, tuple(lisonek.blocks))
    assert same == lisonek and hash(same) == hash(lisonek)
    assert IncidenceDesign(9, lisonek.blocks[1:]) != lisonek
    assert repr(IncidenceDesign(3, ((0, 1),))) == "IncidenceDesign(m=3, blocks=((0, 1),))"
    assert IncidenceDesign(3, ((0, 1),)) == (3, ((0, 1),))  # a tuple, as every record is


@pytest.mark.parametrize("m, blocks, fragment", [
    (0, ((0,),), "point count must be positive"),
    (4, (), "at least one block"),
    (4, ((0, 1), (0, 1, 2)), "block 1 has size 3, expected 2"),
    (4, ((0, 4),), "block 0 has an entry outside [0, 4)"),
    (4, ((1, 0),), "block 0 is not strictly ascending"),
])
def test_incidence_design_checks_at_construction(m, blocks, fragment):
    with pytest.raises(DesignError) as err:
        IncidenceDesign(m, blocks)
    assert fragment in str(err.value)


@pytest.mark.parametrize("build, fragment", [
    (lambda d: d._replace(m=0), "point count must be positive"),
    (lambda d: IncidenceDesign._make((0, d.blocks)), "point count must be positive"),
    (lambda d: d._replace(blocks=((1, 0),)), "block 0 is not strictly ascending"),
])
def test_design_copies_go_through_the_checks(lisonek, build, fragment):
    # the namedtuple's own _make, which _replace calls, builds with tuple.__new__
    with pytest.raises(DesignError, match=fragment):
        build(lisonek)


def test_design_copies_keep_the_design(lisonek):
    assert lisonek._replace(m=10) == IncidenceDesign(10, lisonek.blocks)
    for same in (pickle.loads(pickle.dumps(lisonek)), copy.deepcopy(lisonek)):
        assert type(same) is IncidenceDesign and same == lisonek


def test_reports_have_no_instance_dict(lisonek_projector):
    # records with empty __slots__ take no per-instance dict and refuse any assignment
    report = dioph.RegionScanReport({"r": 1}, [])
    for record in (report, lisonek_projector, lisonek_projector.cc):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    with pytest.raises(AttributeError):
        report.points_checked = {}
