"""The record types: no generated code at import, immutable where they were frozen.

Records are `typing.NamedTuple`s, or `__slots__` classes where they mutate
or check their input.  A `@dataclass`
`exec`s its generated methods when its module is imported, which every
command pays at start-up.
"""

import ast
from pathlib import Path

import pytest

from twodist import coherent, designs, dioph, geometry
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
            "itself cost about 25-30 ms of every command's start-up; use typing.NamedTuple, "
            "or a __slots__ class where the record mutates or checks its input")


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


def test_mutable_reports_have_no_instance_dict(lisonek_projector):
    # __slots__ records take no per-instance dict and refuse unknown fields
    report = dioph.RegionScanReport()
    report.points_checked["r"] = 1
    for record in (report, lisonek_projector, coherent.verify_axioms(
            lisonek_projector.cc), dioph.classify(1)):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1
