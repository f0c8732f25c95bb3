import json
import os
from pathlib import Path

import pytest

from twodist.cli import COMMANDS
from twodist.coherent import from_design, projector_and_gram
from twodist.designs import lisonek_design, load_design

from oracles import complement_design, label_matrix

DATA_DIR = Path(__file__).parent / "data"
# the box `twodist regions` scans when given no bound: zmin, zmax and xmax off its option row
REGIONS_BOX = {flag[2:]: default for flag, _, default, _, _ in COMMANDS["regions"][3]
               if flag != "--which"}

# pytest's `pythonpath` setting reaches only this process; tests that start
# `python -m twodist.cli` need src on the child's path as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def lisonek():
    return lisonek_design()


@pytest.fixture(scope="session")
def lisonek_cc(lisonek):
    return from_design(lisonek)


@pytest.fixture(scope="session")
def lisonek_projector(lisonek_cc):
    return projector_and_gram(lisonek_cc)


@pytest.fixture(scope="session")
def complement_projector(lisonek):
    return projector_and_gram(from_design(complement_design(lisonek)))


@pytest.fixture(scope="session")
def witt_design():
    return load_design(DATA_DIR / "witt_4_23_7_1.json")


@pytest.fixture(scope="session")
def witt_projector(witt_design):
    return projector_and_gram(from_design(witt_design))


@pytest.fixture()
def lisonek_design_file(tmp_path, lisonek):
    path = tmp_path / "lisonek.json"
    path.write_text(json.dumps({"m": lisonek.m, "blocks": lisonek.blocks}))
    return path


def _relation_rows(cc, coefficients) -> list:
    """Dense rows of sum_k coefficients[k] A_{k+1}: entry (a, b) is the
    coefficient of the relation labelled at (a, b) by the oracle's label matrix.

    Filled by plain Python lookups, not by the numpy indexing that builds
    the dense oracle's integer form of E (oracles.integer_form).
    """
    labels = label_matrix(cc).tolist()
    assert {k for row in labels for k in row} <= set(range(1, 10))
    return [[coefficients[k - 1] for k in row] for row in labels]


@pytest.fixture(scope="session")
def relation_rows():
    return _relation_rows
