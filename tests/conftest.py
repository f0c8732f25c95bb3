import json
import os
from pathlib import Path

import numpy as np
import pytest

from twodist.coherent import from_design, projector_and_gram
from twodist.designs import complement_design, lisonek_design, load_design

DATA_DIR = Path(__file__).parent / "data"

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


@pytest.fixture()
def lisonek_design_file(tmp_path, lisonek):
    path = tmp_path / "lisonek.json"
    path.write_text(json.dumps(lisonek.to_json_dict()))
    return path


def _relation_rows(cc, coefficients) -> list:
    """Dense rows of sum_k coefficients[k] A_{k+1}, filled relation by relation.

    Built from the 0/1 matrices in cc.relations alone, so it stays independent
    of the relation label matrix the library indexes E with.
    """
    rows = [[None] * cc.size for _ in range(cc.size)]
    for value, relation in zip(coefficients, cc.relations):
        for a, b in zip(*np.nonzero(relation)):
            rows[a][b] = value
    assert all(v is not None for row in rows for v in row)
    return rows


@pytest.fixture(scope="session")
def relation_rows():
    return _relation_rows
