from pathlib import Path

import pytest

from latlift import FiniteLattice, load_lattice, load_monoid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def l6():
    return load_lattice(FIXTURES / "l6.json")


@pytest.fixture(scope="session")
def two():
    return load_lattice(FIXTURES / "two.json")


@pytest.fixture(scope="session")
def chain3():
    return load_lattice(FIXTURES / "chain3.json")


@pytest.fixture(scope="session")
def chain3_nil():
    return load_lattice(FIXTURES / "chain3_nil.json")


@pytest.fixture(scope="session")
def m3():
    return load_monoid(FIXTURES / "m3.json")


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def non_lattices():
    """Three carriers that are not lattices, for the tests of the lattice gate.

    loop: a and 1 lie below each other, so the order is not antisymmetric
    although every bound search finds an answer; vee: a and b have a meet
    but no join; wedge: every join exists, but a and b have no meet."""
    loop = FiniteLattice(("0", "a", "1"), (0b001, 0b111, 0b111),
                         ((2, 0, 2), (0, 1, 1), (2, 0, 1)), 0, 2)
    vee = FiniteLattice(("0", "a", "b"), (0b111, 0b010, 0b100),
                        ((0, 0, 0), (0, 1, 0), (0, 0, 2)), 0, 1)
    wedge = FiniteLattice(("a", "b", "1"), (0b101, 0b110, 0b100),
                          ((0, 0, 0), (0, 1, 1), (0, 1, 2)), 0, 2)
    return loop, vee, wedge
