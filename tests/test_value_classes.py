"""Every frozen value class of the package is a slots dataclass.

The instances are the ones the library itself builds, through each of its
construction paths, so a path that wrote an instance `__dict__` would show
here.
"""

import dataclasses
from fractions import Fraction

import pytest

from hybridcensus.census import theorem_table
from hybridcensus.exact_arith import LocalPlace, Sqrt2Int
from hybridcensus.gluing import CyclicWord, dihedral_stabilizer, enumerate_classes
from hybridcensus.quadform import DiagonalForm, certify_noncommensurable


def _row():
    return theorem_table(2, 3, {1: Fraction(1), 2: Fraction(1)})[-1]


INSTANCES = {
    "CensusRow": _row,
    "VolumeVector": lambda: _row().volume,
    "Sqrt2Int": lambda: Sqrt2Int(3, -1) * Sqrt2Int(1, 1),
    "LocalPlace": lambda: LocalPlace.at(23),
    "CyclicWord": lambda: CyclicWord((2, 1, 1), 2),
    "CyclicWord-unchecked": lambda: enumerate_classes(2, 2)[-1],
    "StabilizerReport": lambda: dihedral_stabilizer(CyclicWord((2, 1, 1, 1), 2)),
    "DiagonalForm": lambda: DiagonalForm.standard(7, 4),
    "NoncommCertificate": lambda: certify_noncommensurable(
        DiagonalForm.standard(7, 4), DiagonalForm.standard(23, 4)
    ),
}


@pytest.mark.parametrize("build", INSTANCES.values(), ids=INSTANCES.keys())
def test_value_class_is_slotted(build):
    value = build()
    cls = type(value)
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert cls.__slots__ == names
    assert not hasattr(value, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    # a new attribute has nowhere to go; which error says so differs between
    # interpreter versions (3.11 raises TypeError from the frozen __setattr__)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 0
