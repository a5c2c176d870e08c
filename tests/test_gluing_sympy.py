"""Fixed-content rotation classes against sympy's necklaces.

sympy lists the least rotation of every word over {0, ..., r-1} of a
given length, a plain filter over all r^(rm) words, which shares no code
with the library's necklace recursion or its Burnside count.  The cases
keep r*m <= 12 and r^(rm) <= 3^12, so (3, 4) is the largest.
"""

import pytest

from hybridcensus.gluing import enumerate_classes, necklace_count

sympy_iterables = pytest.importorskip("sympy.utilities.iterables")

CASES = [
    (r, m)
    for r in range(1, 13)
    for m in range(1, 13)
    if r * m <= 12 and r ** (r * m) <= 3**12
]


def sympy_classes(r, m):
    classes = (
        tuple(x + 1 for x in necklace)
        for necklace in sympy_iterables.necklaces(r * m, r)
        if all(necklace.count(x) == m for x in range(r))
    )
    return sorted(classes)


@pytest.mark.parametrize("r, m", CASES)
def test_classes_and_count_match_sympy(r, m):
    expected = sympy_classes(r, m)
    assert [w.letters for w in enumerate_classes(r, m, cap=12)] == expected
    assert necklace_count(r, m) == len(expected)
