"""The residue-table kernels."""
import pytest

from semigroup_forge import _backend


def test_backend_selected_a_kernel():
    assert _backend.backend_name == "pure"
    assert callable(_backend.residue_table)


def test_modulus_one():
    assert _backend.residue_table(1, [1]) == [0]


def test_unreachable_classes():
    # Multiples of 3 only: residues 1, 2, 4, 5 mod 6 hold no element.
    assert _backend.residue_table(6, [6, 9]) == [0, -1, -1, 1, -1, -1]


def test_known_table():
    # Monoid of 4, 5, 7: least elements 0, 5, 10, 7 per residue class.
    assert _backend.residue_table(4, [4, 5, 7]) == [0, 1, 2, 1]
    assert _backend.minimal_residues(4, [0, 1, 2, 1], [4, 5, 7]) == [1, 3]


def test_bad_modulus():
    with pytest.raises(ValueError):
        _backend.residue_table(0, [2, 3])
