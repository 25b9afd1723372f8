"""The residue-table kernels, and parity between the pure and compiled ones.

Every kernel test runs on the pure kernel; the compiled side of each is
skipped when the extension is not built.
"""
import random

import pytest

from semigroup_forge import _backend, _kernel_py

try:
    from semigroup_forge import _kernel as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
KERNELS = [
    pytest.param(_kernel_py, id="pure"),
    pytest.param(compiled, id="compiled", marks=needs_compiled),
]


def test_backend_selected_a_kernel():
    assert _backend.backend_name in ("pure", "compiled")
    assert callable(_backend.residue_table)


@pytest.mark.parametrize("kernel", KERNELS)
def test_modulus_one(kernel):
    assert kernel.residue_table(1, [1]) == [0]


@pytest.mark.parametrize("kernel", KERNELS)
def test_unreachable_classes(kernel):
    # Multiples of 3 only: residues 1, 2, 4, 5 mod 6 hold no element.
    assert kernel.residue_table(6, [6, 9]) == [0, -1, -1, 1, -1, -1]


@pytest.mark.parametrize("kernel", KERNELS)
def test_known_table(kernel):
    # Monoid of 4, 5, 7: least elements 0, 5, 10, 7 per residue class.
    assert kernel.residue_table(4, [4, 5, 7]) == [0, 1, 2, 1]
    assert kernel.minimal_residues(4, [0, 1, 2, 1]) == [1, 3]


@needs_compiled
def test_random_parity():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 70)
        gens = sorted(set(rng.sample(range(1, 500), rng.randint(1, 6)) + [m]))
        a = compiled.residue_table(m, gens)
        b = _kernel_py.residue_table(m, gens)
        assert a == b, (m, gens)
        if -1 not in a:
            assert compiled.minimal_residues(m, a) == _kernel_py.minimal_residues(m, a)


@needs_compiled
def test_compiled_rejects_oversized_generator():
    with pytest.raises(OverflowError):
        compiled.residue_table(3, [3, 1 << 62])


@pytest.mark.parametrize("kernel", KERNELS)
def test_bad_modulus(kernel):
    with pytest.raises(ValueError):
        kernel.residue_table(0, [2, 3])
