"""Kernel backend selection.

Binds either the compiled extension or the pure-Python twin at import time.
Set SEMIGROUP_FORGE_BACKEND=pure (or py/python) to force the fallback, or
=c (compiled/ext) to insist on the extension and fail loudly if absent.
"""
from __future__ import annotations

import os

from . import _kernel_py

_FORCE_PURE = {"pure", "py", "python"}
_FORCE_EXT = {"c", "compiled", "ext"}


def _select():
    choice = os.environ.get("SEMIGROUP_FORGE_BACKEND", "").strip().lower()
    if choice in _FORCE_PURE:
        return _kernel_py, "pure"
    try:
        from . import _kernel
    except ImportError:
        if choice in _FORCE_EXT:
            raise ImportError(
                "SEMIGROUP_FORGE_BACKEND requested the compiled kernel "
                "but the extension is not built"
            )
        return _kernel_py, "pure"
    return _kernel, "compiled"


kernel, backend_name = _select()

residue_table = kernel.residue_table
minimal_residues = kernel.minimal_residues
UNREACHABLE = _kernel_py.UNREACHABLE
SENTINEL = _kernel_py.SENTINEL
