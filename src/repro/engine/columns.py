"""Column-store helpers for the columnar batch layout.

A columnar :class:`~repro.engine.batch.Batch` carries a dict of column
name → value list.  This module holds the small shared vocabulary the
column kernels need: the optional numpy backend (behind the ``fast``
extra, with a pure-Python fallback so the zero-dependency install keeps
working), cheap whole-column type classification (one C-level pass with
``set(map(type, column))`` instead of per-value ``isinstance`` chains),
and index-list gathering.

``REPRO_NO_NUMPY=1`` forces the pure-Python fallback even when numpy is
importable — the hook the no-numpy CI job and the columnar benchmark
use to measure the fallback on an image that ships numpy anyway.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

__all__ = [
    "numpy_backend",
    "column_kinds",
    "PLAIN_KINDS",
    "is_numeric_kinds",
    "has_structured_kinds",
    "gather",
    "gather_columns",
]

#: Value types the vectorized comparison kernels accept: plain atoms
#: whose comparisons cannot dereference, charge or recurse.  ``bool``
#: is deliberately *plain* (it compares as an int) but *not* numeric
#: below — the numpy path keeps away from bool/int dtype coercion.
PLAIN_KINDS = frozenset({int, float, str, bool})
_NUMERIC_KINDS = frozenset({int, float})
_STRUCTURED_KINDS = frozenset({list, tuple, dict, set, frozenset})

_UNSET = object()
_numpy = _UNSET


def numpy_backend():
    """The numpy module, or None when unavailable or disabled.

    The import is attempted once and cached; the ``REPRO_NO_NUMPY``
    environment switch is consulted on every call so a test or
    benchmark can flip between the numpy and pure-Python column paths
    inside one process.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    global _numpy
    if _numpy is _UNSET:
        try:
            import numpy  # noqa: PLC0415 - optional ``fast`` extra

            _numpy = numpy
        except ImportError:
            _numpy = None
    return _numpy


def column_kinds(column: Sequence[object]) -> frozenset:
    """The set of concrete value types in a column (one C-level pass)."""
    return frozenset(map(type, column))


def is_numeric_kinds(kinds: frozenset) -> bool:
    """Whether a column with these kinds is safe for the numpy path."""
    return bool(kinds) and kinds <= _NUMERIC_KINDS


def has_structured_kinds(kinds: frozenset) -> bool:
    """Whether a column with these kinds holds any collection values
    (multivalued emission — column projections bail to row order so the
    multivalued-output error keeps its row-major raise point)."""
    return bool(kinds & _STRUCTURED_KINDS)


def gather(column: Sequence[object], indices: Sequence[int]) -> List[object]:
    """The values of one column at ``indices`` (order-preserving)."""
    return [column[i] for i in indices]


def gather_columns(
    columns: Dict[str, Sequence[object]],
    indices: Sequence[int],
    length: Optional[int] = None,
) -> Dict[str, List[object]]:
    """All columns gathered at ``indices``.  When ``indices`` selects
    every position of a column store of known ``length`` the input
    lists are reused unchanged — batches are immutable after emission,
    so a non-selective filter forwards its input columns for free."""
    if length is not None and len(indices) == length:
        return dict(columns)
    return {name: [col[i] for i in indices] for name, col in columns.items()}
