"""Dense pixel fields and the small vector algebra used by every other module.

Two container types are provided: :class:`ImageGrid` for reconstruction-space
images and :class:`Sinogram` for projection data.  Both hold a read-only
float64 array and are treated as immutable; every operation returns a new
instance and validates finiteness, so NaN/Inf can never propagate silently.

Reductions go through numpy's pairwise summation, which is deterministic for a
fixed build.  ``dot`` multiplies elementwise before reducing, so it is
bit-exactly symmetric in its arguments and repeated runs produce bit-identical
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, ShapeMismatch

_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _checked_values(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeMismatch(f"expected a non-empty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("field contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """A height x width image with float64 pixel values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_values(self.values))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Projection data, one row per angle and one column per detector."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_values(self.values))

    @property
    def num_angles(self) -> int:
        return self.values.shape[0]

    @property
    def num_detectors(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _require_compatible(a, b):
    if type(a) is not type(b):
        raise ShapeMismatch(f"mixed operand types {type(a).__name__} and {type(b).__name__}")
    if a.values.shape != b.values.shape:
        raise ShapeMismatch(f"shape mismatch {a.values.shape} vs {b.values.shape}")


def dot(a, b) -> float:
    """Euclidean inner product over the flattened fields.

    Elementwise products commute bitwise, and the pairwise reduction tree only
    depends on the length, so dot(a, b) == dot(b, a) exactly.
    """
    _require_compatible(a, b)
    return float(np.sum(a.values * b.values))


def norm(a) -> float:
    """Euclidean norm, sqrt(dot(a, a)).

    A sum of squares below the smallest normal float has lost its relative
    precision (it is 0 for [[1e-200]]), and one that overflows is inf; only
    then is the norm taken again on a / max|a| and scaled back.  Every other
    input keeps the plain sum's bits.
    """
    squares = np.sum(a.values * a.values)
    if not (_SMALLEST_NORMAL <= squares < np.inf):
        top = np.max(np.abs(a.values))
        if top > 0.0:
            unit = a.values / top
            return float(top * np.sqrt(np.sum(unit * unit)))
    return float(np.sqrt(squares))


def add(a, b):
    _require_compatible(a, b)
    return type(a)(a.values + b.values)


def sub(a, b):
    _require_compatible(a, b)
    return type(a)(a.values - b.values)


def scale(alpha: float, a):
    return type(a)(alpha * a.values)


def axpy(alpha: float, x, y):
    """Return y + alpha * x."""
    _require_compatible(x, y)
    return type(y)(y.values + alpha * x.values)


def write_pgm(image: ImageGrid, path):
    """Write a binary (P5) PGM preview, clamping [0, 1] linearly to 0..255."""
    clamped = np.clip(image.values, 0.0, 1.0)
    bytes8 = np.rint(clamped * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(bytes8.tobytes())


def format_cell(value) -> str:
    """The text of one table cell or meta.txt value.

    Floats, numpy scalars included, are written as shortest round-trip
    decimals, which parse back to bit-identical float64 values; ``None`` is an
    empty cell and anything else is ``str(value)``.
    """
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_table(path, rows, columns=None, append=False):
    """Write one comma-separated line of :func:`format_cell` cells per row.

    The ``columns`` header line is written only when given and, in append
    mode, only if the file is new.
    """
    fresh = not (append and Path(path).exists())
    with open(path, "a" if append else "w", encoding="ascii") as fh:
        if columns is not None and fresh:
            fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(format_cell, row)) + "\n")


def write_csv(field, path):
    """Write one headerless CSV row per field row; the values round-trip losslessly."""
    write_table(path, field.values.tolist())

