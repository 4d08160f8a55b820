"""Result tables: one result stage's values in every universe, merged exactly.

These are the reduce payloads of the whole system: a task fills a private
table per result stage, and partial results are combined by addition.
Row u of a table is universe u. A table holds `entries` (rows,), the
values it has seen per row, and `sumw` and `sumw2` (rows, width): for a
histogram the width is nbins + 2, uniform bins over [xmin, xmax) with
index 0 collecting underflow (x < xmin, and NaN by convention) and index
nbins + 1 collecting overflow (x >= xmax), and sumw2 the sum of squared
weights so merged statistical errors stay exact; for a sum or a count the
width is 1, sumw holds the value and sumw2 stays zero.

Histo1D and ScalarAccumulator are read-only views of one row, for
reading a result universe by universe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exprlang import Jagged


class ResultKind(Enum):
    """A table's kind; the value is its kind byte on the wire."""

    HISTO = 1
    COUNT = 2
    SUM = 3


def check_axis(nbins: int, xmin: float, xmax: float) -> None:
    """The one histogram axis rule: nbins >= 1, and finite xmin < xmax a finite width apart."""
    if nbins < 1:
        raise ValueError(f"nbins must be >= 1, got {nbins}")
    if not (xmin < xmax and math.isfinite(xmax - xmin)):
        raise ValueError(f"need finite xmin < xmax a finite width apart, got [{xmin}, {xmax})")


def _width(kind: ResultKind, nbins: int) -> int:
    return nbins + 2 if kind is ResultKind.HISTO else 1


def table_bytes(kind: ResultKind, rows: int, nbins: int = 0) -> int:
    """The size of a table's entries, sumw and sumw2, computed without allocating them."""
    return rows * (8 + 16 * _width(kind, nbins))


class ResultTable:
    __slots__ = ("name", "kind", "nbins", "xmin", "xmax", "entries", "sumw", "sumw2")

    def __init__(self, name: str, kind: ResultKind, rows: int, nbins: int = 0, xmin: float = 0.0, xmax: float = 0.0):
        if kind is ResultKind.HISTO:
            check_axis(nbins, xmin, xmax)
        self.name = name
        self.kind = kind
        self.nbins = nbins
        self.xmin = float(xmin)
        self.xmax = float(xmax)
        width = _width(kind, nbins)
        self.entries = np.zeros(rows, "<i8")
        self.sumw = np.zeros((rows, width), "<f8")
        self.sumw2 = np.zeros((rows, width), "<f8")

    @property
    def axis(self) -> tuple:
        """Kind and binning: tables merge only if theirs are equal."""
        return self.kind, self.nbins, self.xmin, self.xmax

    def fill(self, rows, x, weights) -> None:
        """Fill the values of x (a scalar is one value) as F64 into each listed
        histogram row with that row's weights: one for all values or one each
        (for a Jagged x, one per vector). Every row's weights are checked
        before any row changes; the bins are computed once, and each bin adds
        in order, as one fill at a time."""
        if isinstance(x, Jagged):
            weights = [np.repeat(np.broadcast_to(w, x.lengths.shape), x.lengths) for w in weights]
            x = x.values
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        weights = [w if w.shape == x.shape else np.broadcast_to(w, x.shape) for w in weights]
        for w in weights:
            if not np.isfinite(w).all():
                raise ValueError(f"non-finite weight {float(w[~np.isfinite(w)][0])!r} in histogram {self.name!r}")
        bins = np.zeros(len(x), dtype=np.int64)  # underflow, NaN included
        bins[x >= self.xmax] = self.nbins + 1
        inside = (x >= self.xmin) & (x < self.xmax)
        # divide first: the one fixed formula all modes share
        k = ((x[inside] - self.xmin) / (self.xmax - self.xmin) * self.nbins).astype(np.int64)
        bins[inside] = np.minimum(k, self.nbins - 1) + 1  # guard the upper edge against rounding
        for row, w in zip(rows, weights):
            np.add.at(self.sumw[row], bins, w)  # unbuffered: a bin hit twice adds in order
            np.add.at(self.sumw2[row], bins, w * w)
        np.add.at(self.entries, rows, len(x))

    def count(self, row: int, n: int) -> None:
        self.sumw[row, 0] += n
        self.entries[row] += n

    def accumulate(self, row: int, x) -> None:
        """Add each value of x to a sum row in order (a scalar is one value)."""
        x = np.asarray(x, dtype=np.float64)
        self.sumw[row, 0] = np.cumsum(np.append(self.sumw[row, 0], x))[-1]
        self.entries[row] += x.size

    def add(self, other: "ResultTable") -> None:
        """In-place merge, cell by cell; name, axis and row count must agree."""
        if self.name != other.name or self.axis != other.axis or len(self.entries) != len(other.entries):
            raise ValueError(f"cannot merge table {other.name!r} {other.axis} into {self.name!r} {self.axis}")
        self.entries += other.entries
        self.sumw += other.sumw
        self.sumw2 += other.sumw2

    def row(self, u: int) -> "Histo1D | ScalarAccumulator":
        if self.kind is not ResultKind.HISTO:
            return ScalarAccumulator(self.kind, float(self.sumw[u, 0]))
        sumw, sumw2 = self.sumw[u], self.sumw2[u]
        sumw.flags.writeable = sumw2.flags.writeable = False
        return Histo1D(self.name, self.nbins, self.xmin, self.xmax, int(self.entries[u]), sumw, sumw2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self.__slots__)


@dataclass(frozen=True, eq=False)
class Histo1D:
    """One universe's row of a histogram table."""

    name: str
    nbins: int
    xmin: float
    xmax: float
    entries: int
    sumw: np.ndarray
    sumw2: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histo1D):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)


@dataclass(frozen=True)
class ScalarAccumulator:
    """One universe's row of a count or sum table (a count stays integer-valued)."""

    kind: ResultKind
    value: float
