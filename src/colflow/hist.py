"""Weighted 1-D histograms and scalar accumulators with exact merge.

These are the reduce payloads of the whole system: tasks fill private
instances, and partial results are combined by addition. Axis layout is
uniform bins over [xmin, xmax) with two extra slots: index 0 collects
underflow (x < xmin, and NaN by convention) and index nbins+1 collects
overflow (x >= xmax). sumw2 tracks the sum of squared weights so merged
statistical errors stay exact. sumw and sumw2 are array("d") buffers that
fills add into in place through numpy: a result holds no float per bin.
"""

from __future__ import annotations

from array import array
from enum import Enum

import numpy as np


class Histo1D:
    __slots__ = ("name", "nbins", "xmin", "xmax", "entries", "sumw", "sumw2")

    def __init__(self, name: str, nbins: int, xmin: float, xmax: float):
        if nbins < 1:
            raise ValueError(f"nbins must be >= 1, got {nbins}")
        if not xmin < xmax:
            raise ValueError(f"need xmin < xmax, got [{xmin}, {xmax})")
        self.name = name
        self.nbins = nbins
        self.xmin = float(xmin)
        self.xmax = float(xmax)
        self.entries = 0
        self.sumw = array("d", [0.0]) * (nbins + 2)
        self.sumw2 = array("d", [0.0]) * (nbins + 2)

    def fill(self, x, w=1.0) -> None:
        """Fill the values of x (a scalar is one value) as F64, with one weight
        for all or one each; each bin adds in order, as one fill at a time."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)
        bad = ~np.isfinite(w)
        if bad.any():
            raise ValueError(f"non-finite weight {float(w[bad][0])!r} in histogram {self.name!r}")
        bins = np.zeros(len(x), dtype=np.int64)  # underflow, NaN included
        bins[x >= self.xmax] = self.nbins + 1
        inside = (x >= self.xmin) & (x < self.xmax)
        # divide first: the one fixed formula all modes share
        k = ((x[inside] - self.xmin) / (self.xmax - self.xmin) * self.nbins).astype(np.int64)
        bins[inside] = np.minimum(k, self.nbins - 1) + 1  # guard the upper edge against rounding
        np.add.at(np.frombuffer(self.sumw), bins, w)  # unbuffered: a bin hit twice adds in order
        np.add.at(np.frombuffer(self.sumw2), bins, w * w)
        self.entries += len(x)

    def same_axis(self, other: "Histo1D") -> bool:
        return (
            self.name == other.name
            and self.nbins == other.nbins
            and self.xmin == other.xmin
            and self.xmax == other.xmax
        )

    def add(self, other: "Histo1D") -> None:
        """In-place merge; axis identity required."""
        if not self.same_axis(other):
            raise ValueError(
                f"histogram axis mismatch: {self.name!r}[{self.nbins},{self.xmin},{self.xmax}] "
                f"vs {other.name!r}[{other.nbins},{other.xmin},{other.xmax}]"
            )
        np.frombuffer(self.sumw)[:] += np.frombuffer(other.sumw)  # bin by bin, in place
        np.frombuffer(self.sumw2)[:] += np.frombuffer(other.sumw2)
        self.entries += other.entries

    def copy(self) -> "Histo1D":
        h = Histo1D(self.name, self.nbins, self.xmin, self.xmax)
        h.entries = self.entries
        h.sumw = array("d", self.sumw)
        h.sumw2 = array("d", self.sumw2)
        return h

    def total_sumw(self) -> float:
        return sum(self.sumw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histo1D):
            return NotImplemented
        return (
            self.same_axis(other)
            and self.entries == other.entries
            and self.sumw == other.sumw
            and self.sumw2 == other.sumw2
        )

    def __repr__(self) -> str:
        return (
            f"Histo1D({self.name!r}, nbins={self.nbins}, range=[{self.xmin}, {self.xmax}), "
            f"entries={self.entries}, sumw={self.total_sumw():g})"
        )


class AccumKind(Enum):
    COUNT = 1
    SUM = 2


class ScalarAccumulator:
    """A mergeable counter or running sum (COUNT stays integer-valued)."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: AccumKind, value: float = 0.0):
        self.kind = kind
        self.value = value

    def count(self, n: int = 1) -> None:
        self.value += n

    def accumulate(self, x) -> None:
        """Add each value of x in order (a scalar is one value)."""
        self.value = float(np.cumsum(np.append(self.value, np.asarray(x, dtype=np.float64)))[-1])

    def add(self, other: "ScalarAccumulator") -> None:
        if self.kind is not other.kind:
            raise ValueError(f"accumulator kind mismatch: {self.kind} vs {other.kind}")
        self.value += other.value

    def copy(self) -> "ScalarAccumulator":
        return ScalarAccumulator(self.kind, self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarAccumulator):
            return NotImplemented
        return self.kind is other.kind and self.value == other.value

    def __repr__(self) -> str:
        return f"ScalarAccumulator({self.kind.name}, {self.value})"
