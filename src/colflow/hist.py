"""Weighted 1-D histograms and scalar accumulators with exact merge.

These are the reduce payloads of the whole system: tasks fill private
instances, and partial results are combined by addition. Axis layout is
uniform bins over [xmin, xmax) with two extra slots: index 0 collects
underflow (x < xmin, and NaN by convention) and index nbins+1 collects
overflow (x >= xmax). sumw2 tracks the sum of squared weights so merged
statistical errors stay exact.
"""

from __future__ import annotations

import math
from enum import Enum


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
        self.sumw = [0.0] * (nbins + 2)
        self.sumw2 = [0.0] * (nbins + 2)

    def fill(self, x: float, w: float = 1.0) -> None:
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w!r} in histogram {self.name!r}")
        if math.isnan(x) or x < self.xmin:
            b = 0
        elif x >= self.xmax:
            b = self.nbins + 1
        else:
            # divide first: the one fixed formula all modes share
            b = int((x - self.xmin) / (self.xmax - self.xmin) * self.nbins)
            if b >= self.nbins:  # guard the upper edge against rounding
                b = self.nbins - 1
            b += 1
        self.sumw[b] += w
        self.sumw2[b] += w * w
        self.entries += 1

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
        for b in range(self.nbins + 2):
            self.sumw[b] += other.sumw[b]
            self.sumw2[b] += other.sumw2[b]
        self.entries += other.entries

    def copy(self) -> "Histo1D":
        h = Histo1D(self.name, self.nbins, self.xmin, self.xmax)
        h.entries = self.entries
        h.sumw = list(self.sumw)
        h.sumw2 = list(self.sumw2)
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

    def count(self) -> None:
        self.value += 1

    def accumulate(self, x: float) -> None:
        self.value += x

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
