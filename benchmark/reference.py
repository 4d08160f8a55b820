"""Numpy reference for both documents, computed apart from the program.

The raw columns are regenerated in memory with ``datagen.event_columns``
from the workload seed, exactly as ``datagen.generate`` seeds each file
(one SeedSequence spawn per file), so nothing here goes through colstore,
exprlang or the engine. Cuts, variations, defines and fills are applied
to whole arrays:

- ``sum(Jet_pt)`` adds element k for the events with more than k jets,
  k = 0, 1, ..., which is the left-to-right order the program uses;
- fills accumulate with ``np.add.at`` in entry order, into the bin the
  program's formula ``int((x - lo) / (hi - lo) * nbins)`` gives.

Entry counts and counters must then match the program exactly. ``sumw``
and ``sumw2`` may differ in the last bits only, because the program adds
per-task partial sums while the reference makes one pass: they must agree
within ``RTOL`` relative. With a few thousand positive weights of order
one, regrouping the sums moves them by ~1e-14 relative, so 1e-9 leaves a
wide margin and still rejects any real change of a bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from colflow.datagen import event_columns

import workloads as wl

RTOL = 1e-9


class Mismatch(Exception):
    """The program's output disagrees with the reference or with itself."""


@dataclass(frozen=True)
class Hist:
    entries: int
    sumw: np.ndarray
    sumw2: np.ndarray


@dataclass(frozen=True)
class Rows:
    """Event rows of the skim columns, in entry order."""

    event_weight: np.ndarray
    MET_pt: np.ndarray
    nJet: np.ndarray
    jet_len: np.ndarray
    jet_pt: np.ndarray  # all jets of all events, packed

    def __len__(self) -> int:
        return len(self.event_weight)


# --- inputs ------------------------------------------------------------------


def raw_rows(seed: int) -> list[Rows]:
    """The raw dataset of `seed`, one Rows per file, regenerated in memory."""
    out = []
    for stream in np.random.SeedSequence(seed).spawn(wl.N_FILES):
        cols = event_columns(np.random.default_rng(stream), wl.EVENTS_PER_FILE)
        jets = cols["Jet_pt"]
        out.append(Rows(
            np.asarray(cols["event_weight"], dtype=np.float64),
            np.asarray(cols["MET_pt"], dtype=np.float64),
            np.asarray(cols["nJet"], dtype=np.int64),
            np.array([len(j) for j in jets], dtype=np.int64),
            np.concatenate(jets).astype(np.float64) if jets else np.zeros(0),
        ))
    return out


def select(rows: Rows, mask: np.ndarray) -> Rows:
    return Rows(
        rows.event_weight[mask], rows.MET_pt[mask], rows.nJet[mask],
        rows.jet_len[mask], rows.jet_pt[np.repeat(mask, rows.jet_len)],
    )


def concat(parts: list[Rows]) -> Rows:
    return Rows(*(np.concatenate([getattr(p, f) for p in parts]) for f in Rows.__dataclass_fields__))


def skim_mask(rows: Rows) -> np.ndarray:
    return (rows.MET_pt > wl.SKIM_MET_MIN) & (rows.nJet >= wl.SKIM_NJET_MIN)


# --- fills -------------------------------------------------------------------


def fill(x: np.ndarray, w: np.ndarray, nbins: int, lo: float, hi: float) -> Hist:
    """Histogram of x weighted by w, filled in entry order."""
    bins = np.empty(len(x), dtype=np.int64)
    under = np.isnan(x) | (x < lo)
    over = ~under & (x >= hi)
    inside = ~under & ~over
    bins[under] = 0
    bins[over] = nbins + 1
    k = ((x[inside] - lo) / (hi - lo) * nbins).astype(np.int64)
    bins[inside] = np.minimum(k, nbins - 1) + 1
    sumw = np.zeros(nbins + 2)
    sumw2 = np.zeros(nbins + 2)
    np.add.at(sumw, bins, w)
    np.add.at(sumw2, bins, w * w)
    return Hist(len(x), sumw, sumw2)


def skim_reference(raw: list[Rows]) -> tuple[Rows, dict]:
    """Selected rows in entry order, and the skim document's results."""
    skim = concat([select(r, skim_mask(r)) for r in raw])
    name, column, nbins, lo, hi = wl.SKIM_HIST
    results = {
        name: fill(getattr(skim, column), skim.event_weight, nbins, lo, hi),
        wl.SKIM_COUNT: len(skim),
    }
    return skim, {"nominal": results}


def _apply(values: np.ndarray, op: str, operand: float) -> np.ndarray:
    if op == "*":
        return values * operand
    if op == "+":
        return values + operand
    return values - operand


def post_reference(skim: Rows) -> dict:
    """Every universe's results of the post document over the skim rows."""
    starts = np.concatenate([[0], np.cumsum(skim.jet_len)[:-1]]).astype(np.int64)

    def universe(jet_pt: np.ndarray, met: np.ndarray, weight: np.ndarray) -> dict:
        ht = np.zeros(len(skim))
        for k in range(int(skim.jet_len.max(initial=0))):
            has = skim.jet_len > k
            ht[has] += jet_pt[starts[has] + k]
        first = np.minimum(starts, max(len(jet_pt) - 1, 0))
        lead = np.where(skim.nJet > 0, jet_pt[first] if len(jet_pt) else 0.0, 0.0)
        keep = lead > wl.LEAD_PT_MIN
        columns = {"ht": ht, "lead_pt": lead, "MET_pt": met}
        out = {
            name: fill(columns[col][keep], weight[keep], nbins, lo, hi)
            for name, col, nbins, lo, hi in wl.POST_HISTS
        }
        out[wl.POST_COUNT] = int(keep.sum())
        return out

    nominal = (skim.jet_pt, skim.MET_pt, skim.event_weight)
    results = {"nominal": universe(*nominal)}
    for tag, column, op, operand in wl.TOPOLOGY:
        jet, met, w = nominal
        if column == "Jet_pt":
            jet = _apply(jet, op, operand)
        else:
            met = _apply(met, op, operand)
        results[tag] = universe(jet, met, w)
    for tag, factor in wl.WEIGHTS:
        results[tag] = universe(skim.jet_pt, skim.MET_pt, skim.event_weight * factor)
    return results


# --- comparison --------------------------------------------------------------


def plain(universes: dict) -> dict:
    """A program result (universe -> name -> Histo1D/accumulator) as plain values."""
    out = {}
    for u, results in universes.items():
        out[u] = {}
        for name, r in results.items():
            if hasattr(r, "sumw"):
                out[u][name] = Hist(r.entries, np.asarray(r.sumw), np.asarray(r.sumw2))
            else:
                out[u][name] = r.value
    return out


def _close(a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    return np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))


def compare(got: dict, want: dict, what: str, rtol: float = RTOL) -> None:
    """Raise Mismatch unless two plain results agree universe by universe."""
    if set(got) != set(want):
        raise Mismatch(f"{what}: universes {sorted(got)} != {sorted(want)}")
    for u in want:
        if set(got[u]) != set(want[u]):
            raise Mismatch(f"{what}: universe {u!r} results {sorted(got[u])} != {sorted(want[u])}")
        for name, w in want[u].items():
            g = got[u][name]
            where = f"{what}: universe {u!r} result {name!r}"
            if isinstance(w, Hist):
                if g.entries != w.entries:
                    raise Mismatch(f"{where}: entries {g.entries} != {w.entries}")
                for field in ("sumw", "sumw2"):
                    bad = ~_close(getattr(g, field), getattr(w, field), rtol)
                    if bad.any():
                        b = int(np.argmax(bad))
                        raise Mismatch(
                            f"{where}: {field}[{b}] {getattr(g, field)[b]!r} != {getattr(w, field)[b]!r}"
                        )
            elif g != w:
                raise Mismatch(f"{where}: {g!r} != {w!r}")


def check_rejects_perturbed(got: dict, want: dict) -> None:
    """The comparison must catch one bin moved by a millionth."""
    u = next(iter(want))
    name, h = next((n, r) for n, r in got[u].items() if isinstance(r, Hist) and r.sumw.any())
    b = int(np.argmax(h.sumw != 0))
    sumw = h.sumw.copy()
    sumw[b] *= 1.0 + 1e-6
    bent = {k: dict(v) for k, v in got.items()}
    bent[u][name] = Hist(h.entries, sumw, h.sumw2)
    try:
        compare(bent, want, "perturbed")
    except Mismatch:
        return
    raise Mismatch(f"a perturbed bin of {u!r}/{name!r} passed the reference check")


def check_weight_universes(got: dict, what: str) -> None:
    """Weight variations reweight events, so they select what nominal selects."""
    nominal = got["nominal"]
    for tag, _ in wl.WEIGHTS:
        for name, r in got[tag].items():
            n = nominal[name]
            if isinstance(r, Hist):
                if r.entries != n.entries:
                    raise Mismatch(f"{what}: {tag}/{name} entries {r.entries} != nominal {n.entries}")
            elif r != n:
                raise Mismatch(f"{what}: {tag}/{name} {r!r} != nominal {n!r}")


def check_skim_rows(got: Rows, want: Rows) -> None:
    """The snapshot holds exactly the selected rows, in entry order."""
    if len(got) != len(want):
        raise Mismatch(f"skim has {len(got)} rows, reference selects {len(want)}")
    for field in Rows.__dataclass_fields__:
        if not np.array_equal(getattr(got, field), getattr(want, field)):
            raise Mismatch(f"skim column {field} differs from the reference selection")
