import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.hist import AccumKind, Histo1D, ScalarAccumulator
from colflow.proto import pack_histo, unpack_histo
from colflow.wire import Reader


def merge(a, b):
    out = a.copy()
    out.add(b)
    return out


def test_uniform_bin_placement():
    h = Histo1D("h", 10, 0.0, 100.0)
    h.fill(50.0, 1.0)
    assert h.sumw[6] == 1.0  # bin index 5, stored after underflow slot
    assert h.entries == 1


def test_overflow_is_closed_at_xmax():
    h = Histo1D("h", 10, 0.0, 100.0)
    h.fill(100.0, 1.0)
    assert h.sumw[11] == 1.0
    h.fill(99.9999, 1.0)
    assert h.sumw[10] == 1.0


def test_underflow_and_nan():
    h = Histo1D("h", 4, 0.0, 1.0)
    h.fill(-0.1, 2.0)
    h.fill(math.nan, 3.0)
    assert h.sumw[0] == 5.0
    assert h.entries == 2


def test_sumw2_and_entries():
    h = Histo1D("h", 10, 0.0, 100.0)
    h.fill(42.0, 0.5)
    h.fill(42.0, 0.5)
    assert h.sumw[5] == 1.0
    assert h.sumw2[5] == 0.5
    assert h.entries == 2


def test_zero_weight_still_counts_entry():
    h = Histo1D("h", 2, 0.0, 1.0)
    h.fill(0.5, 0.0)
    assert h.entries == 1
    assert h.total_sumw() == 0.0


def test_nonfinite_weight_rejected():
    h = Histo1D("h", 2, 0.0, 1.0)
    for w in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            h.fill(0.5, w)


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        Histo1D("h", 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Histo1D("h", 5, 1.0, 1.0)


def test_merge_identity_and_commutativity():
    a = Histo1D("h", 8, -1.0, 1.0)
    b = Histo1D("h", 8, -1.0, 1.0)
    empty = Histo1D("h", 8, -1.0, 1.0)
    rng = random.Random(1)
    for _ in range(500):
        a.fill(rng.uniform(-1.5, 1.5), rng.randint(1, 3))
        b.fill(rng.gauss(0, 0.5), rng.randint(1, 3))
    assert merge(a, empty) == a
    assert merge(a, b) == merge(b, a)  # integer weights: exact


def test_merge_axis_mismatch():
    a = Histo1D("h", 8, -1.0, 1.0)
    for bad in (Histo1D("g", 8, -1.0, 1.0), Histo1D("h", 9, -1.0, 1.0), Histo1D("h", 8, 0.0, 1.0)):
        with pytest.raises(ValueError, match="axis mismatch"):
            merge(a, bad)


def test_split_stream_equals_unsplit():
    rng = random.Random(7)
    stream = [(rng.uniform(-2, 12), rng.lognormvariate(0, 0.3)) for _ in range(2000)]
    whole = Histo1D("h", 25, 0.0, 10.0)
    for x, w in stream:
        whole.fill(x, w)
    for cut in (0, 1, 137, 1000, 1999, 2000):
        left = Histo1D("h", 25, 0.0, 10.0)
        right = Histo1D("h", 25, 0.0, 10.0)
        for x, w in stream[:cut]:
            left.fill(x, w)
        for x, w in stream[cut:]:
            right.fill(x, w)
        m = merge(left, right)
        assert m.entries == whole.entries
        for b in range(27):
            assert m.sumw[b] == pytest.approx(whole.sumw[b], rel=1e-12, abs=1e-300)
            assert m.sumw2[b] == pytest.approx(whole.sumw2[b], rel=1e-12, abs=1e-300)


def test_weight_conservation():
    rng = random.Random(3)
    h = Histo1D("h", 13, 0.0, 1.0)
    total = 0.0
    for _ in range(3000):
        w = rng.uniform(0, 2)
        h.fill(rng.uniform(-0.2, 1.2), w)
        total += w
    assert h.total_sumw() == pytest.approx(total, rel=1e-12)


def test_serialization_roundtrip():
    h = Histo1D("MET_pt_var", 30, -5.0, 250.0)
    rng = random.Random(11)
    for _ in range(1000):
        h.fill(rng.uniform(-50, 300), rng.uniform(0, 2))
    raw = pack_histo(h)
    r = Reader(raw)
    back = unpack_histo(r, h.name)
    assert r.off == len(raw)
    assert back == h  # bit-exact


@given(
    fills=st.lists(
        st.tuples(
            st.floats(allow_infinity=True, allow_nan=True, width=64),
            st.integers(1, 5),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_conservation_property_integer_weights(fills):
    h = Histo1D("p", 7, -3.0, 3.0)
    for x, w in fills:
        h.fill(x, w)
    assert sum(h.sumw) == sum(w for _, w in fills)  # exact: integer sums
    assert h.entries == len(fills)


def test_scalar_accumulators():
    c = ScalarAccumulator(AccumKind.COUNT)
    s = ScalarAccumulator(AccumKind.SUM)
    for x in (1.5, 2.5, -0.5):
        c.count()
        s.accumulate(x)
    assert c.value == 3
    assert s.value == 3.5
    c2 = ScalarAccumulator(AccumKind.COUNT, 4)
    c.add(c2)
    assert c.value == 7
    with pytest.raises(ValueError):
        c.add(s)
