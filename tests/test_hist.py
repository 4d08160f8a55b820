import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow.engine import PartialResult
from colflow.exprlang import Jagged
from colflow.hist import Histo1D, ResultKind, ResultTable, ScalarAccumulator
from colflow.proto import pack_partial, unpack_partial
from colflow.wire import Reader


def histo(nbins, xmin, xmax, name="h", rows=1):
    return ResultTable(name, ResultKind.HISTO, rows, nbins, xmin, xmax)


def merge(a, b):
    out = ResultTable(a.name, a.kind, len(a.entries), a.nbins, a.xmin, a.xmax)
    out.add(a)
    out.add(b)
    return out


def test_uniform_bin_placement():
    h = histo(10, 0.0, 100.0)
    h.fill([0], 50.0, [1.0])
    assert h.sumw[0, 6] == 1.0  # bin index 5, stored after underflow slot
    assert h.entries[0] == 1


def test_overflow_is_closed_at_xmax():
    h = histo(10, 0.0, 100.0)
    h.fill([0], 100.0, [1.0])
    assert h.sumw[0, 11] == 1.0
    h.fill([0], 99.9999, [1.0])
    assert h.sumw[0, 10] == 1.0


def test_underflow_and_nan():
    h = histo(4, 0.0, 1.0)
    h.fill([0], -0.1, [2.0])
    h.fill([0], math.nan, [3.0])
    assert h.sumw[0, 0] == 5.0
    assert h.entries[0] == 2


def test_sumw2_and_entries():
    h = histo(10, 0.0, 100.0)
    h.fill([0], 42.0, [0.5])
    h.fill([0], 42.0, [0.5])
    assert h.sumw[0, 5] == 1.0
    assert h.sumw2[0, 5] == 0.5
    assert h.entries[0] == 2


def test_zero_weight_still_counts_entry():
    h = histo(2, 0.0, 1.0)
    h.fill([0], 0.5, [0.0])
    assert h.entries[0] == 1
    assert h.sumw[0].sum() == 0.0


def test_nonfinite_weight_rejected():
    h = histo(2, 0.0, 1.0)
    for w in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            h.fill([0], 0.5, [w])


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        histo(0, 0.0, 1.0)
    for xmin, xmax in ((1.0, 1.0), (-math.inf, math.inf), (0.0, math.nan), (-1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="finite xmin < xmax"):
            histo(5, xmin, xmax)


def test_merge_identity_and_commutativity():
    a = histo(8, -1.0, 1.0)
    b = histo(8, -1.0, 1.0)
    empty = histo(8, -1.0, 1.0)
    rng = random.Random(1)
    for _ in range(500):
        a.fill([0], rng.uniform(-1.5, 1.5), [rng.randint(1, 3)])
        b.fill([0], rng.gauss(0, 0.5), [rng.randint(1, 3)])
    assert merge(a, empty) == a
    assert merge(a, b) == merge(b, a)  # integer weights: exact


def test_merge_axis_mismatch():
    a = histo(8, -1.0, 1.0)
    for bad in (
        histo(8, -1.0, 1.0, name="g"),
        histo(9, -1.0, 1.0),
        histo(8, 0.0, 1.0),
        histo(8, -1.0, 1.0, rows=2),
        ResultTable("h", ResultKind.SUM, 1),
    ):
        with pytest.raises(ValueError, match="cannot merge"):
            a.add(bad)


def test_split_stream_equals_unsplit():
    rng = random.Random(7)
    stream = [(rng.uniform(-2, 12), rng.lognormvariate(0, 0.3)) for _ in range(2000)]
    whole = histo(25, 0.0, 10.0)
    for x, w in stream:
        whole.fill([0], x, [w])
    for cut in (0, 1, 137, 1000, 1999, 2000):
        left = histo(25, 0.0, 10.0)
        right = histo(25, 0.0, 10.0)
        for x, w in stream[:cut]:
            left.fill([0], x, [w])
        for x, w in stream[cut:]:
            right.fill([0], x, [w])
        m = merge(left, right)
        assert m.entries[0] == whole.entries[0]
        for b in range(27):
            assert m.sumw[0, b] == pytest.approx(whole.sumw[0, b], rel=1e-12, abs=1e-300)
            assert m.sumw2[0, b] == pytest.approx(whole.sumw2[0, b], rel=1e-12, abs=1e-300)


def test_weight_conservation():
    rng = random.Random(3)
    h = histo(13, 0.0, 1.0)
    total = 0.0
    for _ in range(3000):
        w = rng.uniform(0, 2)
        h.fill([0], rng.uniform(-0.2, 1.2), [w])
        total += w
    assert h.sumw[0].sum() == pytest.approx(total, rel=1e-12)


def test_serialization_roundtrip():
    h = histo(30, -5.0, 250.0, name="MET_pt_var", rows=2)
    rng = random.Random(11)
    for _ in range(1000):
        h.fill([rng.randint(0, 1)], rng.uniform(-50, 300), [rng.uniform(0, 2)])
    partial = PartialResult(labels=["nominal", "up"], tables={h.name: h})
    raw = pack_partial(partial)
    r = Reader(raw)
    back = unpack_partial(r)
    assert r.off == len(raw)
    assert back.tables[h.name] == h  # bit-exact
    assert back == partial


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
    h = histo(7, -3.0, 3.0, name="p")
    for x, w in fills:
        h.fill([0], x, [w])
    assert sum(h.sumw[0]) == sum(w for _, w in fills)  # exact: integer sums
    assert h.entries[0] == len(fills)


def test_scalar_accumulators():
    c = ResultTable("c", ResultKind.COUNT, 1)
    s = ResultTable("s", ResultKind.SUM, 1)
    for x in (1.5, 2.5, -0.5):
        c.count(0, 1)
        s.accumulate(0, x)
    assert c.row(0) == ScalarAccumulator(ResultKind.COUNT, 3)
    assert s.row(0).value == 3.5
    c2 = ResultTable("c", ResultKind.COUNT, 1)
    c2.count(0, 4)
    c.add(c2)
    assert c.row(0).value == 7
    with pytest.raises(ValueError):
        c.add(ResultTable("c", ResultKind.SUM, 1))


def test_array_fill_equals_one_value_at_a_time():
    rng = random.Random(17)
    xs = [rng.uniform(-10.0, 110.0) for _ in range(500)] + [math.nan, math.inf, -math.inf, 0.0, 100.0, 99.99999999]
    ws = [rng.uniform(0.0, 3.0) for _ in xs]
    one, many = histo(7, 0.0, 100.0), histo(7, 0.0, 100.0)
    for x, w in zip(xs, ws):
        one.fill([0], x, [w])
    many.fill([0], xs[:250], [ws[:250]])
    many.fill([0], xs[250:], [ws[250:]])
    assert many == one  # bit-exact: every bin adds in the same order
    unweighted = histo(7, 0.0, 100.0)
    unweighted.fill([0], xs, [1.0])
    assert unweighted.entries[0] == len(xs) and np.array_equal(unweighted.sumw, unweighted.sumw2)


def test_array_fill_rejects_any_nonfinite_weight():
    h = histo(2, 0.0, 1.0, name="h_met")
    with pytest.raises(ValueError, match="non-finite weight inf in histogram 'h_met'"):
        h.fill([0], [0.1, 0.2, 0.3], [[1.0, math.inf, 1.0]])


def test_accumulate_array_equals_one_value_at_a_time():
    rng = random.Random(5)
    xs = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-9, 9) for _ in range(300)]
    running = 0.0
    for x in xs:
        running += x
    many = ResultTable("s", ResultKind.SUM, 1)
    many.accumulate(0, xs[:100])
    many.accumulate(0, [])
    many.accumulate(0, xs[100:])
    assert many.sumw[0, 0] == running


def test_filling_one_row_leaves_the_others_alone():
    h = histo(5, 0.0, 1.0, rows=2)
    h.fill([0], [0.1, 0.5, 2.0], [[1.0, 2.0, 3.0]])
    before = [a[0].tobytes() for a in (h.sumw, h.sumw2)] + [h.entries[0]]
    h.fill([1], [0.1, 0.7, -1.0], [[4.0, 5.0, 6.0]])
    assert [a[0].tobytes() for a in (h.sumw, h.sumw2)] + [h.entries[0]] == before
    assert h.entries[1] == 3 and h.sumw[1].sum() == 15.0


def test_many_row_fill_equals_one_fill_per_row():
    rng = np.random.default_rng(23)
    xs = np.concatenate([rng.uniform(-20.0, 120.0, 400), [math.nan, -math.inf, math.inf, 0.0, 100.0, -1e-300]])
    flat_weights = [rng.uniform(0.0, 2.0, len(xs)), np.zeros(len(xs)), 1.5, rng.integers(0, 4, len(xs))]
    lengths = rng.integers(0, 5, 150)
    lengths[-1] = len(xs) - lengths[:-1].sum()  # the vectors hold every value of xs
    jagged = Jagged(lengths, xs)
    vector_weights = [rng.uniform(0.0, 2.0, len(lengths)), 0.0, rng.integers(0, 4, len(lengths))]
    for x, weights, repeat in ((xs, flat_weights, False), (jagged, vector_weights, True)):
        rows = [3, 0, 2, 1][: len(weights)]
        many, one = histo(9, 0.0, 100.0, rows=4), histo(9, 0.0, 100.0, rows=4)
        for _ in range(2):  # the second fill adds onto values already there
            many.fill(rows, x, weights)
            for row, w in zip(rows, weights):
                w = np.repeat(np.broadcast_to(w, lengths.shape), lengths) if repeat else w
                one.fill([row], xs, [w])
        assert many == one  # bit-exact, row by row
        assert list(many.entries) == [2 * len(xs) * (r in rows) for r in range(4)]


def test_many_row_fill_checks_every_row_before_adding():
    h = histo(4, 0.0, 1.0, name="h_lead_pt", rows=3)
    h.fill([0, 1, 2], [0.2, 0.6], [1.0, [2.0, 3.0], 0.5])
    before = [a.copy() for a in (h.entries, h.sumw, h.sumw2)]
    for k in range(3):
        weights = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        weights[k] = [1.0, -math.inf]
        with pytest.raises(ValueError, match="^non-finite weight -inf in histogram 'h_lead_pt'$"):
            h.fill([0, 1, 2], [0.1, 0.9], weights)
        assert all(np.array_equal(a, b) for a, b in zip((h.entries, h.sumw, h.sumw2), before))


def test_row_read_outs_are_read_only():
    h = histo(3, 0.0, 1.0, rows=2)
    h.fill([1], 0.5, [2.0])
    row = h.row(1)
    assert row == Histo1D("h", 3, 0.0, 1.0, 1, np.array([0, 0, 2.0, 0, 0]), np.array([0, 0, 4.0, 0, 0]))
    with pytest.raises(ValueError):
        row.sumw[0] = 1.0
    h.sumw[0, 0] = 1.0  # the table itself stays writable
