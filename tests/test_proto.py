"""Wire protocol round-trips, framing rules, stream reassembly and limits."""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow import wire
from colflow.cluster.worker import read_result_file, write_result_file
from colflow.engine import EntryRange, PartialResult
from colflow.exprlang import ValueType
from colflow.graph import build, load_spec
from colflow.hist import ResultKind, ResultTable
from colflow.metrics import JobRecord
from colflow.proto import (
    PROTO_VERSION,
    Fail,
    Graph,
    Heartbeat,
    ProtoError,
    Register,
    Result,
    RunDone,
    RunFail,
    Shutdown,
    Submit,
    Task,
    decode,
    encode,
    recv_message,
)


def sample_partial(n_universes=3):
    p = PartialResult(events=1234, t_loop=0.5621, bytes_read=99887, chunk_bytes=88000, mem_peak=4096)
    p.snapshots = ["skim/out.part0.col"]
    p.labels = ["nominal", *(f"u{i}" for i in range(1, n_universes))]
    h = ResultTable("h_met", ResultKind.HISTO, n_universes, 16, 0.0, 200.0)
    n = ResultTable("n", ResultKind.COUNT, n_universes)
    s = ResultTable("s", ResultKind.SUM, n_universes)
    for i in range(n_universes):
        h.fill([i], [x * 5.5 + i for x in range(40)], [0.5 + i])
        n.count(i, 40 + i)
        s.accumulate(i, 17.25 * (i + 1))
    p.tables = {"h_met": h, "n": n, "s": s}
    return p


def sample_task(i=0):
    return Task(
        task_id=i,
        entry_range=EntryRange("colsrv://127.0.0.1:9000/data/f0.col", 1000 * i, 1000 * i + 1000),
        multi_pass=True,
        payload_uri="colsrv://127.0.0.1:9000/payload.bin",
        payload_bytes=1 << 20,
        result_file="out/job0.res",
        run=3,
    )


SAMPLE_SCHEMA = {
    "MET_pt": ValueType.F64,
    "nJet": ValueType.I64,
    "pass": ValueType.BOOL,
    "Jet_pt": ValueType.VEC_F64,
    "Jet_id": ValueType.VEC_I64,
}

MESSAGES = [
    Register("worker-3"),
    Graph(3, '{"dataset":["a.col"],"stages":[{"op":"count","name":"n"}]}', SAMPLE_SCHEMA),
    sample_task(5),
    Task(0, EntryRange("f.col", 0, 10)),
    Result(7, 1.25, sample_partial(), run=3),
    Fail(3, "event 17 in f.col: 4:2: min() of an empty vector", run=3),
    Heartbeat("worker-0"),
    Shutdown(),
    Submit("run-0", '{"dataset":["a.col"]}', 2, 3, ()),
    Submit("run-1", '{"dataset":["a.col"]}', 0, 1, tuple(sample_task(i) for i in range(4))),
    RunDone(
        "run-1",
        12.75,
        sample_partial(2),
        (
            JobRecord(0, "w0", 500, 1.5, 1.2, 4096, 4000, 1, "task", 1, 512),
            JobRecord(1, "w1", 500, 1.25, 1.0, 4096, 4000, 2, "post", 9, 256),
        ),
        planning_bytes=1234,
    ),
    RunFail("run-2", "task 3 exhausted retries: boom"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip(self, msg):
        assert decode(encode(msg)) == msg

    def test_result_with_31_universes(self):
        msg = Result(1, 2.0, sample_partial(31))
        back = decode(encode(msg))
        assert back == msg
        assert len(back.partial.universes) == 31
        # histogram payloads are bit-exact
        for u, results in msg.partial.universes.items():
            assert back.partial.universes[u]["h_met"].sumw.tobytes() == results["h_met"].sumw.tobytes()

    def test_empty_strings_and_zero_counts(self):
        msg = Task(0, EntryRange("", 0, 0))
        assert decode(encode(msg)) == msg
        done = RunDone("r", 0.0, PartialResult(), ())
        assert decode(encode(done)) == done
        graph = Graph(0, "", {})
        assert decode(encode(graph)) == graph

    def test_run_scoped_layouts(self):
        """GRAPH, TASK, RESULT and FAIL carry the run as a u32, in this order."""
        graph = encode(Graph(7, "{}", {"x": ValueType.I64, "Jet_pt": ValueType.VEC_F64}))
        assert graph[8:] == (
            struct.pack("<I", 7) + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 2)
            + struct.pack("<I", 1) + b"x" + bytes([ValueType.I64])
            + struct.pack("<I", 6) + b"Jet_pt" + bytes([ValueType.VEC_F64])
        )
        back = decode(graph)
        assert list(back.schema) == ["x", "Jet_pt"]  # file order survives
        assert encode(Task(4, EntryRange("f.col", 0, 10), run=9))[8:16] == struct.pack("<II", 4, 9)
        assert encode(Result(4, 0.5, PartialResult(), 9))[8:24] == struct.pack("<IId", 4, 9, 0.5)
        assert encode(Fail(4, "boom", 9))[8:] == struct.pack("<II", 4, 9) + struct.pack("<I", 4) + b"boom"

    def test_register_is_the_name_alone(self):
        """Since version 6 a worker process is one slot: REGISTER has no slot count."""
        raw = encode(Register("w0"))
        assert raw[8:] == struct.pack("<I", 2) + b"w0"
        with pytest.raises(ProtoError, match=f"protocol version 5, expected {PROTO_VERSION}"):
            decode(raw[:6] + struct.pack("<H", 5) + raw[8:])

    def test_result_layout_is_one_table_per_result(self):
        """Since version 7: the labels once, then per table its name, kind byte, axis and three arrays."""
        p = sample_partial(2)
        raw = encode(Result(0, 0.0, p))[8 + 16 :]
        head = struct.calcsize("<QdQQQI") + 4 + len("skim/out.part0.col")
        labels = struct.pack("<I", 2) + struct.pack("<I", 7) + b"nominal" + struct.pack("<I", 2) + b"u1"
        h = p.tables["h_met"]
        first = (
            struct.pack("<I", 3) + struct.pack("<I", 5) + b"h_met" + struct.pack("<BIdd", 1, 16, 0.0, 200.0)
            + h.entries.tobytes() + h.sumw.tobytes() + h.sumw2.tobytes()
        )
        assert raw[head : head + len(labels) + len(first)] == labels + first

    def test_result_and_fail_default_to_run_0(self):
        """The benchmark's replay builds Result(task_id, t_total, partial)."""
        assert decode(encode(Result(1, 0.25, PartialResult()))).run == 0
        assert decode(encode(Fail(1, "x"))).run == 0


def _s(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def test_cluster_channel_layout(tmp_path):
    """Every cluster-channel payload and the result file, byte for byte, in wire version 8."""
    p = PartialResult(events=40, t_loop=0.25, bytes_read=4096, chunk_bytes=3000, mem_peak=512)
    p.snapshots = ["skim/out.part0.col"]
    p.labels = ["nominal", "u1"]
    h = ResultTable("h", ResultKind.HISTO, 2, 2, 0.0, 10.0)
    h.entries[:] = [3, 1]
    h.sumw[:] = [[0.0, 1.0, 2.0, 0.0], [0.5, 0.0, 0.0, 0.0]]
    h.sumw2[:] = [[0.0, 1.0, 4.0, 0.0], [0.25, 0.0, 0.0, 0.0]]
    n = ResultTable("n", ResultKind.COUNT, 2)
    n.entries[:] = [40, 7]
    n.sumw[:] = [[40.0], [7.0]]
    n.sumw2[:] = [[40.0], [7.0]]
    p.tables = {"h": h, "n": n}
    partial = (
        struct.pack("<QdQQQI", 40, 0.25, 4096, 3000, 512, 1) + _s("skim/out.part0.col")
        + struct.pack("<I", 2) + _s("nominal") + _s("u1")
        + struct.pack("<I", 2)
        + _s("h") + struct.pack("<BIdd", 1, 2, 0.0, 10.0)
        + struct.pack("<2q", 3, 1)
        + struct.pack("<8d", 0.0, 1.0, 2.0, 0.0, 0.5, 0.0, 0.0, 0.0)
        + struct.pack("<8d", 0.0, 1.0, 4.0, 0.0, 0.25, 0.0, 0.0, 0.0)
        + _s("n") + struct.pack("<BIdd", 2, 0, 0.0, 0.0)
        + struct.pack("<2q", 40, 7) + struct.pack("<2d", 40.0, 7.0) + struct.pack("<2d", 40.0, 7.0)
    )
    task = Task(5, EntryRange("f.col", 100, 200), True, "colsrv://h:1/p.bin", 1 << 20, "out/j5.res", 3)
    task_bytes = (
        struct.pack("<II", 5, 3) + _s("f.col") + struct.pack("<QQB", 100, 200, 1)
        + _s("colsrv://h:1/p.bin") + struct.pack("<Q", 1 << 20) + _s("out/j5.res")
    )
    record = JobRecord(2, "w1", 500, 1.5, 1.25, 4096, 4000, 2, "post", 9, 256)
    record_bytes = (
        struct.pack("<I", 2) + _s("w1") + struct.pack("<QddQQI", 500, 1.5, 1.25, 4096, 4000, 2)
        + _s("post") + struct.pack("<IQ", 9, 256)
    )
    samples = [
        (1, Register("w0"), _s("w0")),
        (
            2,
            Graph(7, "{}", {"x": ValueType.I64, "Jet_pt": ValueType.VEC_F64}),
            struct.pack("<I", 7) + _s("{}") + struct.pack("<I", 2)
            + _s("x") + struct.pack("<B", ValueType.I64) + _s("Jet_pt") + struct.pack("<B", ValueType.VEC_F64),
        ),
        (3, task, task_bytes),
        (4, Result(4, 0.5, p, run=9), struct.pack("<IId", 4, 9, 0.5) + partial),
        (5, Fail(4, "boom", 9), struct.pack("<II", 4, 9) + _s("boom")),
        (6, Heartbeat("w0"), _s("w0")),
        (7, Shutdown(), b""),
        (8, Submit("run-1", "{}", 2, 3, (task,)), _s("run-1") + _s("{}") + struct.pack("<III", 2, 3, 1) + task_bytes),
        (
            9,
            RunDone("run-1", 12.75, p, (record,), planning_bytes=1234),
            _s("run-1") + struct.pack("<dQ", 12.75, 1234) + partial + struct.pack("<I", 1) + record_bytes,
        ),
        (10, RunFail("run-2", "no workers"), _s("run-2") + _s("no workers")),
    ]
    for kind, msg, payload in samples:
        frame = struct.pack("<IHH", len(payload) + 4, kind, 8) + payload
        assert encode(msg) == frame, type(msg).__name__
        assert decode(frame) == msg, type(msg).__name__
    path = tmp_path / "job5.res"
    write_result_file(str(path), "graph-1", p)
    assert path.read_bytes() == _s("graph-1") + partial
    assert read_result_file(str(path)) == ("graph-1", p)
    assert PROTO_VERSION == 8


class TestFramingRules:
    def test_frame_header_layout(self):
        raw = encode(Heartbeat("w"))
        length, kind, version = struct.unpack_from("<IHH", raw, 0)
        assert length == len(raw) - 4
        assert kind == 6
        assert version == PROTO_VERSION

    def test_length_below_four_rejected(self):
        bad = struct.pack("<I", 3) + b"\x00" * 3
        with pytest.raises(ProtoError, match="< 4"):
            decode(bad + b"\x00")
        with pytest.raises(ProtoError, match="< 4"):
            read_messages([bad + b"\x00"])

    def test_truncated_frame_rejected(self):
        raw = encode(Register("w"))
        with pytest.raises(ProtoError, match="does not match"):
            decode(raw[:-1])

    def test_version_mismatch_rejected(self):
        raw = bytearray(encode(Shutdown()))
        raw[6] = 9
        with pytest.raises(ProtoError, match="version"):
            decode(bytes(raw))

    def test_unknown_kind_rejected(self):
        raw = bytearray(encode(Shutdown()))
        raw[4] = 0xEE
        with pytest.raises(ProtoError, match="unknown message kind"):
            decode(bytes(raw))

    def test_task_multi_pass_byte_is_0_or_1(self):
        raw = bytearray(encode(Task(0, EntryRange("f.col", 0, 10), multi_pass=True)))
        # header, task_id, run, file "f.col", begin, end, then the flag
        flag = 8 + 4 + 4 + (4 + 5) + 8 + 8
        assert raw[flag] == 1
        raw[flag] = 2
        with pytest.raises(ProtoError, match="multi_pass"):
            decode(bytes(raw))

    @pytest.mark.parametrize("code", [0, 6, 7, 255])
    def test_graph_dtype_code_outside_storable_types_rejected(self, code):
        raw = bytearray(encode(Graph(1, "{}", {"x": ValueType.F64})))
        assert raw[-1] == ValueType.F64
        raw[-1] = code
        with pytest.raises(ProtoError):
            decode(bytes(raw))

    def test_graph_schema_count_past_payload_rejected(self):
        raw = bytearray(encode(Graph(1, "{}", {"x": ValueType.F64})))
        count_at = 8 + 4 + (4 + 2)
        assert raw[count_at : count_at + 4] == struct.pack("<I", 1)
        for count in (2, 2**32 - 1):
            raw[count_at : count_at + 4] = struct.pack("<I", count)
            with pytest.raises(ProtoError, match="truncated"):
                decode(bytes(raw))

    def test_garbage_payload_rejected(self):
        frame = struct.pack("<IHH", 4 + 3, 1, PROTO_VERSION) + b"\xff\xff\xff"
        with pytest.raises(ProtoError):
            decode(frame)

    @pytest.mark.parametrize(
        "msg",
        [m for m in MESSAGES if encode(m)[8:]] + [pytest.param(Result(1, 2.0, sample_partial(31)), id="Result31")],
        ids=lambda m: type(m).__name__,
    )
    def test_every_truncated_payload_rejected(self, msg):
        payload = encode(msg)[8:]
        kind = encode(msg)[4]
        for cut in range(len(payload)):
            frame = struct.pack("<IHH", cut + 4, kind, PROTO_VERSION) + payload[:cut]
            with pytest.raises(ProtoError):
                decode(frame)


    @pytest.mark.parametrize(
        "frame",
        [
            wire.pack_frame(1, wire.pack_str("w0") + struct.pack("<I", 3)),  # the version-5 REGISTER layout
            wire.pack_frame(6, encode(Heartbeat("x"))[8:] + b"junk"),
        ],
        ids=["register-with-slots", "heartbeat-with-junk"],
    )
    def test_trailing_bytes_rejected(self, frame):
        with pytest.raises(ProtoError, match="4 trailing bytes"):
            decode(frame)

    def test_result_with_trailing_byte_rejected(self):
        payload = encode(Result(1, 2.0, sample_partial(3)))[8:]
        with pytest.raises(ProtoError, match="1 trailing bytes"):
            decode(wire.pack_frame(4, payload + b"\x00"))

    def test_result_file_with_trailing_byte_rejected(self, tmp_path):
        path = str(tmp_path / "job0.res")
        write_result_file(path, "graph-1", sample_partial(3))
        assert read_result_file(path) == ("graph-1", sample_partial(3))
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ProtoError, match="1 trailing bytes"):
            read_result_file(path)


class TestHostileResults:
    """RESULT payloads that declare more than they carry, or what no table is."""

    @staticmethod
    def first_table_axis(payload: bytes) -> int:
        """Offset of the first table's kind byte in a sample_partial RESULT payload."""
        labels = 4 + sum(4 + len(u) for u in sample_partial(3).labels)
        return 16 + struct.calcsize("<QdQQQI") + 4 + len("skim/out.part0.col") + labels + 4 + 4 + len("h_met")

    def test_huge_declared_bin_count_rejected_before_allocating(self):
        payload = bytearray(encode(Result(1, 2.0, sample_partial(3)))[8:])
        at = self.first_table_axis(payload)
        assert payload[at] == ResultKind.HISTO.value and payload[at + 1 : at + 5] == struct.pack("<I", 16)
        payload[at + 1 : at + 5] = struct.pack("<I", 2**32 - 1)
        # 3 rows x (2**32 + 1) bins x 16 bytes would be ~200 GB: the check comes first
        with pytest.raises(ProtoError, match="truncated"):
            decode(wire.pack_frame(4, bytes(payload)))

    @pytest.mark.parametrize("tag", [0, 4, 255])
    def test_unknown_kind_byte_rejected(self, tag):
        payload = bytearray(encode(Result(1, 2.0, sample_partial(3)))[8:])
        payload[self.first_table_axis(payload)] = tag
        with pytest.raises(ProtoError, match=f"unknown result kind byte {tag}"):
            decode(wire.pack_frame(4, bytes(payload)))

    def test_axis_the_table_rejects_fails_a_result_file(self, tmp_path):
        payload = bytearray(encode(Result(1, 2.0, sample_partial(3)))[8:])
        at = self.first_table_axis(payload)
        payload[at + 1 : at + 5] = struct.pack("<I", 0)  # a histogram with no bins
        path = tmp_path / "job0.res"
        path.write_bytes(_s("graph-1") + bytes(payload[16:]))  # the partial follows task_id, run and t_total
        with pytest.raises(ProtoError, match="nbins must be >= 1"):
            read_result_file(str(path))


class TestDuplicateNames:
    """Column, universe and table names key what they label: a repeat is a ProtoError, not an overwrite."""

    def test_graph_column_listed_twice(self):
        payload = (
            struct.pack("<I", 1) + _s("{}") + struct.pack("<I", 2)
            + _s("x") + struct.pack("<B", ValueType.F64) + _s("x") + struct.pack("<B", ValueType.I64)
        )
        with pytest.raises(ProtoError, match="bad Graph.schema: duplicate name 'x'"):
            decode(wire.pack_frame(2, payload))

    def test_universe_label_listed_twice(self, tmp_path):
        p = sample_partial(3)
        p.labels = ["nominal", "nominal", "u2"]
        for msg in (Result(1, 2.0, p), RunDone("run-1", 1.0, p)):
            with pytest.raises(ProtoError, match="bad PartialResult.labels: duplicate name 'nominal'"):
                decode(encode(msg))
        path = str(tmp_path / "job0.res")
        write_result_file(path, "graph-1", p)
        with pytest.raises(ProtoError, match="duplicate name 'nominal'"):
            read_result_file(path)

    def test_table_listed_twice(self, tmp_path):
        payload = encode(Result(1, 2.0, sample_partial(3)))[8:]
        n_head = _s("n") + struct.pack("<B", ResultKind.COUNT.value)
        assert payload.count(n_head) == 1
        payload = payload.replace(n_head, _s("s") + struct.pack("<B", ResultKind.COUNT.value))
        with pytest.raises(ProtoError, match="bad PartialResult.tables: duplicate name 's'"):
            decode(wire.pack_frame(4, payload))
        path = tmp_path / "job0.res"
        path.write_bytes(_s("graph-1") + payload[16:])  # the partial follows task_id, run and t_total
        with pytest.raises(ProtoError, match="duplicate name 's'"):
            read_result_file(str(path))


def read_messages(pieces):
    """recv_message over a socketpair whose far end sends the given pieces."""
    a, b = socket.socketpair()
    b.settimeout(10)

    def feed():
        with a:
            for piece in pieces:
                a.sendall(piece)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    got = []
    try:
        while (msg := recv_message(b)) is not None:
            got.append(msg)
    finally:
        b.close()
        writer.join(10)
    assert not writer.is_alive()
    return got


class TestStreamReassembly:
    def test_chunking_invariance(self):
        stream = b"".join(encode(m) for m in MESSAGES)
        assert read_messages([stream]) == MESSAGES
        assert read_messages([stream[i : i + 1] for i in range(len(stream))]) == MESSAGES

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_chunk_boundaries(self, data):
        stream = b"".join(encode(m) for m in MESSAGES[:6])
        pieces = []
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(min_value=1, max_value=97))
            pieces.append(stream[pos : pos + step])
            pos += step
        assert read_messages(pieces) == MESSAGES[:6]

    def test_eof_mid_frame_rejected(self):
        raw = encode(Heartbeat("w"))
        for cut in (3, 8, len(raw) - 1):
            with pytest.raises(ProtoError, match="mid-frame"):
                read_messages([raw[:cut]])


class TestLimits:
    """Each former silent limit at its edge and just past it."""

    def test_1500_uri_document_round_trips(self):
        uris = [f"colsrv://127.0.0.1:9000/data/events_{i:04d}.col" for i in range(1500)]
        document = json.dumps({"dataset": uris, "stages": [{"op": "count", "name": "n"}]})
        assert len(document.encode()) > 0xFFFF  # past the old u16 string length
        for msg in (Submit("run-big", document, 2, 3, ()), Graph(1, document, SAMPLE_SCHEMA)):
            assert decode(encode(msg)) == msg

    @pytest.mark.parametrize("value", [255, 256, 65535, 65536, 2**32 - 1])
    def test_count_fields_round_trip(self, value):
        """attempt and passes were u8, the Submit counts u16."""
        record = JobRecord(0, "w0", 10, 1.0, 0.5, 100, 80, attempt=value, passes=value)
        for msg in (
            Task(0, EntryRange("f.col", 0, 10), run=value),
            Submit("r", "{}", value, value, ()),
            RunDone("r", 1.0, sample_partial(1), (record,)),
        ):
            assert decode(encode(msg)) == msg

    def test_count_field_past_u32_names_the_message(self):
        with pytest.raises(ProtoError, match="cannot encode Task"):
            encode(Task(0, EntryRange("f.col", 0, 10), run=2**32))

    @pytest.mark.parametrize(
        "msg", [Register("\ud800"), Task(0, EntryRange(json.loads('"\\udc80.col"'), 0, 10))], ids=["name", "path"]
    )
    def test_a_string_utf8_cannot_hold_is_a_proto_error(self, msg):
        """A lone surrogate: JSON may carry one, and a file name's undecodable byte becomes one."""
        with pytest.raises(ProtoError, match=f"cannot encode {type(msg).__name__}: .* surrogates not allowed"):
            encode(msg)

    def test_oversized_header_rejected_before_body(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)  # reading the absent body would time out instead
            a.sendall(wire.HEADER.pack(wire.MAX_FRAME + 1 + 4, 6, PROTO_VERSION))
            with pytest.raises(ProtoError, match=f"{wire.MAX_FRAME + 1} bytes exceeds"):
                recv_message(b)

    def test_max_frame_edge(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 64)
        a, b = socket.socketpair()
        with a, b:
            a.sendall(wire.pack_frame(6, b"x" * 64) + wire.HEADER.pack(65 + 4, 6, PROTO_VERSION))
            assert wire.recv_frame(b) == (6, b"x" * 64)
            with pytest.raises(ProtoError, match="65 bytes exceeds"):
                wire.recv_frame(b)
        with pytest.raises(ProtoError, match="payload of 65 bytes exceeds MAX_FRAME"):
            wire.pack_frame(6, b"x" * 65)
        heartbeat = Heartbeat("x" * 60)  # 4 + 60 bytes: exactly at the limit
        assert decode(encode(heartbeat)) == heartbeat
        with pytest.raises(ProtoError, match="exceeds MAX_FRAME"):
            encode(Heartbeat("x" * 61))


@st.composite
def random_message(draw):
    names = st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F), max_size=40
    )
    u32s = st.integers(0, 2**32 - 1)
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return Register(draw(names))
    if choice == 1:
        return Heartbeat(draw(names))
    if choice == 2:
        return Fail(draw(u32s), draw(names), draw(u32s))
    if choice == 3:
        storable = st.sampled_from([t for t in ValueType if t.storable])
        return Graph(draw(u32s), draw(names), draw(st.dictionaries(names, storable, max_size=8)))
    if choice == 4:
        return Task(
            draw(u32s),
            EntryRange(draw(names), draw(st.integers(0, 2**40)), draw(st.integers(0, 2**40))),
            draw(st.booleans()),
            draw(names),
            draw(st.integers(0, 2**40)),
            draw(names),
            draw(u32s),
        )
    return RunFail(draw(names), draw(names))


class TestPropertyRoundTrip:
    @given(random_message())
    @settings(max_examples=150, deadline=None)
    def test_decode_encode_identity(self, msg):
        assert decode(encode(msg)) == msg
