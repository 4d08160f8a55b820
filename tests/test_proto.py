"""Wire protocol round-trips, framing rules, stream reassembly and limits."""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colflow import wire
from colflow.engine import (
    MODE_ONLY_UNIVERSE,
    SINGLE_PASS,
    EntryRange,
    Mode,
    PartialResult,
)
from colflow.graph import build, load_spec
from colflow.hist import AccumKind, Histo1D, ScalarAccumulator
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
    for i in range(n_universes):
        label = "nominal" if i == 0 else f"u{i}"
        h = Histo1D("h_met", 16, 0.0, 200.0)
        for x in range(40):
            h.fill(x * 5.5 + i, 0.5 + i)
        p.universes[label] = {
            "h_met": h,
            "n": ScalarAccumulator(AccumKind.COUNT, 40.0 + i),
            "s": ScalarAccumulator(AccumKind.SUM, 17.25 * (i + 1)),
        }
    return p


def sample_task(i=0):
    return Task(
        task_id=i,
        graph_id="abcd1234ef567890",
        entry_range=EntryRange("colsrv://127.0.0.1:9000/data/f0.col", 1000 * i, 1000 * i + 1000),
        mode=Mode(MODE_ONLY_UNIVERSE, "jes_up"),
        attempt=2,
        payload_uri="colsrv://127.0.0.1:9000/payload.bin",
        payload_bytes=1 << 20,
        result_file="out/job0.res",
    )


MESSAGES = [
    Register("worker-3", 4),
    Graph("abcd1234ef567890", '{"dataset":["a.col"],"stages":[{"op":"count","name":"n"}]}'),
    sample_task(5),
    Task(0, "g", EntryRange("f.col", 0, 10), SINGLE_PASS),
    Result(7, 1.25, sample_partial()),
    Fail(3, "event 17 in f.col: 4:2: min() of an empty vector"),
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
        scheduler_bytes=1234,
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
            assert back.partial.universes[u]["h_met"].sumw == results["h_met"].sumw

    def test_empty_strings_and_zero_counts(self):
        msg = Task(0, "", EntryRange("", 0, 0), Mode(1, ""))
        assert decode(encode(msg)) == msg
        done = RunDone("r", 0.0, PartialResult(), ())
        assert decode(encode(done)) == done


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
        raw = encode(Register("w", 1))
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

    def test_garbage_payload_rejected(self):
        frame = struct.pack("<IHH", 4 + 3, 1, PROTO_VERSION) + b"\xff\xff\xff"
        with pytest.raises(ProtoError):
            decode(frame)

    @pytest.mark.parametrize("msg", [m for m in MESSAGES if encode(m)[8:]], ids=lambda m: type(m).__name__)
    def test_every_truncated_payload_rejected(self, msg):
        payload = encode(msg)[8:]
        kind = encode(msg)[4]
        for cut in range(len(payload)):
            frame = struct.pack("<IHH", cut + 4, kind, PROTO_VERSION) + payload[:cut]
            with pytest.raises(ProtoError):
                decode(frame)


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
        for msg in (Submit("run-big", document, 2, 3, ()), Graph("g", document)):
            assert decode(encode(msg)) == msg

    @pytest.mark.parametrize("value", [255, 256, 65535, 65536, 2**32 - 1])
    def test_count_fields_round_trip(self, value):
        """attempt and passes were u8, slots and the Submit counts u16."""
        record = JobRecord(0, "w0", 10, 1.0, 0.5, 100, 80, attempt=value, passes=value)
        for msg in (
            Task(0, "g", EntryRange("f.col", 0, 10), SINGLE_PASS, attempt=value),
            Register("w0", value),
            Submit("r", "{}", value, value, ()),
            RunDone("r", 1.0, sample_partial(1), (record,)),
        ):
            assert decode(encode(msg)) == msg

    def test_count_field_past_u32_names_the_message(self):
        with pytest.raises(ProtoError, match="cannot encode Task"):
            encode(Task(0, "g", EntryRange("f.col", 0, 10), SINGLE_PASS, attempt=2**32))

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
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return Register(draw(names), draw(st.integers(0, 2**32 - 1)))
    if choice == 1:
        return Heartbeat(draw(names))
    if choice == 2:
        return Fail(draw(st.integers(0, 2**32 - 1)), draw(names))
    if choice == 3:
        return Graph(draw(names), draw(names))
    if choice == 4:
        return Task(
            draw(st.integers(0, 2**32 - 1)),
            draw(names),
            EntryRange(draw(names), draw(st.integers(0, 2**40)), draw(st.integers(0, 2**40))),
            Mode(draw(st.integers(1, 4)), draw(names)),
            draw(st.integers(1, 2**32 - 1)),
            draw(names),
            draw(st.integers(0, 2**40)),
            draw(names),
        )
    return RunFail(draw(names), draw(names))


class TestPropertyRoundTrip:
    @given(random_message())
    @settings(max_examples=150, deadline=None)
    def test_decode_encode_identity(self, msg):
        assert decode(encode(msg)) == msg
