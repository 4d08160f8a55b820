"""Frame send and receive: one buffer per frame, the allocation cap, and partial sends."""

import socket
import threading
import tracemalloc

import pytest

from colflow import wire
from colflow.wire import PROTO_VERSION, ProtoError


def traced_recv(data: bytes):
    """recv_frame over a socketpair while a thread sends ``data`` and hangs up.

    Returns (recv_frame's result or the ProtoError it raised, tracemalloc peak in bytes).
    """
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10)

        def send():
            a.sendall(data)
            a.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send)
        tracemalloc.start()
        try:
            sender.start()
            try:
                result = wire.recv_frame(b)
            except ProtoError as e:
                result = e
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sender.join()
    return result, peak


def test_a_frame_is_received_into_one_buffer():
    payload = bytes(range(256)) * 2048  # 512 KiB
    (kind, body), peak = traced_recv(wire.pack_frame(6, payload))
    assert (kind, body) == (6, payload)
    assert peak <= 1.25 * len(payload)  # once, not once per copy


def test_a_received_payload_is_read_only():
    (_, body), _ = traced_recv(wire.pack_frame(6, b"abc"))
    assert body.readonly
    with pytest.raises(TypeError):
        body[0] = 0


def test_a_declared_frame_that_stops_short_costs_at_most_one_step():
    head = wire.HEADER.pack(64 * 1024 * 1024 + 4, 6, PROTO_VERSION)  # declares 64 MiB
    error, peak = traced_recv(head + b"x" * 10)
    assert isinstance(error, ProtoError) and str(error) == "connection closed mid-frame"
    assert peak <= 2 * 1024 * 1024


def test_a_frame_of_several_steps_arrives_whole():
    payload = bytes(range(251)) * (5 * wire.RECV_STEP // 2 // 251)  # ~2.5 steps
    (kind, body), _ = traced_recv(wire.pack_frame(3, payload))
    assert (kind, body) == (3, payload)


def test_clean_end_between_frames_and_mid_header():
    assert traced_recv(b"")[0] is None
    error, _ = traced_recv(wire.pack_frame(6, b"")[:5])
    assert isinstance(error, ProtoError) and str(error) == "connection closed mid-frame"


class Trickle:
    """A socket stand-in that moves at most ``step`` bytes per call."""

    def __init__(self, incoming: bytes = b"", step: int = 3):
        self.incoming, self.sent, self.step = incoming, bytearray(), step

    def recv_into(self, view) -> int:
        n = min(len(view), self.step, len(self.incoming))
        view[:n] = self.incoming[:n]
        self.incoming = self.incoming[n:]
        return n

    def sendmsg(self, buffers) -> int:
        room = self.step
        for buf in buffers:
            part = bytes(buf[:room])
            self.sent += part
            room -= len(part)
        return self.step - room


@pytest.mark.parametrize("payload", [b"", b"x", bytes(range(200))], ids=["empty", "one-byte", "200-bytes"])
def test_partial_sends_and_receives_move_the_whole_frame(payload):
    sock = Trickle()
    wire.send_frame(sock, 9, payload)
    assert sock.sent == wire.pack_frame(9, payload)
    assert wire.recv_frame(Trickle(bytes(sock.sent) + wire.pack_frame(4, b"next"))) == (9, payload)
