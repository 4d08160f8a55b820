import socket
import struct
import threading

import numpy as np
import pytest

from colflow import wire
from colflow.colstore import (
    DataServer,
    TransportError,
    ValueType,
    open_dataset,
    server_totals,
    write_dataset,
)
from colflow.colstore import server as srv
from colflow.colstore.dataset import RemoteTransport


@pytest.fixture
def served_dir(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "blob.bin").write_bytes(bytes(range(256)) * 64)
    write_dataset(
        str(root / "d.col"),
        {"x": ValueType.F64},
        {"x": np.arange(1000.0)},
        cluster_size=250,
    )
    server = DataServer(str(root)).start()
    yield root, server
    server.stop()


def raw_exchange(address: str, data: bytes):
    """Send raw bytes; the reply frame, or None if the server hung up."""
    host, _, port = address.partition(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        try:
            return wire.recv_frame(sock)
        except ConnectionResetError:  # hung up with some of our bytes unread
            return None


def raw_request(address: str, opcode: int, payload: bytes):
    return raw_exchange(address, wire.pack_frame(opcode, payload))


def assert_still_serving(server):
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    assert t.read(0, 4) == bytes([0, 1, 2, 3])
    t.close()


def test_open_read_stat_close(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    assert t.size() == 256 * 64
    assert t.read(0, 4) == bytes([0, 1, 2, 3])
    assert t.read(254, 4) == bytes([254, 255, 0, 1])
    t.close()


def test_serves_on_a_listening_socket_it_is_given(served_dir):
    root, _ = served_dir
    listener = socket.create_server(("127.0.0.1", 0))
    address = "%s:%d" % listener.getsockname()[:2]
    server = DataServer(str(root), listener=listener).start()
    try:
        assert server.address == address
        host, port = address.split(":")
        t = RemoteTransport(host, int(port), "blob.bin")
        assert t.read(0, 2) == bytes([0, 1])
        t.close()
    finally:
        server.stop()
    assert listener.fileno() == -1  # the server owned it


def test_a_stopped_server_leaves_no_serving_thread(tmp_path):
    before = set(threading.enumerate())
    with DataServer(str(tmp_path)):
        assert len(set(threading.enumerate()) - before) == 1  # one serve_forever thread
    assert set(threading.enumerate()) <= before
    server = DataServer(str(tmp_path)).start()
    with pytest.raises(RuntimeError):  # a second start runs no second loop
        server.start()
    server.stop()
    assert set(threading.enumerate()) <= before


def test_short_read_at_eof(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    size = t.size()
    data = t.read(size - 10, 100)
    assert len(data) == 10
    assert t.read(size, 10) == b""
    t.close()


def test_missing_file_is_error(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    with pytest.raises(TransportError, match="error"):
        RemoteTransport(host, int(port), "absent.bin")


def test_path_escape_rejected(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    for bad in ("../secret", "/etc/passwd", "a/../../x"):
        with pytest.raises(TransportError):
            RemoteTransport(host, int(port), bad)


def test_malformed_frame_gets_error_reply(served_dir):
    root, server = served_dir
    frame = raw_request(server.address, srv.OP_READ, b"\x01")
    assert frame is not None
    opcode, payload = frame
    assert opcode == srv.OP_ERROR
    (code,) = struct.unpack_from("<H", payload, 0)
    assert code == srv.ERR_BAD_REQUEST


def test_open_with_trailing_bytes_opens_nothing(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("blob.bin") + b"junk")
        opcode, payload = wire.recv_frame(sock)
        assert opcode == srv.OP_ERROR
        assert struct.unpack_from("<H", payload, 0) == (srv.ERR_BAD_REQUEST,)
        wire.send_frame(sock, srv.OP_READ, struct.pack("<QQI", 1, 0, 4))  # the id a first open gets
        opcode, payload = wire.recv_frame(sock)
        assert opcode == srv.OP_ERROR
        assert struct.unpack_from("<H", payload, 0) == (srv.ERR_BAD_ID,)
    assert_still_serving(server)


def test_unknown_opcode_gets_error_reply(served_dir):
    root, server = served_dir
    frame = raw_request(server.address, 999, b"")
    opcode, payload = frame
    assert opcode == srv.OP_ERROR


def test_read_counters_count_only_read_bytes(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    t.size()
    base = t.session_metrics()
    assert base == (0, 0)  # OPEN/STAT/METRICS do not count
    t.read(0, 100)
    t.read(100, 50)
    assert t.session_metrics() == (150, 2)
    t.close()


def test_client_and_server_byte_accounting_agree_exactly(served_dir):
    root, server = served_dir
    uri = f"colsrv://{server.address}/d.col"
    with open_dataset(uri) as h:
        for _ in h.read_range(["x"], 123, 881):
            pass
        served, calls = h._transport.session_metrics()
        assert h.account.bytes_read == served
        assert h.account.read_calls == calls


def test_sessions_are_isolated(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t1 = RemoteTransport(host, int(port), "blob.bin")
    t2 = RemoteTransport(host, int(port), "blob.bin")
    t1.read(0, 500)
    assert t1.session_metrics() == (500, 1)
    assert t2.session_metrics() == (0, 0)
    g_bytes, g_calls = server_totals(server.address)
    assert g_bytes >= 500
    t2.read(0, 70)
    assert t2.session_metrics() == (70, 1)
    assert server_totals(server.address)[0] == g_bytes + 70
    t1.close()
    t2.close()


def test_stale_file_id_rejected(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    fid = t._fid
    t.close()
    t2 = RemoteTransport(host, int(port), "blob.bin")
    with pytest.raises(TransportError):
        t2._request(srv.OP_READ, struct.pack("<QQI", fid + 100, 0, 10))
    t2.close()


def test_request_bound_edge(served_dir):
    root, server = served_dir
    path = "p" * (srv.MAX_REQUEST - 4)  # a wire string exactly MAX_REQUEST bytes long
    at_limit = wire.pack_frame(srv.OP_OPEN, wire.pack_str(path))
    reply = raw_exchange(server.address, at_limit)
    assert reply is not None and reply[0] == srv.OP_ERROR  # answered, not dropped
    past = wire.pack_frame(srv.OP_OPEN, wire.pack_str(path + "p"))
    assert raw_exchange(server.address, past) is None  # dropped, nothing buffered
    assert_still_serving(server)


def test_forged_request_header_dropped(served_dir):
    root, server = served_dir
    huge = wire.HEADER.pack(2**32 - 1, srv.OP_OPEN, wire.PROTO_VERSION)
    assert raw_exchange(server.address, huge) is None
    bad_version = wire.HEADER.pack(4 + 1, srv.OP_METRICS, wire.PROTO_VERSION + 1) + b"\x00"
    assert raw_exchange(server.address, bad_version) is None
    assert_still_serving(server)


def test_read_over_max_frame_rejected(served_dir, monkeypatch):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    with pytest.raises(TransportError, match=f"error {srv.ERR_BAD_REQUEST}: READ of {2**32 - 1} bytes"):
        t.read(0, 2**32 - 1)
    monkeypatch.setattr(wire, "MAX_FRAME", 100)
    assert t.read(0, 100) == bytes(range(100))
    with pytest.raises(TransportError, match="READ of 101 bytes exceeds MAX_FRAME"):
        t.read(0, 101)
    assert t.session_metrics() == (100, 1)
    t.close()
    assert_still_serving(server)


@pytest.mark.parametrize("uri", ["colsrv://h:abc/p", "colsrv://h:99999/p", "colsrv://h:0/p", "colsrv://h:-1/p"])
def test_bad_port_is_malformed_uri(uri):
    with pytest.raises(TransportError, match="malformed remote URI"):
        open_dataset(uri)
