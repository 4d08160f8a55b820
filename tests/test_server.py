import socket
import struct

import numpy as np
import pytest

from colflow import wire
from colflow.colstore import (
    ColumnSchema,
    Dtype,
    TransportError,
    open_dataset,
    serve,
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
        [ColumnSchema("x", Dtype.F64)],
        {"x": np.arange(1000.0)},
        cluster_size=250,
    ).close()
    server = serve(str(root))
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
    g_bytes, g_calls = t1.server_metrics()
    assert g_bytes >= 500
    t2.read(0, 70)
    assert t2.session_metrics() == (70, 1)
    assert t2.server_metrics()[0] == g_bytes + 70
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
    at_limit = wire.pack_frame(srv.OP_STAT, wire.pack_str(path))
    reply = raw_exchange(server.address, at_limit)
    assert reply is not None and reply[0] == srv.OP_ERROR  # answered, not dropped
    past = wire.pack_frame(srv.OP_STAT, wire.pack_str(path + "p"))
    assert raw_exchange(server.address, past) is None  # dropped, nothing buffered
    assert_still_serving(server)


def test_forged_request_header_dropped(served_dir):
    root, server = served_dir
    huge = wire.HEADER.pack(2**32 - 1, srv.OP_STAT, wire.PROTO_VERSION)
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
