import os
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from colflow import wire
from colflow.bench import default_post_document
from colflow.colstore import (
    DataServer,
    FormatError,
    TransportError,
    ValueType,
    open_dataset,
    server_totals,
    write_dataset,
)
from colflow.cluster.scheduler import Scheduler
from colflow.colstore import dataset, server as srv
from colflow.colstore.dataset import RemoteTransport
from colflow.engine import EntryRange, run_multi_pass
from colflow.graph import build, load_spec, schema_types
from conftest import STANDARD_SCHEMA, standard_columns


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


def reply_code(frame) -> int | None:
    """The error code of an error reply, or None for any other reply."""
    opcode, payload = frame
    return struct.unpack_from("<H", payload, 0)[0] if opcode == srv.OP_ERROR else None


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
        assert len(set(threading.enumerate()) - before) == 1  # one accept thread
    assert set(threading.enumerate()) <= before
    server = DataServer(str(tmp_path)).start()
    with pytest.raises(RuntimeError):  # a second start runs no second loop
        server.start()
    server.stop()
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize(
    "make", [lambda root: DataServer(root), lambda root: Scheduler()], ids=["data-server", "scheduler"]
)
def test_stopping_a_service_that_never_started_returns_at_once(tmp_path, make):
    service = make(str(tmp_path))
    stopper = threading.Thread(target=service.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=3)
    assert not stopper.is_alive()
    with pytest.raises(ConnectionRefusedError):  # and its listening socket is closed
        socket.create_connection(service.address.split(":"), timeout=3).close()


def test_short_read_at_eof(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    size = t.size()
    data = t.read(size - 10, 100)
    assert len(data) == 10
    assert t.read(size, 10) == b""
    t.close()


def test_read_at_or_past_eof_answers_empty(served_dir):
    root, server = served_dir
    (root / "hundred.bin").write_bytes(bytes(range(100)))
    with wire.connect(server.address, timeout=10) as sock:
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("hundred.bin") + struct.pack("<II", 0, 0))
        assert wire.recv_frame(sock) == (srv.OP_OPEN, struct.pack("<Q", 100))
        for off in (100, 2**63 - 1, 2**64 - 1):
            wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, off, 10))
            assert wire.recv_frame(sock) == (srv.OP_READ, b"")
        wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 50, 80))
        assert wire.recv_frame(sock) == (srv.OP_READ, bytes(range(50, 100)))


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
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("blob.bin") + struct.pack("<II", 0, 0) + b"junk")
        assert reply_code(wire.recv_frame(sock)) == srv.ERR_BAD_REQUEST
        wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 0, 4))
        assert reply_code(wire.recv_frame(sock)) == srv.ERR_BAD_REQUEST  # no file is open
    assert_still_serving(server)


def test_data_channel_layout(served_dir):
    """Since version 9: OPEN is path+head_len+tail_len and answers the size and those bytes, READ is
    counted offset+length spans answered back to back, METRICS is empty."""
    root, server = served_dir
    with wire.connect(server.address, timeout=10) as sock:
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("blob.bin") + struct.pack("<II", 0, 0))
        assert wire.recv_frame(sock) == (srv.OP_OPEN, struct.pack("<Q", 256 * 64))
        wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 3, 2))
        assert wire.recv_frame(sock) == (srv.OP_READ, bytes([3, 4]))
        served, calls = server_totals(server.address)
        wire.send_frame(sock, srv.OP_METRICS, b"")
        assert wire.recv_frame(sock) == (srv.OP_METRICS, struct.pack("<QQ", served, calls))
    assert wire.PROTO_VERSION == 9


OPEN_BLOB = (srv.OP_OPEN, wire.pack_str("blob.bin") + struct.pack("<II", 0, 0), None)


@pytest.mark.parametrize(
    "requests",
    [
        [(srv.OP_READ, struct.pack("<IQI", 1, 0, 4), srv.ERR_BAD_REQUEST), OPEN_BLOB],
        [OPEN_BLOB, (srv.OP_METRICS, b"\x01", srv.ERR_BAD_REQUEST)],
    ],
    ids=["read-before-open", "metrics-with-payload"],
)
def test_bad_request_leaves_the_connection_serving(served_dir, requests):
    """Each request gets its expected error code (None: none), then blob.bin is read on the same connection."""
    root, server = served_dir
    with wire.connect(server.address, timeout=10) as sock:
        for opcode, payload, code in requests:
            wire.send_frame(sock, opcode, payload)
            assert reply_code(wire.recv_frame(sock)) == code
        wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 0, 4))
        assert wire.recv_frame(sock) == (srv.OP_READ, bytes([0, 1, 2, 3]))


def files_open_under(root) -> list[str]:
    """The names of the files under ``root`` this process (its data server) holds open."""
    root = str(root.resolve())
    names = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if target.startswith(root + os.sep):
            names.append(os.path.basename(target))
    return names


def test_a_second_open_moves_the_connection_to_another_file(served_dir):
    """Each OPEN closes the file the connection had open; READs then serve the new one."""
    root, server = served_dir
    with wire.connect(server.address, timeout=10) as sock:
        for name in ("blob.bin", "d.col", "blob.bin"):
            data = (root / name).read_bytes()
            wire.send_frame(sock, srv.OP_OPEN, wire.pack_str(name) + struct.pack("<II", 0, 0))
            assert wire.recv_frame(sock) == (srv.OP_OPEN, struct.pack("<Q", len(data)))
            assert files_open_under(root) == [name]
            wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 4, 8))
            assert wire.recv_frame(sock) == (srv.OP_READ, data[4:12])
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("absent.bin") + struct.pack("<II", 0, 0))
        assert reply_code(wire.recv_frame(sock)) == srv.ERR_NOT_FOUND
        assert files_open_under(root) == []  # a failed OPEN leaves no file open
        wire.send_frame(sock, srv.OP_READ, struct.pack("<IQI", 1, 0, 4))
        assert reply_code(wire.recv_frame(sock)) == srv.ERR_BAD_REQUEST
    assert_still_serving(server)


@pytest.fixture
def connects(monkeypatch):
    """The addresses of every connection this process opens."""
    made = []
    real = wire.connect

    def counting(address, *args, **kwargs):
        made.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(wire, "connect", counting)
    return made


def read_all(handle) -> int:
    """Read every column of every entry; the number of chunks fetched."""
    for _ in handle.read_range(list(handle.schema), 0, handle.total_entries):
        pass
    return len(handle.clusters) * len(handle.schema)


def test_sequential_opens_share_one_connection(served_dir, connects):
    root, server = served_dir
    uri = f"colsrv://{server.address}/d.col"
    size = (root / "d.col").stat().st_size
    with open_dataset(uri) as h:
        metadata = size - h.clusters[-1].chunks[-1].offset - h.clusters[-1].chunks[-1].length + 8
    served0, calls0 = server_totals(server.address)
    accounts = []
    for _ in range(5):
        with open_dataset(uri) as h:
            chunks = read_all(h)
            accounts.append(h.account)
    assert connects == [server.address] * 2  # one session for every open, one for each server_totals
    for account in accounts:  # header, tail and footer, then one read per chunk, as on a fresh connection
        assert (account.bytes_read, account.read_calls) == (metadata + account.chunk_bytes, 3 + chunks)
    served1, calls1 = server_totals(server.address)
    assert served1 - served0 == sum(a.bytes_read for a in accounts)
    assert calls1 - calls0 == sum(a.read_calls for a in accounts)


def test_an_open_after_the_server_restarts_takes_a_fresh_connection(served_dir, connects):
    root, server = served_dir
    uri = f"colsrv://{server.address}/d.col"
    with open_dataset(uri) as h:
        first = [b.columns["x"] for b in h.read_range(["x"], 0, 1000)]
    server.stop()  # the pooled socket is now stale
    listener = socket.create_server(("127.0.0.1", int(server.address.rpartition(":")[2])))
    with DataServer(str(root), listener=listener):
        with open_dataset(uri) as h:
            again = [b.columns["x"] for b in h.read_range(["x"], 0, 1000)]
            assert h.account.read_calls == 3 + 4
    assert connects == [server.address] * 2
    assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))


def test_an_error_reply_on_a_pooled_connection_leaves_it_in_the_pool(served_dir, connects):
    root, server = served_dir
    open_dataset(f"colsrv://{server.address}/d.col").close()
    with pytest.raises(TransportError, match=f"data server error {srv.ERR_NOT_FOUND}: no such file: absent.col"):
        open_dataset(f"colsrv://{server.address}/absent.col")
    with open_dataset(f"colsrv://{server.address}/d.col") as h:
        assert read_all(h) == 4
    assert connects == [server.address]


def test_the_pool_closes_its_oldest_sockets_past_its_bound(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    transports = [RemoteTransport(host, int(port), "blob.bin") for _ in range(dataset.POOL_SIZE + 2)]
    socks = [t._sock for t in transports]
    for t in transports:
        t.close()
    assert [sock.fileno() < 0 for sock in socks] == [True] * 2 + [False] * dataset.POOL_SIZE
    with pytest.raises(TransportError, match="read on a closed transport"):
        transports[-1].read(0, 4)  # a closed handle never reads on the socket it gave back


def test_a_stopped_server_joins_the_thread_of_a_pooled_connection(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"abc")
    before = set(threading.enumerate())
    with DataServer(str(tmp_path)) as server:
        host, port = server.address.split(":")
        RemoteTransport(host, int(port), "f.bin").close()  # pooled: its server thread waits for the next OPEN
        assert len(set(threading.enumerate()) - before) == 2
    assert set(threading.enumerate()) <= before


def test_a_burst_of_connects_is_never_held_back(tmp_path):
    """400 connects, each closed at once, against `colflow serve-data` in its
    own process. A listen backlog shorter than the burst drops SYNs while the
    server starts a thread per connection, and a dropped SYN waits ~1 s for
    its retransmission."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "colflow.cli", "serve-data", "--root", str(tmp_path)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("data server serving"), line
        host, _, port = line.split()[-1].rpartition(":")
        slowest = 0.0
        for _ in range(400):
            t0 = time.perf_counter()
            socket.create_connection((host, int(port)), timeout=10).close()
            slowest = max(slowest, time.perf_counter() - t0)
    finally:
        proc.terminate()
        proc.communicate(timeout=30)
    assert slowest < 0.5


def test_unknown_opcode_gets_error_reply(served_dir):
    root, server = served_dir
    frame = raw_request(server.address, 999, b"")
    opcode, payload = frame
    assert opcode == srv.OP_ERROR


def test_read_counters_count_only_read_bytes(served_dir):
    root, server = served_dir
    host, port = server.address.split(":")
    base = server_totals(server.address)
    t = RemoteTransport(host, int(port), "blob.bin")
    t.size()
    assert server_totals(server.address) == base  # OPEN/STAT/METRICS do not count
    t.read(0, 100)
    t.read(100, 50)
    t.close()
    assert server_totals(server.address) == (base[0] + 150, base[1] + 2)


def test_client_and_server_byte_accounting_agree_exactly(served_dir):
    root, server = served_dir
    uri = f"colsrv://{server.address}/d.col"
    served0, calls0 = server_totals(server.address)
    with open_dataset(uri) as h:
        for _ in h.read_range(["x"], 123, 881):
            pass
    served1, calls1 = server_totals(server.address)
    assert h.account.bytes_read == served1 - served0 > 0
    assert h.account.read_calls == calls1 - calls0


def test_sessions_are_isolated(served_dir):
    """Each connection reads its own file; closing one leaves the other serving."""
    root, server = served_dir
    host, port = server.address.split(":")
    t1 = RemoteTransport(host, int(port), "blob.bin")
    t2 = RemoteTransport(host, int(port), "d.col")
    assert t1.read(0, 2) == bytes([0, 1])
    t1.close()
    assert t2.read(0, 4) == (root / "d.col").read_bytes()[:4]
    assert t2.size() == (root / "d.col").stat().st_size
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
    served = server_totals(server.address)[0]
    with pytest.raises(TransportError, match="READ of 101 bytes exceeds MAX_FRAME"):
        t.read(0, 101)
    assert server_totals(server.address)[0] == served  # refused reads serve nothing
    t.close()
    assert_still_serving(server)


@pytest.mark.parametrize("uri", ["colsrv://h:abc/p", "colsrv://h:99999/p", "colsrv://h:0/p", "colsrv://h:-1/p"])
def test_bad_port_is_malformed_uri(uri):
    with pytest.raises(TransportError, match="malformed remote URI"):
        open_dataset(uri)


ALL_TYPES = {
    "f": ValueType.F64,
    "i": ValueType.I64,
    "b": ValueType.BOOL,
    "vf": ValueType.VEC_F64,
    "vi": ValueType.VEC_I64,
}


def dataset_uri(root, server, where: str, name: str) -> str:
    return f"colsrv://{server.address}/{name}" if where == "remote" else str(root / name)


@pytest.mark.parametrize("where", ["local", "remote"])
def test_decoded_arrays_are_read_only(served_dir, where):
    """Decoded values are shared with the fetched bytes, so no reader may write to them."""
    root, server = served_dir
    lengths = np.arange(300) % 4
    write_dataset(
        str(root / "all.col"),
        ALL_TYPES,
        {
            "f": np.linspace(0.0, 1.0, 300),
            "i": np.arange(300),
            "b": np.arange(300) % 3 == 0,
            "vf": [[0.5] * k for k in lengths],
            "vi": [[7] * k for k in lengths],
        },
        cluster_size=128,
    )
    with open_dataset(dataset_uri(root, server, where, "all.col")) as h:
        batches = list(h.read_range(list(ALL_TYPES), 10, 290))
    assert len(batches) == 3
    for batch in batches:
        c = batch.columns
        for arr in (c["f"], c["i"], c["b"], c["vf"].values, c["vf"].lengths, c["vi"].values, c["vi"].lengths):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0


@pytest.mark.parametrize("where", ["local", "remote"])
def test_a_file_that_shrinks_after_open_is_a_short_read(served_dir, where):
    root, server = served_dir
    with open_dataset(dataset_uri(root, server, where, "d.col")) as h:
        first = h.clusters[0].chunks[0]
        (root / "d.col").write_bytes((root / "d.col").read_bytes()[: first.offset + first.length // 2])
        served0 = server_totals(server.address)[0]
        before = h.account.bytes_read
        with pytest.raises(TransportError, match=f"short read: wanted {first.length} bytes at {first.offset}"):
            list(h.read_range(["x"], 0, 10))
        got = h.account.bytes_read - before
        assert got == first.length // 2  # the reply carried only the bytes still in the file
        if where == "remote":
            assert server_totals(server.address)[0] - served0 == got
    assert_still_serving(server)


@contextmanager
def answering(opcode: int, payload: bytes):
    """A one-connection server that answers the first request with (opcode, payload).

    Yields its address and an Event that is set once the client has hung up.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    hung_up = threading.Event()

    def serve():
        sock, _ = listener.accept()
        with sock:
            sock.settimeout(10)
            wire.recv_frame(sock)
            wire.send_frame(sock, opcode, payload)
            if sock.recv(1) == b"":
                hung_up.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield wire.address_of(listener), hung_up
    finally:
        thread.join(timeout=15)
        listener.close()
    assert not thread.is_alive()


def open_remote(address: str):
    return open_dataset(f"colsrv://{address}/d.col")


@pytest.mark.parametrize(
    "request_it, opcode, reply",
    [
        (open_remote, srv.OP_OPEN, bytes(9)),
        (open_remote, srv.OP_OPEN, bytes(7)),
        (open_remote, srv.OP_ERROR, struct.pack("<H", srv.ERR_NOT_FOUND)),
        (server_totals, srv.OP_METRICS, bytes(8)),
        (server_totals, srv.OP_METRICS, bytes(17)),
    ],
    ids=["open-long", "open-short", "error-without-message", "metrics-short", "metrics-long"],
)
def test_a_malformed_reply_is_a_transport_error_and_the_client_hangs_up(request_it, opcode, reply):
    with answering(opcode, reply) as (address, hung_up):
        with pytest.raises(TransportError, match="data server connection failed") as info:
            request_it(address)
        assert hung_up.wait(10), "the client kept its connection open"  # though `info` holds its frames


@pytest.fixture
def requests(served_dir, monkeypatch):
    """The opcodes of the request frames this process sends to the served_dir server, in order."""
    sent = []
    real = wire.send_frame
    port = int(served_dir[1].address.rpartition(":")[2])

    def counting(sock, kind, payload):
        if sock.getpeername()[1] == port:
            sent.append(kind)
        return real(sock, kind, payload)

    monkeypatch.setattr(wire, "send_frame", counting)
    return sent


def test_a_remote_open_is_two_requests_and_a_cluster_one(served_dir, requests):
    root, server = served_dir
    write_dataset(str(root / "three.col"), {"a": ValueType.F64, "b": ValueType.I64, "c": ValueType.F64},
                  {"a": np.arange(500.0), "b": np.arange(500), "c": -np.arange(500.0)}, cluster_size=250)
    with open_dataset(f"colsrv://{server.address}/three.col") as h:
        assert requests == [srv.OP_OPEN, srv.OP_READ]  # OPEN brings header and tail; one READ for the footer
        [batch] = h.read_range(["a", "b", "c"], 250, 500)
        assert requests[2:] == [srv.OP_READ]  # one READ for the cluster's three chunks
        assert np.array_equal(batch.columns["c"], -np.arange(250.0, 500.0))
        assert (h.account.read_calls, h.account.chunk_bytes) == (3 + 3, 3 * 250 * 8)


def test_a_legacy_job_over_one_cluster_is_nine_passes_of_three_requests(served_dir, requests):
    root, server = served_dir
    write_dataset(str(root / "one.col"), STANDARD_SCHEMA, standard_columns(100, seed=3), cluster_size=100)
    uri = f"colsrv://{server.address}/one.col"
    with open_dataset(uri) as h:
        graph = build(load_spec(default_post_document([uri])), schema_types(h))
    del requests[:]
    partial = run_multi_pass(graph, EntryRange(uri, 0, 100))
    assert partial.events == 100
    assert requests == [srv.OP_OPEN, srv.OP_READ, srv.OP_READ] * 9  # open, footer, the one cluster; nine times


def read_request(*spans) -> bytes:
    return struct.pack("<I", len(spans)) + b"".join(struct.pack("<QI", off, n) for off, n in spans)


def test_vector_read_edges(served_dir):
    """Zero spans, a span past EOF, and spans past MAX_FRAME, on one connection."""
    root, server = served_dir
    (root / "hundred.bin").write_bytes(bytes(range(100)))
    with wire.connect(server.address, timeout=10) as sock:
        wire.send_frame(sock, srv.OP_READ, read_request((0, 4), (8, 4)))
        assert reply_code(wire.recv_frame(sock)) == srv.ERR_BAD_REQUEST  # READ before OPEN
        wire.send_frame(sock, srv.OP_OPEN, wire.pack_str("hundred.bin") + struct.pack("<II", 3, 2))
        assert wire.recv_frame(sock) == (srv.OP_OPEN, struct.pack("<Q", 100) + bytes([0, 1, 2, 98, 99]))
        before = server_totals(server.address)
        wire.send_frame(sock, srv.OP_READ, read_request())
        assert wire.recv_frame(sock) == (srv.OP_READ, b"")
        assert server_totals(server.address) == before  # no span, no read call
        wire.send_frame(sock, srv.OP_READ, read_request((90, 4), (96, 10), (200, 3), (0, 2)))
        assert wire.recv_frame(sock) == (srv.OP_READ, bytes([90, 91, 92, 93, 96, 97, 98, 99, 0, 1]))
        assert server_totals(server.address) == (before[0] + 10, before[1] + 4)  # a call per span
        wire.send_frame(sock, srv.OP_READ, read_request((0, wire.MAX_FRAME // 2), (0, wire.MAX_FRAME // 2 + 1)))
        frame = wire.recv_frame(sock)
        assert reply_code(frame) == srv.ERR_BAD_REQUEST and b"exceeds MAX_FRAME" in bytes(frame[1])
        wire.send_frame(sock, srv.OP_READ, read_request((5, 3)))
        assert wire.recv_frame(sock) == (srv.OP_READ, bytes([5, 6, 7]))  # still serving
    assert server_totals(server.address)[1] == before[1] + 5


def test_a_cluster_of_more_chunks_than_one_request_holds_is_split(served_dir, requests):
    root, server = served_dir
    n = srv.MAX_SPANS + 3
    names = [f"c{k}" for k in range(n)]
    write_dataset(str(root / "wide.col"), {name: ValueType.I64 for name in names},
                  {name: np.arange(k, k + 20) for k, name in enumerate(names)}, cluster_size=20)
    with open_dataset(f"colsrv://{server.address}/wide.col") as h:
        served0 = server_totals(server.address)
        del requests[:]
        [batch] = h.read_range(names, 5, 20)
        assert requests == [srv.OP_READ, srv.OP_READ]
        assert all(np.array_equal(batch.columns[name], np.arange(k + 5, k + 20)) for k, name in enumerate(names))
        served1 = server_totals(server.address)
        assert h.account.chunk_bytes == n * 20 * 8 == served1[0] - served0[0]
        assert served1[1] - served0[1] == n


def test_a_file_truncated_between_open_and_read_serves_no_wrong_byte(served_dir):
    root, server = served_dir
    data = bytes(range(100))
    (root / "hundred.bin").write_bytes(data)
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "hundred.bin")
    sock = t._sock
    (root / "hundred.bin").write_bytes(data[:55])
    served0 = server_totals(server.address)
    spans = [(90, 10), (0, 10), (50, 10), (60, 1)]
    t.will_read(spans)
    got = [bytes(t.read(off, n)) for off, n in spans]
    assert got == [b"", data[:10], data[50:55], b""]  # each cut at the new size, none shifted
    assert server_totals(server.address) == (served0[0] + 15, served0[1] + 4)
    t.close()
    assert sock.fileno() >= 0  # the reply was whole, so the socket stays in step and is pooled
    assert_still_serving(server)
    write_dataset(str(root / "t.col"), {"x": ValueType.F64, "y": ValueType.F64},
                  {"x": np.arange(100.0), "y": np.arange(100.0)}, cluster_size=100)
    with open_dataset(f"colsrv://{server.address}/t.col") as h:
        x = h.clusters[0].chunks[0]
        (root / "t.col").write_bytes((root / "t.col").read_bytes()[: x.offset + x.length + 8])
        served0, before = server_totals(server.address)[0], h.account.bytes_read
        with pytest.raises(TransportError, match=f"short read: wanted 800 bytes at {x.offset + x.length}, got 8"):
            list(h.read_range(["x", "y"], 0, 100))
        assert h.account.bytes_read - before == server_totals(server.address)[0] - served0 == 800 + 8
    assert_still_serving(server)


def test_a_file_that_shrinks_mid_reply_drops_the_connection(served_dir, monkeypatch):
    """The frame header promised bytes the file no longer holds: the server
    hangs up, and the client never pools the socket."""
    root, server = served_dir
    host, port = server.address.split(":")
    t = RemoteTransport(host, int(port), "blob.bin")
    sock = t._sock
    monkeypatch.setattr(os, "sendfile", lambda out, fd, off, n: 0)  # what sendfile returns past EOF
    with pytest.raises(TransportError, match="data server connection failed"):
        t.read(0, 100)
    t.close()
    assert sock.fileno() < 0
    monkeypatch.undo()
    assert_still_serving(server)


def test_byte_closure_when_an_open_finds_a_bad_header(served_dir, monkeypatch):
    root, server = served_dir
    raw = bytearray((root / "d.col").read_bytes())
    raw[:4] = b"XXXX"
    (root / "bad.col").write_bytes(bytes(raw))
    made, account_type = [], dataset.ReadAccount
    monkeypatch.setattr(dataset, "ReadAccount", lambda: made.append(account_type()) or made[-1])
    served0, calls0 = server_totals(server.address)
    with pytest.raises(FormatError, match="bad magic"):
        open_dataset(f"colsrv://{server.address}/bad.col")
    [account] = made  # the failed open's account
    served1, calls1 = server_totals(server.address)
    assert (account.bytes_read, account.read_calls) == (served1 - served0, calls1 - calls0) == (8 + 16, 2)


def test_byte_closure_when_a_chunk_fails_its_crc_mid_cluster(served_dir):
    root, server = served_dir
    schema = {"a": ValueType.F64, "b": ValueType.F64, "c": ValueType.F64}
    write_dataset(str(root / "crc.col"), schema, {k: np.arange(100.0) for k in schema}, cluster_size=100)
    with open_dataset(str(root / "crc.col")) as h:
        b = h.clusters[0].chunks[1]
    raw = bytearray((root / "crc.col").read_bytes())
    raw[b.offset + 3] ^= 0xFF
    (root / "crc.col").write_bytes(bytes(raw))
    served0, calls0 = server_totals(server.address)
    with open_dataset(f"colsrv://{server.address}/crc.col") as h:
        with pytest.raises(FormatError, match="chunk CRC mismatch in column b"):
            list(h.read_range(["a", "b", "c"], 0, 100))
        served1, calls1 = server_totals(server.address)
        assert (h.account.bytes_read, h.account.read_calls) == (served1 - served0, calls1 - calls0)
        assert h.account.read_calls == 3 + 3  # header, tail, footer, and all three chunks
