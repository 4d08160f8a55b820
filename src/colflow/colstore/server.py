"""TCP data server for remote columnar file access.

Requests and replies are ``wire`` frames whose kind is the opcode; a
reply echoes its request's opcode. Opcodes: 1=OPEN(path)->(u64 id, u64
size), 2=READ(u64 id, u64 off, u32 len)->bytes (short at EOF), 3=STAT(path)
->u64 size, 4=METRICS(scope byte, 0=session 1=server totals)->(u64
bytes_served, u64 read_calls), 5=CLOSE(u64 id). Paths are wire strings.
Errors come back as opcode 0xFFFF with a u16 code and a wire string.

A request payload may be at most MAX_REQUEST bytes and a READ at most
``wire.MAX_FRAME``: a READ past that is answered with ERR_BAD_REQUEST,
and a connection that sends an oversized header or a wrong protocol
version is dropped.

Byte counters only grow on READ replies, so a client session's bytes_read
matches the server's served bytes for that session exactly.
"""

from __future__ import annotations

import socketserver
import struct
import threading
from pathlib import Path

from .. import wire

OP_OPEN = 1
OP_READ = 2
OP_STAT = 3
OP_METRICS = 4
OP_CLOSE = 5
OP_ERROR = 0xFFFF

ERR_NOT_FOUND = 1
ERR_BAD_REQUEST = 2
ERR_DENIED = 3
ERR_BAD_ID = 4
ERR_INTERNAL = 5

METRICS_SESSION = 0
METRICS_GLOBAL = 1

MAX_REQUEST = 4 + 4096  # the largest request: a wire string holding a PATH_MAX path


class ServerError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _error_reply(code: int, message: str) -> bytes:
    return struct.pack("<H", code) + wire.pack_str(message)


class _Session:
    """Per-connection open-file table and byte counters."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[int, object] = {}
        self.next_id = 1
        self.bytes_served = 0
        self.read_calls = 0

    def resolve(self, rel: str) -> Path:
        p = (self.root / rel).resolve()
        if not p.is_relative_to(self.root):
            raise ServerError(ERR_DENIED, f"path escapes served root: {rel}")
        return p

    def close_all(self) -> None:
        for f in self.files.values():
            f.close()
        self.files.clear()


class DataServer:
    """Serves files under ``root_dir`` to many concurrent sessions."""

    def __init__(self, root_dir: str, host: str = "127.0.0.1", port: int = 0):
        self.root = Path(root_dir).resolve()
        if not self.root.is_dir():
            raise NotADirectoryError(f"{root_dir} is not a readable directory")
        self._lock = threading.Lock()
        self.total_bytes_served = 0
        self.total_read_calls = 0
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                session = _Session(outer.root)
                try:
                    while True:
                        frame = wire.recv_frame(self.request, MAX_REQUEST)
                        if frame is None:
                            return
                        opcode, payload = frame
                        try:
                            reply_op, reply = outer._dispatch(session, opcode, payload)
                        except ServerError as e:
                            reply_op, reply = OP_ERROR, _error_reply(e.code, str(e))
                        except wire.ProtoError as e:  # a malformed path string
                            reply_op, reply = OP_ERROR, _error_reply(ERR_BAD_REQUEST, str(e))
                        except Exception as e:  # defensive: never kill the session silently
                            reply_op, reply = OP_ERROR, _error_reply(ERR_INTERNAL, repr(e))
                        wire.send_frame(self.request, reply_op, reply)
                except (wire.ProtoError, OSError):  # bad header, or the peer is gone
                    return
                finally:
                    session.close_all()

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._server = Server((host, port), Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _dispatch(self, session: _Session, opcode: int, payload: bytes) -> tuple[int, bytes]:
        if opcode == OP_OPEN:
            path = wire.Reader(payload).string()
            target = session.resolve(path)
            if not target.is_file():
                raise ServerError(ERR_NOT_FOUND, f"no such file: {path}")
            f = open(target, "rb")
            fid = session.next_id
            session.next_id += 1
            session.files[fid] = f
            f.seek(0, 2)
            return OP_OPEN, struct.pack("<QQ", fid, f.tell())
        if opcode == OP_READ:
            if len(payload) != 20:
                raise ServerError(ERR_BAD_REQUEST, "READ payload must be id+off+len")
            fid, off, length = struct.unpack("<QQI", payload)
            if length > wire.MAX_FRAME:
                raise ServerError(
                    ERR_BAD_REQUEST, f"READ of {length} bytes exceeds MAX_FRAME ({wire.MAX_FRAME} bytes)"
                )
            f = session.files.get(fid)
            if f is None:
                raise ServerError(ERR_BAD_ID, f"unknown file id {fid}")
            f.seek(off)
            data = f.read(length)
            session.bytes_served += len(data)
            session.read_calls += 1
            with self._lock:
                self.total_bytes_served += len(data)
                self.total_read_calls += 1
            return OP_READ, data
        if opcode == OP_STAT:
            path = wire.Reader(payload).string()
            target = session.resolve(path)
            if not target.is_file():
                raise ServerError(ERR_NOT_FOUND, f"no such file: {path}")
            return OP_STAT, struct.pack("<Q", target.stat().st_size)
        if opcode == OP_METRICS:
            scope = payload[0] if payload else METRICS_SESSION
            if scope == METRICS_GLOBAL:
                with self._lock:
                    return OP_METRICS, struct.pack("<QQ", self.total_bytes_served, self.total_read_calls)
            return OP_METRICS, struct.pack("<QQ", session.bytes_served, session.read_calls)
        if opcode == OP_CLOSE:
            if len(payload) != 8:
                raise ServerError(ERR_BAD_REQUEST, "CLOSE payload must be a file id")
            (fid,) = struct.unpack("<Q", payload)
            f = session.files.pop(fid, None)
            if f is None:
                raise ServerError(ERR_BAD_ID, f"unknown file id {fid}")
            f.close()
            return OP_CLOSE, b""
        raise ServerError(ERR_BAD_REQUEST, f"unknown opcode {opcode}")

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def __enter__(self) -> "DataServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(root_dir: str, port: int = 0, host: str = "127.0.0.1") -> DataServer:
    """Start a data server in a background thread and return it."""
    server = DataServer(root_dir, host=host, port=port)
    server.start()
    return server
