"""TCP data server for remote columnar file access.

A connection is the session for one file. Requests and replies are
``wire`` frames whose kind is the opcode; a reply echoes its request's
opcode. Opcodes: 1=OPEN(path)->u64 size, 2=READ(u64 off, u32 len)->bytes
(short at EOF), 4=METRICS()->(u64 bytes_served, u64 read_calls) of the
whole server; 3 and 5 are unassigned. An OPEN payload is one wire string,
the path, and nothing after it; a METRICS payload is empty. Hanging up
closes the file.
Errors come back as opcode 0xFFFF with a u16 code and a wire string, and
the connection keeps serving: a second OPEN, a READ before any OPEN and a
METRICS with a payload are each answered with ERR_BAD_REQUEST.

A request payload may be at most MAX_REQUEST bytes and a READ at most
``wire.MAX_FRAME``: a READ past that is answered with ERR_BAD_REQUEST,
and a connection that sends an oversized header or a wrong protocol
version is dropped.

Byte counters only grow on READ replies, so the bytes a client counts
over its reads equal the growth of the server's bytes_served exactly.

A server starts only through ``start()`` (or ``with``), which runs one
``wire.accept_forever`` thread; ``stop()`` closes the listening socket
and joins that thread.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
from pathlib import Path

from .. import wire

OP_OPEN = 1
OP_READ = 2
OP_METRICS = 4
OP_ERROR = 0xFFFF

ERR_NOT_FOUND = 1
ERR_BAD_REQUEST = 2
ERR_DENIED = 3
ERR_INTERNAL = 5

MAX_REQUEST = 4 + 4096  # the largest request: a wire string holding a PATH_MAX path


class ServerError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _error_reply(code: int, message: str) -> bytes:
    return struct.pack("<H", code) + wire.pack_str(message)


class DataServer:
    """Serves files under ``root_dir`` to many concurrent connections.

    It accepts on ``listener``, a listening TCP socket it then owns, or
    else on a fresh one at 127.0.0.1 on a free port.
    """

    def __init__(self, root_dir: str, listener: socket.socket | None = None):
        self.root = Path(root_dir).resolve()
        if not self.root.is_dir():
            raise NotADirectoryError(f"{root_dir} is not a readable directory")
        self._lock = threading.Lock()
        self.total_bytes_served = 0
        self.total_read_calls = 0
        self._listener = listener or socket.create_server(("127.0.0.1", 0))
        self.address = wire.address_of(self._listener)
        self._thread = threading.Thread(
            target=wire.accept_forever,
            args=(self._listener, self._serve, "data-conn"),
            name="data-accept",
            daemon=True,
        )

    def _serve(self, sock: socket.socket) -> None:
        """One connection: OPEN one file, READ it, hang up."""
        file = None
        try:
            while (frame := wire.recv_frame(sock, MAX_REQUEST)) is not None:
                opcode, payload = frame
                try:
                    if opcode == OP_OPEN:
                        if file is not None:
                            raise ServerError(ERR_BAD_REQUEST, "this connection has a file open already")
                        file = self._open(payload)
                        reply = struct.pack("<Q", file.seek(0, 2))
                    elif opcode == OP_READ:
                        reply = self._read(file, payload)
                    elif opcode == OP_METRICS:
                        if payload:
                            raise ServerError(ERR_BAD_REQUEST, "METRICS takes no payload")
                        with self._lock:
                            reply = struct.pack("<QQ", self.total_bytes_served, self.total_read_calls)
                    else:
                        raise ServerError(ERR_BAD_REQUEST, f"unknown opcode {opcode}")
                    reply_op = opcode
                except ServerError as e:
                    reply_op, reply = OP_ERROR, _error_reply(e.code, str(e))
                except wire.ProtoError as e:  # a malformed OPEN payload
                    reply_op, reply = OP_ERROR, _error_reply(ERR_BAD_REQUEST, str(e))
                except Exception as e:  # defensive: never kill the connection silently
                    reply_op, reply = OP_ERROR, _error_reply(ERR_INTERNAL, repr(e))
                wire.send_frame(sock, reply_op, reply)
        except (wire.ProtoError, OSError):  # bad header, or the peer is gone
            pass
        finally:
            sock.close()
            if file is not None:
                file.close()

    def _open(self, payload: bytes):
        r = wire.Reader(payload)
        path = r.string()
        r.finish()  # a path and nothing after it
        target = (self.root / path).resolve()
        if not target.is_relative_to(self.root):
            raise ServerError(ERR_DENIED, f"path escapes served root: {path}")
        if not target.is_file():
            raise ServerError(ERR_NOT_FOUND, f"no such file: {path}")
        return open(target, "rb")

    def _read(self, file, payload: bytes) -> bytearray:
        """The requested span, read into one buffer that is then sent as it is.

        The buffer is sized to what the file holds past ``off`` now, and
        cut to what ``readinto`` filled if the file shrank meanwhile.
        """
        if len(payload) != 12:
            raise ServerError(ERR_BAD_REQUEST, "READ payload must be off+len")
        if file is None:
            raise ServerError(ERR_BAD_REQUEST, "READ before OPEN")
        off, length = struct.unpack("<QI", payload)
        if length > wire.MAX_FRAME:
            raise ServerError(
                ERR_BAD_REQUEST, f"READ of {length} bytes exceeds MAX_FRAME ({wire.MAX_FRAME} bytes)"
            )
        data = bytearray(max(0, min(length, os.fstat(file.fileno()).st_size - off)))
        file.seek(off)
        del data[file.readinto(data) :]
        with self._lock:
            self.total_bytes_served += len(data)
            self.total_read_calls += 1
        return data

    def start(self) -> "DataServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        wire.stop_accepting(self._listener)
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    def __enter__(self) -> "DataServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
