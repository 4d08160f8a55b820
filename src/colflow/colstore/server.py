"""TCP data server for remote columnar file access.

A connection reads one file at a time, and may read many files one after
another: an OPEN closes the file the connection has open, if any, then
opens the new one (a failed OPEN leaves no file open). Requests and
replies are ``wire`` frames whose kind is the opcode; a reply echoes its
request's opcode. ``LAYOUTS`` declares their payloads once, for this
server and its client in ``colstore.dataset``:

- 1=OPEN(path, u32 head_len, u32 tail_len) -> u64 size, then the file's
  first head_len and last tail_len bytes (each cut at the file's size; a
  length of 0 asks for nothing), so a client reads a file's header and
  tail with its OPEN;
- 2=READ(u32-counted (u64 offset, u32 length) spans) -> the spans' bytes
  back to back, each cut short at EOF (empty at or past it);
- 4=METRICS() -> (u64 bytes_served, u64 read_calls) of the whole server;
- 3 and 5 are unassigned.

Hanging up closes the open file. Errors come back as opcode 0xFFFF with a
u16 code and a wire string, and the connection keeps serving: a payload
with trailing bytes, a READ with no file open, and spans that would not
fit in one frame are each ERR_BAD_REQUEST.

A request payload may be at most MAX_REQUEST bytes (a READ holds at most
MAX_SPANS spans) and a reply at most ``wire.MAX_FRAME``, counting the
spans' requested lengths; a connection that sends an oversized header or
a wrong protocol version is dropped.

Each span served, OPEN's head and tail included, counts one read call and
its bytes; nothing else counts, so the bytes and calls a client counts
over the spans it receives equal the growth of the server's totals
exactly. The server cuts every span of a reply at the size one ``fstat``
gives, writes the frame header, and then sends each span with
``os.sendfile`` from the page cache, so no span is copied into this
process. A file that shrinks while its spans are sent cannot finish the
frame its header declared, so the connection is dropped.

A server starts only through ``start()`` (or ``with``), which runs one
``wire.accept_forever`` thread; ``stop()`` closes the listening socket,
shuts down every connection it still serves (idle ones that clients keep
for their next open included) and joins all those threads.
"""

from __future__ import annotations

import os
import socket
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

MAX_REQUEST = 4 + 4096 + 8  # the largest OPEN: a PATH_MAX path as a wire string, then head_len and tail_len

SPAN = wire.fields(wire.U64, wire.U32)  # offset, length
MAX_SPANS = (MAX_REQUEST - 4) // len(SPAN.pack((0, 0)))  # the most spans one READ request holds


class ServerError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


LAYOUTS = {  # opcode: (request payload, reply payload before the spans' bytes)
    OP_OPEN: (wire.fields(wire.STR, wire.U32, wire.U32), wire.U64),  # path, head_len, tail_len -> size
    OP_READ: (wire.counted(SPAN), wire.fields()),  # spans -> nothing but their bytes
    OP_METRICS: (wire.fields(), wire.fields(wire.U64, wire.U64)),  # -> bytes_served, read_calls
}
ERROR_REPLY = wire.fields(wire.U16, wire.STR)  # code, message


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
        self._conns: dict[socket.socket, threading.Thread] = {}  # the connections being served
        self._stopped = False
        self._listener = listener or wire.listen()
        self.address = wire.address_of(self._listener)
        self._thread = threading.Thread(
            target=wire.accept_forever,
            args=(self._listener, self._serve, "data-conn"),
            name="data-accept",
            daemon=True,
        )

    def _serve(self, sock: socket.socket) -> None:
        """One connection: OPEN a file and READ it, as often as the client asks, then hang up."""
        with self._lock:
            if self._stopped:
                sock.close()
                return
            self._conns[sock] = threading.current_thread()
        file = None
        try:
            while (frame := wire.recv_frame(sock, MAX_REQUEST)) is not None:
                opcode, payload = frame
                spans = ()
                try:
                    if opcode not in LAYOUTS:
                        raise ServerError(ERR_BAD_REQUEST, f"unknown opcode {opcode}")
                    request, reply_layout = LAYOUTS[opcode]
                    args = wire.unpack_whole(request, payload)
                    if opcode == OP_OPEN:
                        path, head_len, tail_len = args
                        if file is not None:  # the connection moves on to another file
                            file.close()
                            file = None
                        _check_fits("OPEN", 8 + head_len + tail_len)  # the u64 size, then head and tail
                        file = self._open(path)
                        size = os.fstat(file.fileno()).st_size
                        spans = _cut(size, [s for s in ((0, head_len), (max(size - tail_len, 0), tail_len)) if s[1]])
                        reply = reply_layout.pack(size)
                    elif opcode == OP_READ:
                        if file is None:
                            raise ServerError(ERR_BAD_REQUEST, "READ before OPEN")
                        _check_fits("READ", sum(n for _, n in args))
                        spans = _cut(os.fstat(file.fileno()).st_size, args)
                        reply = b""
                    else:
                        with self._lock:
                            reply = reply_layout.pack((self.total_bytes_served, self.total_read_calls))
                    reply_op = opcode
                except ServerError as e:
                    reply_op, reply = OP_ERROR, ERROR_REPLY.pack((e.code, str(e)))
                except wire.ProtoError as e:  # a malformed request payload
                    reply_op, reply = OP_ERROR, ERROR_REPLY.pack((ERR_BAD_REQUEST, str(e)))
                except Exception as e:  # defensive: never kill the connection silently
                    reply_op, reply = OP_ERROR, ERROR_REPLY.pack((ERR_INTERNAL, repr(e)))
                self._reply(sock, reply_op, reply, file, spans)
        except (wire.ProtoError, OSError):  # bad header, the peer is gone, or the file shrank mid-reply
            pass
        finally:
            with self._lock:  # so stop() never shuts down a socket closed under it
                del self._conns[sock]
            sock.close()
            if file is not None:
                file.close()

    def _open(self, path: str):
        target = (self.root / path).resolve()
        if not target.is_relative_to(self.root):
            raise ServerError(ERR_DENIED, f"path escapes served root: {path}")
        if not target.is_file():
            raise ServerError(ERR_NOT_FOUND, f"no such file: {path}")
        return open(target, "rb")

    def _reply(self, sock: socket.socket, opcode: int, head: bytes, file, spans) -> None:
        """One reply frame: ``head``, then the bytes of each (already cut) span of ``file``.

        The frame header and ``head`` go out with ``MSG_MORE`` when spans
        follow, so they leave in the spans' first segment; each span goes
        from the page cache to the socket with ``os.sendfile``.
        """
        total = sum(n for _, n in spans)
        if spans:
            with self._lock:
                self.total_bytes_served += total
                self.total_read_calls += len(spans)
        sock.sendall(wire.pack_header(opcode, len(head) + total) + head, socket.MSG_MORE if total else 0)
        for off, n in spans:
            while n:
                sent = os.sendfile(sock.fileno(), file.fileno(), off, n)
                if sent == 0:
                    raise OSError("the file shrank while its spans were sent")
                off += sent
                n -= sent

    def start(self) -> "DataServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        wire.stop_accepting(self._listener)
        if self._thread.is_alive():
            self._thread.join(timeout=5)
        with self._lock:
            self._stopped = True
            conns = dict(self._conns)
            for sock in conns:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes its thread with EOF
                except OSError:  # the peer reset it already
                    pass
        for thread in conns.values():
            thread.join(timeout=5)

    def __enter__(self) -> "DataServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _check_fits(what: str, size: int) -> None:
    """A reply of ``size`` bytes, counting its spans' requested lengths, must fit in one frame."""
    if size > wire.MAX_FRAME:
        raise ServerError(ERR_BAD_REQUEST, f"{what} of {size} bytes exceeds MAX_FRAME ({wire.MAX_FRAME} bytes)")


def _cut(size: int, spans) -> list[tuple[int, int]]:
    """Each span cut short at ``size``, the file's size now (to nothing at or past it)."""
    return [(off, max(0, min(n, size - off))) for off, n in spans]
