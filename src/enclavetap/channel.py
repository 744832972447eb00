"""Reliable byte-stream channels between the tunnel peers.

The tunnel runs over any ordered, reliable byte stream. Two transports are
provided: an in-process loopback pair (used by tests and the benchmark
harness, with an optional per-message delay for round-trip experiments)
and a TCP socket wrapper for the CLI programs. The loopback receive copies
no more than it returns: a chunk of exactly the size asked for is handed
back as is, and a read from a larger chunk advances an offset into it
instead of re-slicing its remainder.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque

from .errors import ChannelClosed


class LoopbackEndpoint:
    """One side of an in-process byte-stream pair."""

    def __init__(self, delay_s: float = 0.0):
        self._rx = deque()  # (deliver_at, bytes) chunks queued for us
        self._head_off = 0  # bytes of self._rx[0] already received
        self._cond = threading.Condition()
        self._peer: "LoopbackEndpoint | None" = None
        self._closed = False
        self._delay = delay_s

    def _connect(self, peer: "LoopbackEndpoint") -> None:
        self._peer = peer

    def send(self, data: bytes) -> None:
        peer = self._peer
        if peer is None:
            raise ChannelClosed("not connected")
        data = bytes(data)  # no copy for bytes; a mutable buffer is snapshotted
        deliver_at = time.monotonic() + self._delay if self._delay else 0.0
        with peer._cond:
            if peer._closed:
                raise ChannelClosed("peer closed")
            peer._rx.append((deliver_at, data))
            peer._cond.notify_all()

    def recv_exact(self, n: int) -> bytes:
        """Block until exactly n bytes are available; raise ChannelClosed at EOF."""
        parts: list[bytes] = []
        need = n
        with self._cond:
            while need:
                while not self._rx:
                    if self._closed:
                        raise ChannelClosed("channel closed")
                    self._cond.wait(0.05)
                deliver_at, chunk = self._rx[0]
                if deliver_at:
                    now = time.monotonic()
                    if now < deliver_at:
                        self._cond.wait(deliver_at - now)
                        continue
                off = self._head_off
                if len(chunk) - off <= need:
                    piece = chunk[off:] if off else chunk
                    self._rx.popleft()
                    self._head_off = 0
                else:
                    piece = chunk[off : off + need]
                    self._head_off = off + need
                parts.append(piece)
                need -= len(piece)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        peer = self._peer
        if peer is not None:
            with peer._cond:
                peer._closed = True
                peer._cond.notify_all()


def loopback_pair(delay_s: float = 0.0) -> tuple[LoopbackEndpoint, LoopbackEndpoint]:
    a = LoopbackEndpoint(delay_s)
    b = LoopbackEndpoint(delay_s)
    a._connect(b)
    b._connect(a)
    return a, b


class SocketChannel:
    """Byte-stream channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 10.0) -> "SocketChannel":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock)

    @classmethod
    def listen_accept(cls, host: str, port: int) -> "SocketChannel":
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        conn, _ = srv.accept()
        srv.close()
        return cls(conn)

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("socket closed")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from None

    def recv_exact(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            try:
                chunk = self._sock.recv(n - len(out))
            except OSError as exc:
                raise ChannelClosed(str(exc)) from None
            if not chunk:
                raise ChannelClosed("socket EOF")
            out += chunk
        return bytes(out)

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
