"""Closed-loop load over one keep-alive HTTP/1.1 connection.

The client sends its next request only after the previous response has been
read in full (no pipelining), the way a browser waits for a page.  Between
two requests it times the reference computation of
:mod:`hotcrpbench.reference` on the core it shares with the server, so each
request has a probe just before and just after it.
"""

from __future__ import annotations

import socket
import time
from typing import List, NamedTuple, Optional

from hotcrpbench.reference import REFERENCE_NS, probe_ns
from hotcrpbench.workloads import RequestStream, check

#: A response slower than this counts as failed.
TIMEOUT_S = 10.0


class Sample(NamedTuple):
    latency_ns: int
    ok: bool
    is_write: bool
    #: True for a write the server acknowledged (it must be stored).
    acked: bool
    #: Mean of the reference probes timed just before and just after it.
    probe_ns: float

    def scaled_ns(self) -> float:
        """The latency at the reference speed."""
        return self.latency_ns * REFERENCE_NS / self.probe_ns


class Connection:
    """One keep-alive client connection, reopened after any error."""

    def __init__(self, port: int):
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buffer = bytearray()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buffer.clear()

    def exchange(self, wire: bytes):
        """Send one request; return ``(status, body)``."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(wire)
        end = self._fill_until(lambda buf: buf.find(b"\r\n\r\n"))
        head = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        del self.buffer[: end + 4]
        status = int(head[0].split(" ", 2)[1])
        length = None
        close = False
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        if length is None:
            raise ConnectionError("response without Content-Length")
        self._fill_until(lambda buf: length if len(buf) >= length else -1)
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        if close:
            self.close()
        return status, body

    def _fill_until(self, find) -> int:
        while True:
            position = find(self.buffer)
            if position >= 0:
                return position
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self.buffer += data


def drive(connection: Connection, stream: RequestStream, seconds: float):
    """Run the closed loop for ``seconds``; return the samples and the
    elapsed wall time."""
    samples: List[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds
    before = probe_ns()
    while time.perf_counter() < deadline:
        request = stream.next()
        sent = time.perf_counter_ns()
        try:
            status, body = connection.exchange(request.wire)
            ok = check(request.expect, status, body)
        except (OSError, ValueError, IndexError):
            connection.close()
            ok = False
        latency = time.perf_counter_ns() - sent
        after = probe_ns()
        probe = (before + after) / 2
        samples.append(
            Sample(latency, ok, request.is_write, request.is_write and ok, probe)
        )
        before = after
    return samples, time.perf_counter() - start
