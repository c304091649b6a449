"""The open loop times from the due instant and reports its own lateness."""

import socket
import threading
import time

from harness import HttpConn, open_loop

BODY = b'{"ok":true}'


class FakeServer:
    """Answers every request at once, except one it sits on for a while."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at, self.stall_s = stall_at, stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.seen = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        sock, _ = self.listener.accept()
        with sock:
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                buf += chunk
                while b"\r\n\r\n" in buf:
                    head, _, rest = buf.partition(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length:")[1].split()[0])
                    if len(rest) < length:
                        break
                    buf = rest[length:]
                    if self.seen == self.stall_at:
                        time.sleep(self.stall_s)
                    self.seen += 1
                    sock.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                        % (len(BODY), BODY)
                    )

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5.0)


def run(stall_s: float, rate: float = 200.0, count: int = 40):
    server = FakeServer(stall_at=10, stall_s=stall_s)
    conn = HttpConn(server.port)
    try:
        return open_loop(
            [conn], "/query", lambda i: b'{"i":%d}' % i,
            lambda i, body: body == BODY, rate, count,
        )
    finally:
        conn.close()
        server.close()
        assert not server.thread.is_alive()


def test_a_stall_is_charged_to_every_request_queued_behind_it():
    stall_s, interval = 0.1, 1.0 / 200.0
    loop = run(stall_s)
    assert loop.failed == 0 and loop.ops == 40
    lat = loop.latencies
    assert max(lat[:10]) < 0.02                 # before the stall: quick
    assert lat[10] >= stall_s                   # the stalled request itself
    # Requests 11.. were due during the stall; a closed loop would have
    # started their clocks only when the connection freed up.  Timed
    # from the due instant, each inherits what was left of the wait.
    for behind in range(1, 6):
        assert lat[10 + behind] >= stall_s - behind * interval - 0.01
    assert loop.backlog_max >= 10
    # ... and the schedule recovers: the tail is quick again.
    assert max(lat[-5:]) < 0.02


def test_generator_lag_excludes_waiting_for_a_busy_connection():
    loop = run(stall_s=0.1)
    assert len(loop.lags) == 40
    # The generator itself was never late by anything like the stall:
    # waiting for the only connection is the server's doing, and is in
    # the latencies, not here.
    assert max(loop.lags) < 0.02
    assert sorted(loop.lags)[len(loop.lags) // 2] < 0.002


def test_an_unstalled_run_keeps_to_its_schedule():
    loop = run(stall_s=0.0, rate=400.0, count=80)
    assert loop.failed == 0 and loop.backlog_max <= 2
    elapsed = loop.ends[-1] - loop.start
    assert 79 / 400.0 <= elapsed < 79 / 400.0 + 0.05
