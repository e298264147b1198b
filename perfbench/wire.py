"""Client side of the daemon's wire protocol, for the serve workload.

Every message is one frame, `<decimal byte length>\\n<JSON payload>`, in
both directions. A connection pipelines any number of requests; events of
different requests interleave and are routed by `id`. The benchmark needs
its own reader instead of `Vp_serve.Client`: `Client.await` blocks on one
id at a time, so replies that arrive while it waits for another request
would be stamped late. Here every frame is stamped the moment it is
parsed.
"""

import json
import os
import socket
import time


class Conn:
    """One nonblocking Unix-socket connection with a frame decoder."""

    def __init__(self, path, timeout=10.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buf = b""
        self.out = b""

    def fileno(self):
        return self.sock.fileno()

    def send(self, obj):
        payload = json.dumps(obj).encode()
        self.out += str(len(payload)).encode() + b"\n" + payload
        self.flush()

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            self.out = self.out[n:]

    def read_frames(self):
        """Read what the socket holds; return [(arrival_time, event)]."""
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        now = time.perf_counter()
        self.buf += chunk
        frames = []
        while True:
            nl = self.buf.find(b"\n")
            if nl < 0:
                break
            size = int(self.buf[:nl])
            if len(self.buf) < nl + 1 + size:
                break
            frames.append((now, json.loads(self.buf[nl + 1:nl + 1 + size])))
            self.buf = self.buf[nl + 1 + size:]
        return frames

    def close(self):
        self.sock.close()


def call(path, obj, until, deadline_s=600.0):
    """Send one request on a fresh connection and collect its events until
    one whose `event` is in `until`; return (events, connect_s, first_s,
    last_s) with times relative to the start of the call."""
    import select

    t0 = time.perf_counter()
    conn = Conn(path)
    t_conn = time.perf_counter() - t0
    try:
        conn.send(obj)
        events, first = [], None
        end = t0 + deadline_s
        while True:
            left = end - time.perf_counter()
            if left <= 0:
                raise TimeoutError("no reply to %s" % obj.get("op"))
            if conn.out:
                conn.flush()
            select.select([conn], [], [], min(left, 1.0))
            for at, ev in conn.read_frames():
                if first is None:
                    first = at - t0
                events.append(ev)
                if ev.get("event") in until:
                    return events, t_conn, first, at - t0
    finally:
        conn.close()


def submit(path, spec, deadline_s=600.0):
    """Blocking submit on its own connection: (data, error, timings)."""
    events, t_conn, first, last = call(
        path, dict(spec, op="submit"), ("done", "error"), deadline_s
    )
    by_exp = {}
    err = None
    for ev in events:
        if ev.get("event") == "result":
            by_exp[ev["artifact"]] = ev["data"]
        elif ev.get("event") == "error":
            err = (ev.get("code"), ev.get("message"))
    data = "".join(by_exp.get(e, "") for e in spec["experiments"])
    return data, err, (t_conn, first, last)


def stats(path):
    events, _, _, _ = call(path, {"op": "stats", "id": "stats"}, ("stats",), 30.0)
    return events[-1]["stats"]


def ping(path):
    call(path, {"op": "ping", "id": "ping"}, ("pong",), 5.0)


def wait_ready(path, deadline_s):
    """Poll until the daemon answers a ping; raise on timeout."""
    end = time.perf_counter() + deadline_s
    while True:
        if os.path.exists(path):
            try:
                ping(path)
                return
            except (OSError, ConnectionError, TimeoutError):
                pass
        if time.perf_counter() > end:
            raise TimeoutError("daemon did not answer a ping")
        time.sleep(0.002)
