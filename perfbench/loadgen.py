"""The load generator: one thread, two connections, pipelined NDJSON.

Responses on a connection come back in request order, so each
connection keeps a FIFO of what it has in flight.  Every response is
kept (with its plan index) and judged after the phase, off the clock.
"""

import collections
import json
import math
import selectors
import time

now = time.perf_counter


def percentile(sorted_xs, p):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_xs:
        return 0.0
    return sorted_xs[max(0, min(len(sorted_xs), math.ceil(p * len(sorted_xs))) - 1)]


class Conn:
    def __init__(self, sock, lines, checks):
        sock.setblocking(False)
        self.sock = sock
        self.plain = self.lines = lines
        self.traced = None
        self.checks = checks
        self.period = len(lines)
        self.next = 0  # plan index of the next line to send (cycles)
        self.queued = collections.deque()  # (index, due) scheduled, not yet sent
        self.inflight = collections.deque()  # (index, due, sent)
        self.out = b""
        self.inbuf = b""
        self.sids = {}  # (cycle, session key) -> session id bytes
        self.responses = []  # (index, response bytes, due, sent, read)
        self.closed = False
        self.events = selectors.EVENT_READ

    def set_traced(self, on):
        """Switch later lines to (or back from) asking for a server trace."""
        if on and self.traced is None:
            self.traced = [trace_line(x) for x in self.plain]
        self.lines = self.traced if on else self.plain

    def render(self, i):
        """The line for plan index i, or None while its session id is not
        known yet (its open has not been answered)."""
        ln = self.lines[i % self.period]
        if type(ln) is bytes:
            return ln
        prefix, key, suffix = ln
        sid = self.sids.get((i // self.period, key))
        return None if sid is None else prefix + sid + suffix

    def pump(self, t):
        """Move queued lines to the socket, in order, up to the first one
        still waiting for its session id."""
        parts = []
        while self.queued:
            i, due = self.queued[0]
            ln = self.render(i)
            if ln is None:
                break
            self.queued.popleft()
            parts.append(ln)
            self.inflight.append((i, due, t))
        if parts:
            self.out += b"".join(parts)
        self.flush()

    def flush(self):
        if self.out and not self.closed:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                n = 0
            except OSError:
                self.closed = True
                return
            self.out = self.out[n:]

    def on_readable(self, t):
        """Read what the server sent; returns the number of responses."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return 0
        except OSError:
            data = b""
        if not data:
            self.closed = True
            return 0
        self.inbuf += data
        if b"\n" not in data:
            return 0
        *lines, self.inbuf = self.inbuf.split(b"\n")
        for raw in lines:
            i, due, sent = self.inflight.popleft()
            check = self.checks[i % self.period]
            if check[0] == "open":
                # an open that failed binds an id no session has, so the
                # session's later ops are answered (with errors) instead
                # of waiting forever
                sid = json.loads(raw).get("session") or "-"
                self.sids[(i // self.period, check[1])] = sid.encode()
            self.responses.append((i, raw, due, sent, t))
        return len(lines)

    def busy(self):
        return bool(self.queued or self.inflight or self.out)


def trace_line(ln):
    """The same request asking for a server-side trace object."""
    if type(ln) is bytes:
        return b'{"trace":true,' + ln[1:]
    prefix, key, suffix = ln
    return (b'{"trace":true,' + prefix[1:], key, suffix)


class Client:
    def __init__(self, conns):
        self.conns = conns
        self.sel = selectors.SelectSelector()  # select(2): microsecond timeouts
        for c in conns:
            self.sel.register(c.sock, c.events, c)

    def _poll(self, timeout):
        for c in self.conns:
            want = selectors.EVENT_READ | (selectors.EVENT_WRITE if c.out else 0)
            if want != c.events:
                self.sel.modify(c.sock, want, c)
                c.events = want
        events = self.sel.select(max(0.0, timeout))
        t = now()
        done = 0
        for key, ev in events:
            c = key.data
            if ev & selectors.EVENT_READ:
                done += c.on_readable(t)
            if ev & selectors.EVENT_WRITE:
                c.flush()
        for c in self.conns:
            c.pump(now())
        return done

    def closed_loop(self, seconds, window=8):
        """Each connection keeps `window` requests outstanding.  Returns
        (responses completed within the window, its length in s)."""
        t0 = now()
        end = t0 + seconds
        done = 0
        while True:
            t = now()
            if t >= end:
                break
            for c in self.conns:
                while len(c.inflight) + len(c.queued) < window:
                    c.queued.append((c.next, None))
                    c.next += 1
                c.pump(t)
            done += self._poll(end - t)
            if all(c.closed for c in self.conns):
                break
        return done, now() - t0

    def open_loop(self, seconds, rate, rng):
        """Poisson arrivals at `rate`, alternating connections, each
        request due at its scheduled instant whatever the server is doing."""
        t0 = now() + 0.001
        end = t0 + seconds
        due = t0 + rng.expovariate(rate)
        k = 0
        while True:
            t = now()
            while due <= t and due < end:
                c = self.conns[k % len(self.conns)]
                c.queued.append((c.next, due))
                c.next += 1
                k += 1
                due += rng.expovariate(rate)
            for c in self.conns:
                c.pump(t)
            if due >= end:
                break
            self._poll(due - now())
            if all(c.closed for c in self.conns):
                break
        return k

    def drain(self, timeout=30.0):
        """Wait for every request sent (or queued) to be answered."""
        end = now() + timeout
        while any(c.busy() and not c.closed for c in self.conns) and now() < end:
            self._poll(min(0.05, end - now()))

    def close(self):
        self.sel.close()
        for c in self.conns:
            try:
                c.sock.close()
            except OSError:
                pass


def connect(server, plan):
    return [Conn(server.connect(), lines, checks)
            for lines, checks in zip(plan.conns, plan.checks)]


def missing(conns):
    """Requests sent or due that never got a response."""
    return sum(len(c.inflight) + len(c.queued) for c in conns)

