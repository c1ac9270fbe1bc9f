"""Building the checkout and running `lambekd serve` under the benchmark.

Everything the benchmark writes goes under .bench_build/ in the checkout:
the dune build trees, the probe workspace, per-run scratch (server logs,
store directories), and span files from traced runs.
"""

import ctypes
import filecmp
import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import time

ANNOUNCE = re.compile(rb"serving on 127\.0\.0\.1:(\d+)")


class BenchError(Exception):
    pass


def die_with_parent():
    """preexec_fn for every child: SIGKILL it if the benchmark dies, even
    by SIGKILL, so no server outlives an interrupted run."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def dune(root, build_dir, targets):
    env = dict(os.environ, DUNE_CACHE="disabled")
    out = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir] + targets,
        env=env, capture_output=True, text=True, timeout=840)
    return out.returncode, (out.stdout + out.stderr).strip()


def mirror(src, dst, keep=()):
    """Make dst an exact copy of the tree src, apart from the top-level
    names in keep, touching only what changed (so dune's rebuild stays
    incremental)."""
    os.makedirs(dst, exist_ok=True)
    names = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in names and name not in keep:
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) and not os.path.islink(p) else os.remove(p)
    for name in names:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            if os.path.exists(d) and not os.path.isdir(d):
                os.remove(d)
            mirror(s, d)
        elif not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
            if os.path.isdir(d):
                shutil.rmtree(d)
            shutil.copyfile(s, d)


def build(root, need_layers):
    """Build the server from the checkout, and the probe programs in a
    workspace of their own (a copy of lib/ plus perfbench/probe/).
    Returns (server, oracle, layers-or-None)."""
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError("not a lambekd checkout: %s is missing" % need)
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    rc, log = dune(root, os.path.join(out, "dune"), ["bin/lambekd.exe"])
    server = os.path.join(out, "dune", "default", "bin", "lambekd.exe")
    if rc != 0 or not os.path.exists(server):
        raise BenchError("building lambekd failed:\n" + log[-3000:])
    ws = os.path.join(out, "probe-ws")
    here = os.path.dirname(os.path.abspath(__file__))
    mirror(os.path.join(here, "probe"), ws, keep=("lib",))
    mirror(os.path.join(root, "lib"), os.path.join(ws, "lib"))
    rc, log = dune(ws, os.path.join(out, "probe-dune"), ["./oracle.exe", "./layers.exe"])
    probe = os.path.join(out, "probe-dune", "default")
    oracle, layers = os.path.join(probe, "oracle.exe"), os.path.join(probe, "layers.exe")
    if rc != 0 and (not os.path.exists(oracle) or need_layers):
        raise BenchError("building the probe failed:\n" + log[-3000:])
    return server, oracle, (layers if os.path.exists(layers) else None)


class Server:
    """One `lambekd serve --tcp 0 --domains 1` process."""

    def __init__(self, exe, args, scratch, store_dir=None):
        self.exe, self.args, self.scratch = exe, list(args), scratch
        self.store_dir = store_dir
        self.proc = None
        self.port = None
        self.setup_s = None

    def start(self):
        """Spawn, read the port from the announce line, and wait for the
        health answer; setup_s covers all of it (and opening the store)."""
        argv = [self.exe, "serve", "--tcp", "0", "--domains", "1"] + self.args
        if self.store_dir:
            argv += ["--store", self.store_dir]
        log = open(os.path.join(self.scratch, "server-stderr.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=log, cwd=self.scratch, preexec_fn=die_with_parent)
        log.close()
        fd = self.proc.stdout.fileno()
        got = b""
        deadline = t0 + 30
        while b"\n" not in got:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("server did not announce its port")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("server exited before announcing: rc=%s" % self.proc.wait())
            got += chunk
        m = ANNOUNCE.search(got)
        if not m:
            raise BenchError("unexpected announce line: %r" % got)
        self.port = int(m.group(1))
        reply = self.admin({"op": "health"})
        if b'"status":"ready"' not in reply:
            raise BenchError("server not ready: %r" % reply)
        self.setup_s = time.perf_counter() - t0
        return self

    def connect(self):
        s = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return s

    def admin(self, op):
        """Send one admin op on a connection of its own; return the reply."""
        s = self.connect()
        try:
            s.sendall((json.dumps(op) + "\n").encode())
            f = s.makefile("rb")
            reply = f.readline()
            f.close()
            return reply
        finally:
            s.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for ln in f:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, and insist on a clean drain: exit 0 and the log line."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not drain within 30 s of SIGTERM")
        if self.proc.returncode != 0 or b"drained after" not in out:
            raise BenchError("server did not drain cleanly: rc=%s, stdout %r"
                             % (self.proc.returncode, out[-300:]))

    def kill(self):
        if self.proc and self.proc.poll() is None:
            self.proc.kill()
        if self.proc:
            self.proc.wait()
            if self.proc.stdout:
                self.proc.stdout.close()
