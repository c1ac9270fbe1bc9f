"""A pipelined burst against `lambekd serve --tcp` behind a one-slot queue.

usage: python3 test/tcp_burst.py PATH/TO/lambekd.exe

Starts `serve --tcp 0 --domains 1 --queue-cap 1 --no-times`, sends 2000
stateless requests, a `session_open` and 500 `append`s in one write
(from a thread, while this thread reads), and checks that:

- every line gets exactly one response, in order;
- no response is `overloaded` (a full queue makes the server stop
  reading, so the burst waits in the socket buffer);
- the last append reports the whole buffer, so no session op was lost;
- SIGTERM drains the server and it exits 0.

Exits 0 on success, 1 with a message otherwise.
"""

import json
import re
import signal
import socket
import subprocess
import sys
import threading

STATELESS, APPENDS = 2000, 500
TIMEOUT_S = 60


def main(exe):
    argv = [exe, "serve", "--tcp", "0", "--domains", "1", "--queue-cap", "1", "--no-times"]
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        port = None
        for line in proc.stdout:
            m = re.search(rb"serving on 127\.0\.0\.1:(\d+)", line)
            if m:
                port = int(m.group(1))
                break
        if port is None:
            return "server did not announce a port"

        lines = [json.dumps({"id": "q%d" % i, "grammar": "dyck", "input": "()" * (i % 5)})
                 for i in range(STATELESS)]
        lines.append(json.dumps({"id": "open", "op": "session_open", "grammar": "dyck"}))
        lines += [json.dumps({"id": "a%d" % i, "op": "append", "session": "s0", "chunk": "()"})
                  for i in range(APPENDS)]
        payload = ("\n".join(lines) + "\n").encode()

        sock = socket.create_connection(("127.0.0.1", port))
        sock.settimeout(TIMEOUT_S)
        writer = threading.Thread(target=sock.sendall, args=(payload,))
        writer.start()
        f = sock.makefile("rb")
        responses = []
        for _ in lines:
            r = f.readline()
            if not r:
                break
            responses.append(json.loads(r))
        writer.join()
        sock.close()

        if len(responses) != len(lines):
            return "%d responses to %d lines" % (len(responses), len(lines))
        ids = [json.loads(l)["id"] for l in lines]
        got = [r.get("id") for r in responses]
        if got != ids:
            return "responses out of order or mismatched"
        shed = sum(1 for r in responses if r.get("error") == "overloaded")
        if shed:
            return "%d responses were overloaded" % shed
        failed = [r for r in responses if not r.get("ok")]
        if failed:
            return "%d failed responses, first %r" % (len(failed), failed[0])
        last = responses[-1]
        if last.get("len") != 2 * APPENDS:
            return "final buffer length %r, expected %d" % (last.get("len"), 2 * APPENDS)

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=TIMEOUT_S)
        if rc != 0:
            return "server exited %d after SIGTERM" % rc
        print("tcp burst: %d lines answered in order, none shed, len %d"
              % (len(lines), last["len"]))
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    err = main(sys.argv[1])
    if err:
        print("tcp burst: FAIL: " + err, file=sys.stderr)
        sys.exit(1)
