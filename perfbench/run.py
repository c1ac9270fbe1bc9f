"""Socket-to-socket benchmark of `lambekd serve`.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lambekd checkout.  Builds the server (and the
probe programs) from source under .bench_build/, generates the
workload's requests from the seed, spawns `lambekd serve --tcp 0
--domains 1`, drives it over loopback from this one thread on two
connections, judges every response against an oracle independent of the
served engines, and prints one JSON object as the last line of standard
output:

  --trace 0   the end-to-end metrics (README.md, "End-to-end metrics")
  --trace 1   the per-layer metrics of a separate traced run
              (README.md, "Per-layer metrics")

Exits 1, printing no result, when the checkout cannot be built, a
server fails to start, answer or drain, or the open-loop generator sent
too late to have applied the planned load (LAG_LIMIT_MS).
"""

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing in the checkout but .bench_build/

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import loadgen  # noqa: E402
import server as srv  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # servers started per run; setup_s is their median
# Closed- and open-loop slices alternate ROUNDS times.  Throughput is the
# median over rounds, and so is each latency percentile: the median of
# every round's percentile, no round left out.  On this two-core host a
# run's tail is set by a few stalls of 0.1-0.3 s (the server's, or the
# host's); one pooled p99 over a run moves with how many of them it
# caught, the median of ten rounds with what a round typically sees.
# The pooled p99 is printed beside it.
ROUNDS = 10
# A failed request misses every latency limit: it counts as late as the
# longest a run waits for a response (loadgen.Client.drain).
FAILED_MS = 30000.0
# The validity gate: a run whose open-loop generator sent later than
# this at its p99 did not apply the planned load, and is refused (exit 1)
# rather than reported.
LAG_LIMIT_MS = 50.0


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


_T0 = cpu_times()


def steal():
    """Share of CPU time the hypervisor took from this machine since the
    run started (a noisy-host diagnostic)."""
    d = [b - a for a, b in zip(_T0, cpu_times())]
    return 100.0 * d[7] / max(1, sum(d)) if len(d) > 7 else 0.0


class Run:
    """Servers and scratch of one benchmark run, torn down on any exit."""

    def __init__(self, root, exe, plan):
        self.exe, self.plan = exe, plan
        base = os.path.join(root, ".bench_build", "perfbench")
        self.scratch = os.path.join(base, "run-%d" % os.getpid())
        os.makedirs(self.scratch, exist_ok=True)
        for name in os.listdir(base):  # scratch left by a run killed outright
            if name.startswith("run-") and not os.path.exists("/proc/" + name[4:]):
                shutil.rmtree(os.path.join(base, name), ignore_errors=True)
        self.servers = []
        self.stores = 0

    def spawn(self):
        store = None
        if self.plan.store:  # a fresh, not yet existing store directory
            self.stores += 1
            store = os.path.join(self.scratch, "store-%d" % self.stores)
        s = srv.Server(self.exe, self.plan.server_args, self.scratch, store)
        self.servers.append(s)
        return s.start()

    def setup_samples(self, n):
        out = []
        for _ in range(n):
            s = self.spawn()
            out.append(s.setup_s)
            s.stop()
        return out

    def cleanup(self):
        for s in self.servers:
            s.kill()
        shutil.rmtree(self.scratch, ignore_errors=True)


def end_to_end(run, seconds, seed):
    plan = run.plan
    setups = run.setup_samples(SETUP_SAMPLES - 1)
    main = run.spawn()
    setups.append(main.setup_s)
    conns = loadgen.connect(main, plan)
    client = loadgen.Client(conns)
    client.closed_loop(0.1 * seconds)  # fill caches and grow the heap before timing
    rng = random.Random(seed * 7919 + 1)
    rounds = []  # (closed-loop rate, open-loop response marks per connection)
    for _ in range(ROUNDS):
        done, dt = client.closed_loop(0.35 * seconds / ROUNDS)
        client.drain()
        start = [len(c.responses) for c in conns]
        client.open_loop(0.55 * seconds / ROUNDS, plan.rate, rng)
        client.drain()
        rounds.append((done / dt, list(zip(start, [len(c.responses) for c in conns]))))
    counters = json.loads(main.admin({"op": "metrics"})).get("counters", {})
    rss = main.peak_rss_mb()
    client.close()
    main.stop()

    mismatches = []
    fails = check.judge_all(conns, mismatches)
    check.report_mismatches(plan.name, mismatches)
    attempted = sum(c.next for c in conns)
    failed = sum(fails.values())
    rates, p50s, p99s, lat, lag = [], [], [], [], []
    for rate, spans in rounds:
        rates.append(rate)
        mark = len(lat)
        for c, (a, b) in zip(conns, spans):
            for i, raw, due, sent, read in c.responses[a:b]:
                ok = check.judge(raw, c.checks[i % c.period]) is None
                lat.append((read - due) * 1e3 if ok else FAILED_MS)
                lag.append((sent - due) * 1e3)
        this = sorted(lat[mark:])
        p50s.append(loadgen.percentile(this, 0.50))
        p99s.append(loadgen.percentile(this, 0.99))
    lat.sort()
    lag.sort()
    lag_p99 = loadgen.percentile(lag, 0.99)
    if lag_p99 > LAG_LIMIT_MS:
        raise srv.BenchError("the load generator ran late (send lag p99 %.1f ms > %.0f ms): "
                             "the planned load was not applied" % (lag_p99, LAG_LIMIT_MS))

    def ratio(hit, miss):
        h, m = counters.get(hit, 0), counters.get(miss, 0)
        return round(h / (h + m), 4) if h + m else 0.0

    record = dict(plan.record)
    record["measured_result_hit_ratio"] = ratio("service.result_hit", "service.result_miss")
    record["measured_artifact_hit_ratio"] = ratio("service.artifact_hit", "service.artifact_miss")
    print("mix %s %s" % (plan.name, json.dumps(record, sort_keys=True)))
    print("rounds %s closed-loop rps %s" % (plan.name, " ".join("%.1f" % x for x in rates)))
    print("rounds %s open-loop p50 ms %s" % (plan.name, " ".join("%.3f" % x for x in p50s)))
    print("rounds %s open-loop p99 ms %s" % (plan.name, " ".join("%.3f" % x for x in p99s)))
    print("phases %s %d open-loop samples at %.0f/s (pooled p99 %.3f ms); generator lag p99 %.3f ms; "
          "failures %s; error_ratio %.6f; cpu steal %.1f%%"
          % (plan.name, len(lat), plan.rate, loadgen.percentile(lat, 0.99), lag_p99,
             fails or "none", failed / max(1, attempted), steal()))
    metrics = {
        "throughput_rps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(p50s), "ms"),
        "latency_p99_ms": (statistics.median(p99s), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    for k, (v, u) in metrics.items():
        print("metric %-16s %14.6f %s" % (k, v, u))
    return {"correct": check.correct(fails), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def interrupted(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)

    signal.signal(signal.SIGTERM, interrupted)
    # the responses kept for judging make a large heap of acyclic tuples;
    # collector passes over it would stall the generator mid-phase
    gc.disable()
    root = os.getcwd()
    run = None
    try:
        exe, oracle, layers = srv.build(root, need_layers=bool(args.trace))
        plan = workloads.PLANS[args.workload](args.seed, oracle)
        run = Run(root, exe, plan)
        if args.trace:
            result = traced.run(run, layers, args.seconds, args.seed)
        else:
            result = end_to_end(run, args.seconds, args.seed)
    except (srv.BenchError, OSError, ValueError, RuntimeError, subprocess.SubprocessError,
            KeyboardInterrupt) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        if run:
            run.cleanup()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
