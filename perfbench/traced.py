"""The traced run: the per-layer table of one workload.

It is separate from the measured run, and nothing it does is inside
lib/ or bin/.  Three sources:

  1. the served binary, driven as in the measured run but with
     "trace":true on every line: per request, the server's own stage
     durations (queue_ns, engine_ns, total_ns, compile_ns) and the
     client latency around them; the {"op":"metrics"} counters before
     and after give work counts and cache outcomes;
  2. the probe (probe/layers.ml), which replays the same lines in
     process and times each layer's public entry point from outside,
     keeping spans (request -> decode / exec / encode) in
     memory and writing them out at the end;
  3. alternating untraced and traced closed-loop slices, whose ratio is
     the tracing overhead.

The layer-sum check: the probe replays the same lines in REPLAY_ROUNDS
paired passes, each line run bare (no spans) and with a span per layer
call, on two fresh registries.  In the pass with the median ratio, the
spanned layers' self times (decode, exec or session route/exec, encode)
must add up to the bare total to within LAYER_SUM_TOLERANCE; outside
it, the workload's table is printed as INCOMPLETE (layers.complete = 0)
and its numbers are still reported.
"""

import json
import os
import random
import statistics
import subprocess

import check
import loadgen
import server as srv

LAYER_SUM_TOLERANCE = 0.05
REPLAY_ROUNDS = 5  # paired bare + spanned passes of the probe
REPLAY_LINES = 20000
ENGINES = ["ll1", "slr", "earley", "cyk", "forest", "kbest", "mass", "session"]

# name -> (unit, end-to-end metric and workload it should move, where it should stay flat)
PER_LAYER = {
    "server.decode_us": ("us", "throughput_rps on warm_small, grammar_churn", "long_parse"),
    "server.decode_inline_us": ("us", "throughput_rps on grammar_churn", "long_parse"),
    "server.encode_us": ("us", "throughput_rps on warm_small, grammar_churn", "long_parse"),
    "server.wire_us": ("us", "latency_p50_ms on warm_small", "long_parse"),
    "server.ns_share": ("ratio", "(explains latency_p50_ms: share the response ns covers)", "-"),
    "scheduler.queue_p50_us": ("us", "latency_p99_ms on warm_small, long_parse", "-"),
    "scheduler.queue_p99_us": ("us", "latency_p99_ms on warm_small, long_parse", "-"),
    "scheduler.shed": ("count", "latency_p99_ms on warm_small, long_parse", "all (0)"),
    "registry.digest_us": ("us", "throughput_rps on warm_small", "long_parse"),
    "registry.lookup_us": ("us", "throughput_rps on warm_small", "long_parse"),
    "registry.compile_us": ("us", "latency_p99_ms, throughput_rps on grammar_churn", "warm_small"),
    "registry.trace_compile_us": ("us", "latency_p99_ms, throughput_rps on grammar_churn", "warm_small"),
    "registry.compiles": ("count", "latency_p99_ms, throughput_rps on grammar_churn", "warm_small"),
    "registry.artifact_hit_ratio": ("ratio", "throughput_rps on grammar_churn", "warm_small"),
    "registry.result_hit_ratio": ("ratio", "throughput_rps on warm_small", "long_parse"),
    "registry.artifact_evictions": ("count", "latency_p99_ms on grammar_churn", "warm_small"),
    "store.load_us": ("us", "throughput_rps, latency_p99_ms on grammar_churn; setup_s", "warm_small"),
    "store.save_us": ("us", "throughput_rps, latency_p99_ms on grammar_churn; setup_s", "warm_small"),
    "store.hits": ("count", "throughput_rps on grammar_churn", "all storeless workloads (0)"),
    "store.writes": ("count", "throughput_rps on grammar_churn", "all storeless workloads (0)"),
}
for _e in ENGINES:
    PER_LAYER["exec.engine_us." + _e] = ("us", "throughput_rps on long_parse", "warm_small")
for _e in ENGINES:
    PER_LAYER["exec.engine_mix." + _e] = ("ratio", "(workload shape, not a target)", "-")
PER_LAYER.update({
    "earley.items_per_req": ("count", "throughput_rps on long_parse, session_edits", "warm_small"),
    "earley.leo_uses_per_req": ("count", "throughput_rps on long_parse", "warm_small"),
    "cyk.cells_per_req": ("count", "throughput_rps on long_parse", "warm_small"),
    "forest.nodes_per_req": ("count", "throughput_rps on long_parse", "warm_small"),
    "weighted.nodes_per_req": ("count", "throughput_rps on long_parse", "warm_small"),
    "session.route_us": ("us", "throughput_rps, latency_p99_ms on session_edits", "long_parse"),
    "session.exec_us": ("us", "throughput_rps, latency_p99_ms on session_edits", "long_parse"),
    "session.reused_set_ratio": ("ratio", "throughput_rps, peak_rss_mb on session_edits", "long_parse"),
    "gc.minor_words_per_req": ("words", "throughput_rps on warm_small", "-"),
    "inproc.serial_warm_rps": ("1/s", "(baseline throughput_rps is read against)", "-"),
    "loadgen.lag_p99_ms": ("ms", "(run validity, not a target)", "-"),
    "trace.overhead_ratio": ("ratio", "(traced vs untraced throughput_rps)", "-"),
    "layers.residual_ratio": ("ratio", "(layer-sum check of the replay)", "-"),
    "layers.complete": ("count", "(1 when the residual is within tolerance)", "-"),
})


def median(xs):
    return statistics.median(xs) if xs else 0.0


def line_class(ln):
    if ln.startswith(b'{"session"') or b'"op":"session_open"' in ln:
        return "session"
    return "inline" if b'"grammar":{' in ln else "builtin"


def replay_lines(plan):
    """One cycle of each connection's lines, interleaved in a serial
    order, with session ids filled in the way a fresh server allocates
    them (s0, s1, ... in open order)."""
    sids, nxt, out = {}, 0, []
    for j in range(max(len(x) for x in plan.conns)):
        for lines, checks in zip(plan.conns, plan.checks):
            if j >= len(lines):
                continue
            ln, chk = lines[j], checks[j]
            if chk[0] == "open":
                sids[chk[1]] = b"s%d" % nxt
                nxt += 1
            out.append(ln if type(ln) is bytes else ln[0] + sids[ln[1]] + ln[2])
            if len(out) >= REPLAY_LINES:
                return out
    return out


def probe(run, layers_exe, seconds):
    plan = run.plan
    lines = replay_lines(plan)
    src = os.path.join(run.scratch, "replay.ndjson")
    with open(src, "wb") as f:
        f.writelines(lines)
    trace_dir = os.path.join(os.path.dirname(run.scratch), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, "%s.spans.jsonl" % plan.name)
    acap = plan.server_args[plan.server_args.index("--artifact-cache") + 1] \
        if "--artifact-cache" in plan.server_args else "64"
    budget = max(0.5, 0.03 * seconds)  # sizes each replay pass
    out = subprocess.run(
        [layers_exe, src, spans_path, run.scratch, acap, "1" if plan.store else "0",
         "%.3f" % budget, str(REPLAY_ROUNDS)],
        capture_output=True, text=True, timeout=170, preexec_fn=srv.die_with_parent)
    if out.returncode != 0:
        raise RuntimeError("layers probe failed: " + out.stderr.strip()[-600:])
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    with open(spans_path) as f:
        spans = [json.loads(x) for x in f]
    return lines, summary, spans, spans_path


def replay_table(lines, spans, plain_us):
    """Durations per layer and class, self times, and the layer-sum
    residual against plain_us, the same lines' total time replayed
    without spans."""
    dur = {}
    child_sum, req_dur = {}, {}
    for s in spans:
        d = (s["end_ns"] - s["start_ns"]) / 1e3
        if s["parent"] < 0:
            req_dur[s["req"]] = d
            continue
        child_sum[s["req"]] = child_sum.get(s["req"], 0.0) + d
        cls = line_class(lines[s["req"]])
        dur.setdefault((s["name"], cls), []).append(d)
        dur.setdefault((s["name"], "*"), []).append(d)
    n = max(1, len(req_dur))
    layers = sum(child_sum.values())
    self_us = {name: sum(v) / n for (name, cls), v in dur.items() if cls == "*"}
    self_us["(span bookkeeping)"] = (sum(req_dur.values()) - layers) / n
    residual = (layers - plain_us) / plain_us if plain_us else 0.0
    return dur, self_us, plain_us / n, residual


def run(run, layers_exe, seconds, seed):
    plan = run.plan
    main = run.spawn()
    conns = loadgen.connect(main, plan)
    client = loadgen.Client(conns)
    client.closed_loop(0.1 * seconds)
    slices = {False: [], True: []}
    for traced in (False, True, False, True):
        for c in conns:
            c.set_traced(traced)
        done, dt = client.closed_loop(0.1 * seconds)
        slices[traced].append(done / dt)
    client.drain()
    before = json.loads(main.admin({"op": "metrics"}))
    marks = [len(c.responses) for c in conns]
    client.open_loop(0.4 * seconds, plan.rate, random.Random(seed * 7919 + 2))
    client.drain()
    after = json.loads(main.admin({"op": "metrics"}))
    client.close()
    main.stop()

    mismatches = []
    fails = check.judge_all(conns, mismatches)
    check.report_mismatches(plan.name, mismatches)
    served, lag, sets_fed = [], [], 0
    for c, m in zip(conns, marks):
        for i, raw, due, sent, read in c.responses[m:]:
            chk = c.checks[i % c.period]
            lag.append((sent - due) * 1e3)
            r = json.loads(raw)
            if check.judge(raw, chk) is None and "trace" in r:
                ln = c.plain[i % c.period]
                cls = "session" if type(ln) is not bytes else line_class(ln)
                served.append((cls, (read - sent) * 1e6, r["trace"], r.get("ns"), r.get("engine", "")))
            if chk[0] == "state":
                sets_fed += chk[2] + 1

    lines, summary, spans, spans_path = probe(run, layers_exe, seconds)
    dur, self_us, req_us, residual = replay_table(lines, spans, summary["plain_us"])
    complete = abs(residual) <= LAYER_SUM_TOLERANCE

    def med(name, cls="*"):
        return median(dur.get((name, cls), []))

    decode_est = {cls: med("decode", cls) for cls in ("builtin", "inline", "session")}
    encode_est = med("encode")
    wire, share, queue, engine_by, compile_us, rows = [], [], [], {}, [], {}
    for cls, lat, tr, ns, eng in served:
        total = tr.get("total_ns", 0) / 1e3
        w = lat - total - decode_est[cls] - encode_est
        wire.append(w)
        if ns:
            share.append(ns / 1e3 / lat)
        queue.append(tr.get("queue_ns", 0) / 1e3)
        engine_by.setdefault(eng, []).append(tr.get("engine_ns", 0) / 1e3)
        if "compile_ns" in tr:
            compile_us.append(tr["compile_ns"] / 1e3)
        for name, v in (("client latency", lat), ("wire (remainder)", w),
                        ("decode (replay)", decode_est[cls]), ("queue", tr.get("queue_ns", 0) / 1e3),
                        ("compile", tr.get("compile_ns", 0) / 1e3),
                        ("engine", tr.get("engine_ns", 0) / 1e3),
                        ("registry+exec other", (tr.get("total_ns", 0) - tr.get("queue_ns", 0)
                                                 - tr.get("engine_ns", 0) - tr.get("compile_ns", 0)) / 1e3),
                        ("encode (replay)", encode_est)):
            rows[name] = rows.get(name, 0.0) + v

    c0, c1 = before.get("counters", {}), after.get("counters", {})

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    n = max(1, sum(len(c.responses) - m for c, m in zip(conns, marks)))  # traced open phase

    def hit_ratio(hit, miss):
        h, m = delta(hit), delta(miss)
        return h / (h + m) if h + m else 0.0

    inline = dur.get(("decode", "inline"), [])
    plain = [d for (name, cls), v in dur.items() if name == "decode" and cls in ("builtin", "session") for d in v]
    metrics = {
        "server.decode_us": median(plain),
        "server.decode_inline_us": median(inline),
        "server.encode_us": encode_est,
        "server.wire_us": median(wire),
        "server.ns_share": median(share),
        "scheduler.queue_p50_us": median(queue),
        "scheduler.queue_p99_us": loadgen.percentile(sorted(queue), 0.99),
        "scheduler.shed": delta("service.shed"),
        "registry.digest_us": summary["digest_us"],
        "registry.lookup_us": summary["lookup_us"],
        "registry.compile_us": summary["compile_us"],
        "registry.trace_compile_us": median(compile_us),
        "registry.compiles": delta("service.compile"),
        "registry.artifact_hit_ratio": hit_ratio("service.artifact_hit", "service.artifact_miss"),
        "registry.result_hit_ratio": hit_ratio("service.result_hit", "service.result_miss"),
        "registry.artifact_evictions": c1.get("service.artifact_miss", 0)
        - after.get("gauges", {}).get("lambekd_artifact_cache_size", 0),
        "store.load_us": summary["store_load_us"],
        "store.save_us": summary["store_save_us"],
        "store.hits": delta("store.hit"),
        "store.writes": delta("store.write"),
    }
    for e in ENGINES:
        metrics["exec.engine_us." + e] = median(engine_by.get(e, []))
    for e in ENGINES:
        metrics["exec.engine_mix." + e] = len(engine_by.get(e, [])) / max(1, len(served))
    metrics.update({
        "earley.items_per_req": delta("earley.items") / n,
        "earley.leo_uses_per_req": delta("earley.leo_uses") / n,
        "cyk.cells_per_req": delta("cyk.cells") / n,
        "forest.nodes_per_req": delta("forest.nodes") / n,
        "weighted.nodes_per_req": delta("weighted.nodes") / n,
        "session.route_us": med("session.route"),
        "session.exec_us": med("session.exec"),
        "session.reused_set_ratio": delta("session.reused_sets") / sets_fed if sets_fed else 0.0,
        "gc.minor_words_per_req": summary["gc_minor_words_per_req"],
        "inproc.serial_warm_rps": summary["serial_warm_rps"],
        "loadgen.lag_p99_ms": loadgen.percentile(sorted(lag), 0.99),
        "trace.overhead_ratio": 1 - statistics.mean(slices[True]) / statistics.mean(slices[False]),
        "layers.residual_ratio": residual,
        "layers.complete": 1 if complete else 0,
    })

    print("traced %s: %d spans from %d replayed lines written to %s"
          % (plan.name, len(spans), summary["replayed"], spans_path))
    print("replay self time per request (us), against %.2f us per request replayed plain"
          " (the median of %d paired passes):"
          % (req_us, summary["rounds"]))
    for name, v in sorted(self_us.items(), key=lambda kv: -kv[1]):
        print("  %-22s %12.3f  %5.1f%%" % (name, v, 100 * v / req_us if req_us else 0))
    print("  registry, outside the spans: digest %.3f us, lookup (hit) %.3f us"
          % (summary["digest_us"], summary["lookup_us"]))
    print("layer-sum check: residual %+.4f, tolerance %.2f -> %s"
          % (residual, LAYER_SUM_TOLERANCE, "complete" if complete else "INCOMPLETE"))
    print("served path, mean per request over %d traced responses (us):" % len(served))
    for name, v in rows.items():
        print("  %-22s %12.3f" % (name, v / max(1, len(served))))
    print("tracing overhead: untraced %.1f rps, traced %.1f rps"
          % (statistics.mean(slices[False]), statistics.mean(slices[True])))
    print("%-30s %16s %-6s  %-55s %s" % ("per-layer metric", "value", "unit", "should move", "flat on"))
    for name, (unit, moves, flat) in PER_LAYER.items():
        print("%-30s %16.4f %-6s  %-55s %s" % (name, metrics[name], unit, moves, flat))
    return {"correct": check.correct(fails), "attempted": sum(c.next for c in conns),
            "failed": sum(fails.values()),
            "metrics": {k: {"value": metrics[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}}
