"""The four workloads: seeded request plans and what each response must say.

A plan gives each of the two connections a cyclic list of lines and, in
parallel, the check its response must pass.  A line is bytes, or, for a
session op, a template ``(prefix, session_key, suffix)`` whose session
id is known only once the server has answered the session's open.  The
server receives nothing but these lines.

Expected verdicts never come from the engines under test:
  - short inputs are classified by the oracle program (``Enum.accepts``,
    the Gr model) when the plan is made;
  - long accepts are built by sampling derivations, long rejects by edits
    that provably leave the language (a factor no word contains, a byte
    outside the alphabet, unequal a/b counts);
  - ``count`` on ss is the Catalan number, saturating at max_int;
    ``kbest`` and ``mass`` on ss follow from every derivation of a^n
    weighing the same under any weight table;
  - session answers come from an incremental recognizer over the
    simulated buffer (Buffer, below).
"""

import collections
import json
import math
import random
import statistics
import subprocess

import grammars as G
from server import die_with_parent

# --- checks ---------------------------------------------------------------
# ("member", accept)            verdict accept / reject
# ("parse", accept, word)       as member; an accept carries a tree over word
# ("count", n)                  ss count of a^n
# ("kbest", n, k, word, p)      ss k-best of a^n, P(S -> S S) = p
# ("mass", n, p)                ss inside probability of a^n
# ("open", key)                 session opened; its id is bound to key
# ("state", accept, len, word)  session answer; word set on parse queries
# ("close",)                    session closed


class Plan:
    def __init__(self, name, conns, checks, rate, server_args, store, record):
        self.name = name
        self.conns = conns  # per connection: list of lines (cyclic)
        self.checks = checks  # per connection: parallel list of checks
        self.rate = rate  # open-loop arrivals per second
        self.server_args = server_args
        self.store = store  # run the server on a fresh --store directory
        self.record = record  # the input-mix record


def line(obj):
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def split_conns(lines, checks):
    return [lines[0::2], lines[1::2]], [checks[0::2], checks[1::2]]


def classify(oracle, grammars, queries):
    """Enum.accepts verdicts for (grammar id, word) queries."""
    text = "\n".join(
        [g.oracle_text(gid) for gid, g in grammars.items()]
        + ["Q %s %s" % (gid, w.encode().hex()) for gid, w in queries]
    )
    out = subprocess.run([oracle], input=text + "\n", capture_output=True,
                         text=True, timeout=120, preexec_fn=die_with_parent)
    if out.returncode != 0:
        raise RuntimeError("oracle failed: " + out.stderr.strip()[-400:])
    verdicts = out.stdout.split()
    if len(verdicts) != len(queries):
        raise RuntimeError("oracle answered %d of %d queries" % (len(verdicts), len(queries)))
    return [v == "1" for v in verdicts]


class Strata:
    """Draws in [0, 1) that hit each of k equal strata once in every block
    of k draws.  Mix decisions (which grammar, which size, accept or
    reject) take their draws from one of these, so the seed decides which
    value lands where but every stretch of a plan has the same mix."""

    def __init__(self, rng, k=20):
        self.rng, self.k, self.block = rng, k, []

    def __call__(self):
        if not self.block:
            self.block = [(j + self.rng.random()) / self.k for j in range(self.k)]
            self.rng.shuffle(self.block)
        return self.block.pop()

    def int(self, lo, hi):
        return lo + min(hi - lo, int(self() * (hi - lo + 1)))

    def pick(self, items, weights=None):
        weights = weights or [1] * len(items)
        x = self() * sum(weights)
        for item, w in zip(items, weights):
            x -= w
            if x < 0:
                return item
        return items[-1]


def mutate(rng, w, alphabet):
    """One or two random single-character edits over the alphabet."""
    w = list(w)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(w) + 1)
        op = rng.random()
        if op < 0.35 and w:
            del w[min(k, len(w) - 1)]
        elif op < 0.7 or not w:
            w.insert(k, rng.choice(alphabet))
        else:
            w[min(k, len(w) - 1)] = rng.choice(alphabet)
    return "".join(w)


def quartiles(xs):
    return [round(q, 1) for q in statistics.quantiles(xs, n=4)]


def shares(keys):
    counts = collections.Counter(keys)
    return {k: round(v / len(keys), 4) for k, v in sorted(counts.items())}


def request_record(reqs):
    """The input-mix record of a list of request dicts (before encoding)."""
    keys = [(r["grammar"] if isinstance(r["grammar"], str) else json.dumps(r["grammar"]),
             r.get("query", "member"), r.get("engine", "auto"), r.get("kbest"),
             str(r.get("weights")), r["input"])
            for r in reqs]
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    inline = [r["grammar"] for r in reqs if not isinstance(r["grammar"], str)]
    rec = {
        "lines": len(reqs),
        "grammar_share": shares([r["grammar"] if isinstance(r["grammar"], str) else "inline"
                                 for r in reqs]),
        "input_bytes_quartiles": quartiles([len(r["input"]) for r in reqs]),
        "query_share": shares([r.get("query", "member") for r in reqs]),
        "engine_pin_share": shares([r.get("engine", "auto") for r in reqs]),
        "repeat_share": round(repeats / max(1, len(reqs)), 4),
    }
    if inline:
        rec["inline_grammars_distinct"] = len({json.dumps(g) for g in inline})
        rec["inline_productions_quartiles"] = quartiles([len(g["prods"]) for g in inline])
        rec["inline_grammar_bytes_quartiles"] = quartiles(
            [len(json.dumps(g, separators=(",", ":"))) for g in inline])
    return rec


def request_check(r, accept):
    if r.get("query") == "parse":
        return ("parse", accept, r["input"])
    return ("member", accept)


# --- warm_small -------------------------------------------------------------

def warm_small(seed, oracle):
    """Short inputs over the eight builtins; a quarter of the lines repeat a
    recent line word for word, so the result cache both hits and misses.
    6000 distinct lines plus repeats make one cycle: longer than the
    4096-entry result cache, so a line's next cycle misses again."""
    rng = random.Random(seed)
    names = sorted(G.BUILTINS)
    s_name, s_query, s_len, s_mut, s_rep = (Strata(rng) for _ in range(5))
    distinct, seen = [], set()
    while len(distinct) < 6000:
        name = s_name.pick(names)
        g = G.BUILTINS[name]
        query = "parse" if s_query() < 0.15 else "member"
        hi = 24 if (name == "ss" and query == "parse") else 64
        w = g.sample(rng, s_len.int(4, hi))
        if s_mut() < 0.4:
            w = mutate(rng, w, g.alphabet)
        if not 4 <= len(w) <= hi or (name, query, w) in seen:
            continue
        seen.add((name, query, w))
        r = {"grammar": name, "input": w}
        if query == "parse":
            r["query"] = "parse"
        distinct.append(r)
    verdicts = classify(oracle, G.BUILTINS, [(r["grammar"], r["input"]) for r in distinct])
    reqs, checks = [], []
    for r, v in zip(distinct, verdicts):
        reqs.append(r)
        checks.append(request_check(r, v))
        if s_rep() < 1 / 3:  # one repeat per three fresh lines: a quarter
            k = len(reqs) - 1 - rng.randrange(min(len(reqs), 256))
            reqs.append(reqs[k])
            checks.append(checks[k])
    conns, cks = split_conns([line(r) for r in reqs], checks)
    return Plan("warm_small", conns, cks, RATES["warm_small"], [], False, request_record(reqs))


# --- long_parse -------------------------------------------------------------

# Pairs no word of expr_plain contains: '+' and '(' are always followed
# by an operand ('n' or '('), an operand ('n' or ')') by '+', ')' or the
# end.
_EXPR_FORBIDDEN = ["++", "nn", ")(", "(+", "+)", "n("]


def long_expr(rng, atoms, target):
    """A word of expr_plain of about ``target`` bytes by the derivation
    E -> A + E -> ...: a chain of atoms drawn from ``atoms``."""
    parts, n = [], 0
    while n < target:
        a = rng.choice(atoms)
        parts.append(a)
        n += len(a) + 1
    return "+".join(parts)


def expr_atoms(rng):
    """Words of expr_plain's A: 'n', or a parenthesised short sampled
    expression (A -> ( E )); 'n' is drawn 60% of the time."""
    ep = G.BUILTINS["expr_plain"]
    nested = ["(" + ep.sample(rng, rng.randint(3, 15)) + ")" for _ in range(400)]
    return ["n"] * 600 + nested


def ss_pair_weight(rng):
    """A weight for S -> S S (S -> a gets one minus it): a distinct table
    makes a distinct result-cache key for the same a^n."""
    return round(rng.uniform(0.2, 0.5), 3)


def log_uniform(u, lo, hi):
    """The value at quantile u of a log-uniform distribution on [lo, hi]."""
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def long_parse(seed, _oracle):
    """Long inputs on the heavy engines.  Every line is distinct, and one
    cycle is longer than the 4096-entry result cache, so every request
    runs an engine.  Sizes keep each engine in milliseconds (README.md)."""
    rng = random.Random(seed)
    atoms = expr_atoms(rng)
    s_kind = Strata(rng, 100)
    s_len = collections.defaultdict(lambda: Strata(rng))  # one stream per kind
    s_acc = collections.defaultdict(lambda: Strata(rng))
    reqs, checks = [], []
    kinds = [("expr_member", 30), ("expr_parse", 8), ("ss_cyk", 16), ("anbn_cyk", 14),
             ("ss_count", 12), ("ss_kbest", 10), ("ss_mass", 10)]
    population = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    seen = set()
    while len(reqs) < 6000:
        kind = s_kind.pick(population, weights)
        if kind in ("expr_member", "expr_parse"):
            hi = 4096 if kind == "expr_member" else 768
            w = long_expr(rng, atoms, log_uniform(s_len[kind](), 512, hi))
            accept = s_acc[kind]() < 0.75
            if not accept:
                k = rng.randrange(len(w) + 1)
                w = w[:k] + rng.choice(_EXPR_FORBIDDEN) + w[k:]
            r = {"grammar": "expr_plain", "input": w, "engine": "earley"}
            if kind == "expr_parse":
                r["query"] = "parse"
            check = request_check(r, accept)
        elif kind == "ss_cyk":
            n = s_len[kind].int(256, 512)
            w = "a" * n
            accept = s_acc[kind]() < 0.85
            if not accept:  # a byte outside ss's alphabet {a}
                k = rng.randrange(n + 1)
                w = w[:k] + "b" + w[k:]
            r = {"grammar": "ss", "input": w}
            check = ("member", accept)
        elif kind == "anbn_cyk":
            n = s_len[kind].int(128, 256)
            m = n if s_acc[kind]() < 0.6 else n + rng.choice([-2, -1, 1, 2])
            r = {"grammar": "anbn", "input": "a" * n + "b" * m, "engine": "cyk"}
            check = ("member", m == n)
        elif kind == "ss_count":
            n = s_len[kind].int(8, 48)
            r = {"grammar": "ss", "input": "a" * n, "query": "count"}
            check = ("count", n)
        elif kind == "ss_kbest":
            n, k, pair = s_len[kind].int(8, 24), rng.randint(1, 8), ss_pair_weight(rng)
            r = {"grammar": "ss", "input": "a" * n, "query": "parse", "kbest": k,
                 "weights": [pair, round(1 - pair, 3)]}
            check = ("kbest", n, k, "a" * n, pair)
        else:
            n, pair = s_len[kind].int(8, 40), ss_pair_weight(rng)
            r = {"grammar": "ss", "input": "a" * n, "query": "mass",
                 "weights": [pair, round(1 - pair, 3)]}
            check = ("mass", n, pair)
        key = (r["grammar"], r["input"], r.get("query"), r.get("kbest"), str(r.get("weights")))
        if key in seen:
            continue
        seen.add(key)
        reqs.append(r)
        checks.append(check)
    conns, cks = split_conns([line(r) for r in reqs], checks)
    return Plan("long_parse", conns, cks, RATES["long_parse"], [], False, request_record(reqs))


# --- grammar_churn ----------------------------------------------------------

def grammar_churn(seed, oracle):
    """Inline grammars drawn with Zipf-skewed reuse from a pool of 256
    random grammars; the server keeps 16 artifacts in memory and writes
    every compile through to a fresh store, so the working set spills to
    the store and back."""
    rng = random.Random(seed)
    shape = collections.defaultdict(lambda: Strata(rng))
    pool = [G.random_grammar(rng, shape) for _ in range(256)]
    order = list(range(256))
    rng.shuffle(order)
    zipf = [1.0 / (rank + 1) for rank in range(256)]
    wires = [g.wire() for g in pool]
    s_g, s_len, s_mut, s_query = Strata(rng, 100), Strata(rng), Strata(rng), Strata(rng)
    reqs, queries, seen = [], [], set()
    while len(reqs) < 6000:
        gi = order[s_g.pick(range(256), zipf)]
        g = pool[gi]
        w = g.sample(rng, s_len.int(6, 40))
        if s_mut() < 0.35:
            w = mutate(rng, w, g.alphabet)
        query = "parse" if s_query() < 0.25 else "member"
        if (gi, query, w) in seen:
            continue
        seen.add((gi, query, w))
        r = {"grammar": wires[gi], "input": w}
        if query == "parse":
            r["query"] = "parse"
        reqs.append(r)
        queries.append(("g%d" % gi, w))
    verdicts = classify(oracle, {"g%d" % i: g for i, g in enumerate(pool)}, queries)
    checks = [request_check(r, v) for r, v in zip(reqs, verdicts)]
    conns, cks = split_conns([line(r) for r in reqs], checks)
    return Plan("grammar_churn", conns, cks, RATES["grammar_churn"],
                ["--artifact-cache", "16"], True, request_record(reqs))


# --- session_edits ----------------------------------------------------------

class Buffer:
    """A simulated session buffer with its recognizer state after every
    prefix, so an append or edit re-runs the recognizer only from the
    first changed byte.  Every op the plan makes keeps the buffer a prefix
    of some word (a dead buffer would leave the server's Earley sets
    empty, and its later ops nearly free), so each op makes the server's
    retained chart do real work; the verdict is accept whenever the
    prefix is itself a word."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.text = ""
        # state after each prefix: dyck -> depth; expr_plain ->
        # (want_operand, depth); None once no word has this prefix
        self.states = [0 if grammar == "dyck" else (True, 0)]

    def _step(self, st, c):
        if st is None:
            return None
        if self.grammar == "dyck":
            if c == "(":
                return st + 1
            return st - 1 if c == ")" and st > 0 else None
        want, depth = st
        if want:
            return (False, depth) if c == "n" else ((True, depth + 1) if c == "(" else None)
        if c == "+":
            return (True, depth)
        return (False, depth - 1) if c == ")" and depth > 0 else None

    def splice(self, at, dele, ins):
        self.text = self.text[:at] + ins + self.text[at + dele:]
        del self.states[at + 1:]
        st = self.states[at]
        for c in self.text[at:]:
            st = self._step(st, c)
            self.states.append(st)

    def accepts(self):
        st = self.states[-1]
        return st == (0 if self.grammar == "dyck" else (False, 0))

    def walk(self, rng, n, at=None):
        """n bytes continuing the prefix text[:at] (a random walk over
        the grammar's tokens)."""
        st = self.states[len(self.text) if at is None else at]
        out = []
        for _ in range(n):
            if self.grammar == "dyck":
                c = "(" if st == 0 or (st < 24 and rng.random() < 0.5) else ")"
            else:
                want, d = st
                if want:
                    c = "(" if d < 3 and rng.random() < 0.25 else "n"
                else:
                    c = ")" if d > 0 and rng.random() < 0.4 else "+"
            out.append(c)
            st = self._step(st, c)
        return "".join(out)

    def neutral_edit(self, rng):
        """A mid-buffer (at, del, ins) that keeps every prefix valid:
        insert or remove "()" (dyck) or "n+" where an operand is due
        (expr_plain)."""
        pair = "()" if self.grammar == "dyck" else "n+"
        at = rng.randrange(len(self.text))
        if self.grammar != "dyck":
            while not self.states[at][0]:  # back up to where an operand is due
                at -= 1
        if rng.random() < 0.5:
            k = self.text.find(pair, at)
            if k >= 0 and (self.grammar == "dyck" or self.states[k][0]):
                return k, 2, ""
        return at, 0, pair


def session_edits(seed, _oracle):
    """32 sessions (16 per connection) on dyck and expr_plain, grown by
    appends to about 4 KiB with tail and mid-buffer edits and queries
    interleaved; a cycle closes them all and the next opens fresh ones."""
    rng = random.Random(seed)
    s_op, s_chunk = Strata(rng, 100), Strata(rng)
    conns, cks, ops_record, lens = [], [], [], []
    for c in range(2):
        lines, checks = [], []
        sessions = []
        for s in range(16):
            gname = "dyck" if (s + c) % 2 == 0 else "expr_plain"
            key = "c%ds%d" % (c, s)
            lines.append(line({"op": "session_open", "grammar": gname}))
            checks.append(("open", key))
            sessions.append((key, Buffer(gname), 3072 + 128 * s))
        live = list(sessions)
        while live:
            key, buf, target = live[rng.randrange(len(live))]
            x = s_op()
            n = len(buf.text)
            word = None
            if x < 0.75 or n < 16:
                ins = buf.walk(rng, s_chunk.int(1, 32))
                op = {"op": "append", "chunk": ins}
                buf.splice(n, 0, ins)
                kind = "append"
            elif x < 0.83:
                k = s_chunk.int(1, 16)
                ins = buf.walk(rng, s_chunk.int(0, 8), at=n - k)
                op = {"op": "edit", "at": n - k, "del": k, "ins": ins}
                buf.splice(n - k, k, ins)
                kind = "tail_edit"
            elif x < 0.87:
                at, dele, ins = buf.neutral_edit(rng)
                op = {"op": "edit", "at": at, "del": dele, "ins": ins}
                buf.splice(at, dele, ins)
                kind = "mid_edit"
            else:
                # parse queries only while the buffer is short: Earley tree
                # reconstruction is super-linear in the buffer (README.md)
                parse = n <= 64 and rng.random() < 0.5
                op = {"op": "query", "query": "parse" if parse else "member"}
                word = buf.text if parse else None
                kind = "query_parse" if parse else "query_member"
            body = json.dumps(op, separators=(",", ":"))
            lines.append((b'{"session":"', key, ('",' + body[1:] + "\n").encode()))
            checks.append(("state", buf.accepts(), len(buf.text), word))
            ops_record.append((buf.grammar, kind, buf.accepts()))
            lens.append(len(buf.text))
            if len(buf.text) >= target:
                live.remove((key, buf, target))
        for key, _, _ in sessions:
            lines.append((b'{"op":"session_close","session":"', key, b'"}\n'))
            checks.append(("close",))
        conns.append(lines)
        cks.append(checks)
    record = {
        "lines": sum(len(x) for x in conns),
        "sessions": 32,
        "grammar_share": shares([g for g, _, _ in ops_record]),
        "op_share": shares([k for _, k, _ in ops_record]),
        "accept_share": round(sum(a for _, _, a in ops_record) / len(ops_record), 4),
        "buffer_bytes_quartiles": quartiles(lens),
        "repeat_share": 0.0,
    }
    return Plan("session_edits", conns, cks, RATES["session_edits"], [], False, record)


# Open-loop arrival rates (requests per second): round numbers, at or
# below half of each workload's closed-loop throughput on the 2-core
# machine the benchmark was sized on, low enough that a stall must last
# 64 ms or more before a burst overflows the server's 64-deep
# queue (README.md, "Open-loop rates").
RATES = {
    "warm_small": 1000.0,
    "long_parse": 140.0,
    "grammar_churn": 800.0,
    "session_edits": 750.0,
}

PLANS = {
    "warm_small": warm_small,
    "long_parse": long_parse,
    "grammar_churn": grammar_churn,
    "session_edits": session_edits,
}
