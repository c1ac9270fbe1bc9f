"""Judging responses against the checks their requests were planned with.

judge() returns None when a response is right, else a failure class:
"wrong" (a verdict the oracle contradicts), "error" (an error response
other than the two below), "overloaded", "timeout".  judge_all() adds
"diverged" (an op of a session whose earlier op failed) and "missing"
(a request never answered).
"""

import json
import re

import grammars as G
import loadgen

_LEAF = re.compile(r"'(.)'")


def tree_yield(tree):
    """The terminals of a rendered parse tree, left to right."""
    return "".join(_LEAF.findall(tree))


def close(a, b, tol=1e-6):
    return a is not None and abs(a - b) <= tol * max(1.0, abs(b))


def judge(raw, check):
    try:
        r = json.loads(raw)
    except ValueError:
        return "error"
    if not r.get("ok"):
        err = r.get("error")
        return err if err in ("overloaded", "timeout") else "error"
    kind = check[0]
    v = r.get("verdict")
    if kind == "member":
        ok = v == ("accept" if check[1] else "reject")
    elif kind == "parse":
        if check[1]:
            ok = v == "accept" and tree_yield(r.get("tree", "")) == check[2]
        else:
            ok = v == "reject"
    elif kind == "count":
        trees = G.ss_trees(check[1])
        if trees >= G.MAX_INT:
            ok = v == "count" and r.get("saturated") is True and r.get("count") == float(G.MAX_INT)
        else:
            ok = (v == "count" and not r.get("saturated", False)
                  and float(r.get("count", -1)) == float(trees))
    elif kind == "kbest":
        n, k, word, pair = check[1:]
        parses = r.get("parses") or []
        logps = [p.get("logp") for p in parses]
        ok = (v == "ranked"
              and len(parses) == min(k, G.ss_trees(n))
              and all(close(lp, G.ss_logp(n, pair)) for lp in logps)
              and all(a >= b for a, b in zip(logps, logps[1:]))
              and all(tree_yield(p.get("tree", "")) == word for p in parses))
    elif kind == "mass":
        ok = v == "mass" and close(r.get("log_mass"), G.ss_log_mass(*check[1:]))
    elif kind == "open":
        ok = v == "session_opened" and isinstance(r.get("session"), str)
    elif kind == "state":
        accept, length, word = check[1:]
        ok = v == ("accept" if accept else "reject") and r.get("len") == length
        if ok and word is not None and accept:
            ok = tree_yield(r.get("tree", "")) == word
    elif kind == "close":
        ok = v == "session_closed"
    else:
        raise ValueError("unknown check %r" % (kind,))
    return None if ok else "wrong"


def judge_all(conns, mismatches):
    """Judge every response; returns failures by class.  Once an op of a
    session fails (shed, say), the server's buffer and the simulated one
    differ, so the session's later ops count as failed ("diverged"), not
    as wrong verdicts."""
    fails = {}
    for c in conns:
        diverged = set()
        for i, raw, *_ in c.responses:
            chk = c.checks[i % c.period]
            ln = c.plain[i % c.period]
            session = None if type(ln) is bytes else (i // c.period, ln[1])
            bad = judge(raw, chk)
            if session in diverged and bad:
                bad = "diverged"
            elif bad and chk[0] == "open":
                diverged.add((i // c.period, chk[1]))
            elif bad and session:
                diverged.add(session)
            if bad:
                fails[bad] = fails.get(bad, 0) + 1
                if bad in ("wrong", "error"):
                    mismatches.append((c.lines[i % c.period], chk, raw))
    n_missing = loadgen.missing(conns)
    if n_missing:
        fails["missing"] = n_missing
    return fails


def report_mismatches(name, mismatches):
    for ln, chk, raw in mismatches[:20]:
        # a session op shows its plan key where the session id goes
        req = ln if type(ln) is bytes else ln[0] + ln[1].encode() + ln[2]
        print("MISMATCH %s expected %r\n  request  %s\n  response %s"
              % (name, chk[:2], req.decode(errors="replace").strip()[:400],
                 raw.decode(errors="replace")[:400]))
    if len(mismatches) > 20:
        print("MISMATCH %s ... %d more" % (name, len(mismatches) - 20))


def correct(fails):
    """No wrong verdict, no error response, no missing response; sheds,
    timeouts and diverged sessions are failures but not wrong answers."""
    return not (fails.get("wrong") or fails.get("error") or fails.get("missing"))
