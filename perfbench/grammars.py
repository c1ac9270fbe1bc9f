"""Grammars the benchmark sends, and what it knows about their languages.

A grammar is a start symbol and a list of productions ``(lhs, rhs)``;
``rhs`` is a tuple of wire symbols: ``"'c'"`` for the terminal ``c`` or a
bare nonterminal name -- the shape of the ``"grammar"`` object of the
NDJSON protocol.  Accepted long inputs are built by sampling
derivations; short inputs are classified by the oracle program
(``probe/oracle.ml``, the Gr model's ``Enum.accepts``).
"""

import math

MAX_INT = 2**62 - 1  # OCaml's max_int: forest counts saturate here


class Cfg:
    def __init__(self, start, prods):
        self.start = start
        self.prods = [(lhs, tuple(rhs)) for lhs, rhs in prods]
        self.by_lhs = {}
        for lhs, rhs in self.prods:
            self.by_lhs.setdefault(lhs, []).append(rhs)
        self.alphabet = sorted({s[1] for _, rhs in self.prods for s in rhs if is_t(s)})
        self._minlen = min_yields(self)
        # per nonterminal: (rhs, min yield of rhs) choices for the sampler
        self.choices = {
            n: [(rhs, sum(self.sym_min(s) for s in rhs)) for rhs in alts]
            for n, alts in self.by_lhs.items()
        }

    def sym_min(self, s):
        return 1 if is_t(s) else self._minlen[s]

    def wire(self):
        return {"start": self.start, "prods": [[lhs, list(rhs)] for lhs, rhs in self.prods]}

    def oracle_text(self, gid):
        """The grammar in the oracle program's line format."""
        out = ["G %s %s" % (gid, self.start.encode().hex())]
        for lhs, rhs in self.prods:
            syms = [("t" + s[1].encode().hex()) if is_t(s) else ("n" + s.encode().hex()) for s in rhs]
            out.append(" ".join(["P", lhs.encode().hex()] + syms))
        out.append("E")
        return "\n".join(out)

    def sample(self, rng, target):
        """A word of the language, of length near ``target``, by sampling a
        leftmost derivation: while the length budget allows, productions
        that keep growing the word are preferred; past it, the shortest."""
        out = []
        stack = [self.start]
        pending = self._minlen[self.start]  # least yield still owed by the stack
        while stack:
            sym = stack.pop()
            if is_t(sym):
                out.append(sym[1])
                continue
            pending -= self._minlen[sym]
            budget = target - len(out) - pending
            alts = self.choices[sym]
            fits = [a for a in alts if a[1] <= budget]
            if not fits:
                rhs, m = min(alts, key=lambda a: a[1])
            else:
                growing = [a for a in fits if any(not is_t(s) for s in a[0])]
                keep_growing = budget > target * 0.25 and rng.random() < 0.7
                pool = growing if growing and keep_growing else fits
                rhs, m = pool[rng.randrange(len(pool))]
            pending += m
            stack.extend(reversed(rhs))
        return "".join(out)


def is_t(sym):
    return sym[0] == "'"


def t(c):
    return "'%s'" % c


def min_yields(cfg):
    inf = float("inf")
    m = {n: inf for n in cfg.by_lhs}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in cfg.prods:
            v = sum(1 if is_t(s) else m[s] for s in rhs)
            if v < m[lhs]:
                m[lhs] = v
                changed = True
    return m


def _g(start, prods):
    return Cfg(start, [(lhs, [t(s[1]) if s.startswith("'") else s for s in rhs]) for lhs, rhs in prods])


# The service's builtin grammars (lib/service/builtin.ml), production for
# production: the oracle needs their languages.
BUILTINS = {
    "dyck": _g("D", [("D", []), ("D", ["'(", "D", "')", "D"])]),
    "expr": _g("E", [("E", ["A", "E'"]), ("E'", []), ("E'", ["'+", "A", "E'"]),
                     ("A", ["'n"]), ("A", ["'(", "E", "')"])]),
    "expr_lr": _g("E", [("E", ["E", "'+", "A"]), ("E", ["A"]),
                        ("A", ["'n"]), ("A", ["'(", "E", "')"])]),
    "expr_plain": _g("E", [("E", ["A"]), ("E", ["A", "'+", "E"]),
                           ("A", ["'n"]), ("A", ["'(", "E", "')"])]),
    "ss": _g("S", [("S", ["S", "S"]), ("S", ["'a"])]),
    "anbn": _g("S", [("S", []), ("S", ["'a", "S", "'b"])]),
    "arith": _g("E", [("E", ["E", "'+", "T"]), ("E", ["E", "'-", "T"]), ("E", ["T"]),
                      ("T", ["T", "'*", "F"]), ("T", ["T", "'/", "F"]), ("T", ["F"]),
                      ("F", ["'n"]), ("F", ["'-", "F"]), ("F", ["'(", "E", "')"])]),
    "stmt": _g("S", [("S", ["'v", "'=", "E", "';"]),
                     ("S", ["'i", "'(", "E", "')", "S", "'e", "S"]),
                     ("S", ["'w", "'(", "E", "')", "S"]),
                     ("S", ["'{", "L", "'}"]),
                     ("L", []), ("L", ["S", "L"]),
                     ("E", ["E", "'+", "T"]), ("E", ["T"]),
                     ("T", ["T", "'*", "F"]), ("T", ["F"]),
                     ("F", ["'v"]), ("F", ["'n"]), ("F", ["'(", "E", "')"])]),
}


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def ss_trees(n):
    """Derivations of a^n under S -> S S | a: binary trees with n leaves."""
    return catalan(n - 1) if n >= 1 else 0


def ss_logp(n, pair):
    """Log-probability of every single derivation of a^n when
    P(S -> S S) = pair and P(S -> a) = 1 - pair: n-1 pair nodes, n leaves."""
    return (n - 1) * math.log(pair) + n * math.log(1 - pair)


def ss_log_mass(n, pair):
    """Inside log-probability of a^n: all derivations weigh the same."""
    return math.log(ss_trees(n)) + ss_logp(n, pair)


# --- random grammars for the churn workload --------------------------------

_TERMINALS = "abcdefghijklmnopqrstuvwxyz0123456789+-*/%^&|<>=!?~:;.,@#$"


def random_grammar(rng, shape):
    """An expression grammar the size of the arith/stmt builtins:
    2-4 precedence levels of binary operators, each level left- or
    right-associative, an atom level with parentheses and optional unary
    prefix operators, and, half the time, a statement layer on top.
    ``shape[choice]`` draws each structural choice from a stratified
    stream of its own, so a pool's mix of sizes does not depend on the
    seed; ``rng`` draws the terminals."""
    chars = rng.sample(_TERMINALS, 20)
    lparen, rparen = rng.choice([("(", ")"), ("[", "]"), ("{", "}")])
    levels = shape["levels"].int(2, 4)
    names = ["E%d" % i for i in range(levels)] + ["F"]
    prods = []
    k = 0
    for i in range(levels):
        nt, nxt = names[i], names[i + 1]
        left = shape["left"]() < 0.5
        for _ in range(shape["ops"].int(1, 2)):
            op = t(chars[k])
            k += 1
            prods.append((nt, (nt, op, nxt) if left else (nxt, op, nt)))
        prods.append((nt, (nxt,)))
    for _ in range(shape["atoms"].int(1, 3)):
        prods.append(("F", (t(chars[k]),)))
        k += 1
    if shape["unary"]() < 0.5:
        prods.append(("F", (t(chars[k]), "F")))
        k += 1
    prods.append(("F", (t(lparen), "E0", t(rparen))))
    start = "E0"
    if shape["statements"]() < 0.5:
        var, assign, semi, kw, opn, cls = (t(c) for c in chars[k:k + 6])
        prods = [("S", (var, assign, "E0", semi)),
                 ("S", (kw, t(lparen), "E0", t(rparen), "S")),
                 ("S", (opn, "L", cls)),
                 ("L", ()), ("L", ("S", "L"))] + prods
        start = "S"
    return Cfg(start, prods)
