(** Earley's algorithm: general context-free recognition in O(n³).

    The independent oracle the specialized parsers (Dyck's counter
    automaton, the Fig 15 lookahead automaton, LL(1)) are differentially
    tested against, and the general-CFG baseline in the benches.  Handles
    ε-productions, left recursion and ambiguity.

    The completer is indexed by awaited nonterminal: completing a
    constituent advances exactly the parents waiting on it at its origin,
    instead of scanning the whole origin chart ([~indexed:false] keeps
    the scanning completer as a bench baseline — both construct the
    identical item set).  Prediction is nullable-aware (Aycock–Horspool):
    the dot advances over a nullable nonterminal immediately, using the
    shared {!Nullable} fixpoint.  Right recursion runs in linear time via
    Leo's deterministic-reduction memo ([~leo], default on): completion
    chains of unique awaiters are collapsed to their topmost item in
    O(1), so [S → a S] charts grow O(n) instead of O(n²).  A Leo chart
    answers {!accepts} from the memo without expanding any chain;
    {!parse_tree} re-materializes the skipped intermediate completions
    before reconstructing.

    Grammar-dependent preprocessing lives in a {!compiled} value, and all
    per-run storage in a reusable {!scratch}, so a hot caller (the parse
    service) pays neither grammar analysis nor fresh chart allocation per
    request.  One {!run} produces a {!chart} that {!accepts}, {!size} and
    {!parse_tree} all interrogate, so a recognize-and-report pays for the
    chart once. *)

type compiled
(** A grammar compiled for the recognizer: packed-item geometry, dense
    nonterminal ids, per-(production, dot) symbol tables, prediction
    lists and the nullable set.  Reusable across runs and threads (it is
    immutable after {!compile}). *)

val compile : Cfg.t -> compiled

type scratch
(** Reusable per-run storage: every chart set's items, the waiting
    index, the completed facts, the Leo uses and memo, all in flat int
    arrays that grow by doubling and never shrink — so a warm scratch
    serves a request without chart allocation, and a retained chart
    costs a few words per item rather than a hash table per position.
    A scratch may be used by at most one run at a time, and the returned
    {!chart} aliases its arrays — a chart is invalidated by the
    scratch's next run. *)

val scratch : unit -> scratch

val scratch_positions : scratch -> int
(** How many input positions the scratch's per-position arrays are laid
    out for — what a pool caps before keeping a scratch for reuse. *)

type chart
(** The result of one recognizer run over one input: its sets, sorted
    completed facts and Leo uses, read in place from the scratch. *)

val run :
  ?indexed:bool -> ?leo:bool -> ?poll:(unit -> unit) -> Cfg.t -> string -> chart
(** [compile] then {!run_compiled} with a fresh scratch. *)

val run_compiled :
  ?indexed:bool ->
  ?leo:bool ->
  ?scratch:scratch ->
  ?poll:(unit -> unit) ->
  compiled ->
  string ->
  chart
(** Build the chart.  [indexed] (default [true]) selects the
    nonterminal-indexed completer with nullable-aware prediction;
    [false] the seed's full-scan completer with the dynamic ε-completion
    check.  [leo] (default [true], only meaningful when indexed) enables
    Leo's right-recursion shortcut; with it off the item set is
    identical to the scanning completer's.  [scratch] supplies reused
    storage (default: fresh).  [poll] is invoked once per popped item;
    it may raise to abort the run (deadline cancellation — the exception
    propagates, and the scratch is safely reset on its next use). *)

type session
(** An incremental recognizer: a retained chart plus the buffer it was
    built over.  {!feed} replaces the buffer and reuses the chart
    prefix — Earley set [p] depends only on characters [0..p-1], so
    after an edit whose longest common prefix with the old buffer is
    [p], sets [0..p] (including Leo memos and the waiting index over
    those positions) are exactly what a from-scratch run would build,
    and only the suffix is re-scanned.  Dropping the suffix is a
    truncation of the scratch's fill marks, so an append costs only the
    new sets.  A session owns its scratch; a chart returned by {!feed}
    aliases it and is invalidated by the next feed. *)

val session : ?scratch:scratch -> compiled -> session
(** A fresh session (empty buffer, no chart yet).  The completer is
    always the indexed one, with Leo memos.  [scratch] supplies reused
    storage which the session then owns until it is dropped. *)

val feed : ?poll:(unit -> unit) -> session -> string -> chart
(** Replace the session buffer with [w] and return its chart, reusing
    the longest valid chart prefix (identical re-feeds reuse
    everything; appends reuse all previous sets).  [poll] may raise to
    abort — the buffer is already [w] but the retained chart is marked
    invalid, so the next feed recomputes from scratch.  The chart is
    equivalent to [run_compiled comp w]: {!accepts}, {!size} (live
    items for the current buffer) and {!parse_tree} all agree with the
    from-scratch run. *)

val session_text : session -> string
(** The current buffer (the argument of the last {!feed}, or [""]). *)

val session_reused : session -> int
(** How many chart sets the most recent {!feed} retained — [0] for a
    from-scratch rebuild, [n+1] for an identical re-feed of a length-[n]
    buffer.  A reuse observability hook for tests and benches. *)

val accepts : chart -> bool
(** Was the whole input derived from the start symbol?  Reads the
    completed facts at the last position plus, for each Leo shortcut
    ending there, a bit its memo recorded: whether the chain it skipped
    completes the start symbol from origin 0.  No chain is walked: the
    answer costs a binary search per start production and one read per
    use at the last set. *)

val size : chart -> int
(** Total number of Earley items constructed (a work measure for the
    benches).  Under Leo this is smaller than the classical chart —
    linear instead of quadratic on right-recursive grammars. *)

type tree =
  | Leaf of char
  | Node of string * int * tree list
      (** nonterminal, production index, children *)

val parse_tree : ?poll:(unit -> unit) -> chart -> tree option
(** One derivation tree (the first found when walking back through
    completed items); [None] if the word is not in the language.  On a
    Leo chart the memoized reduction chains ending at a position are
    expanded into a side table on the chart the first time the walk
    asks about a constituent ending there, so every intermediate
    completion fact the shortcuts skipped is available; the scratch
    itself is not touched.
    Subtrees are memoized per (nonterminal, span), so the walk is
    polynomial in the input.  [poll] runs at every constituent visit
    and may raise to abort (deadline cancellation). *)

val recognizes : Cfg.t -> string -> bool
(** [accepts (run cfg w)]. *)

val chart_size : Cfg.t -> string -> int
(** [size (run cfg w)]. *)

val parse : Cfg.t -> string -> tree option
(** [parse_tree (run cfg w)]. *)

val tree_yield : tree -> string

val tree_to_ptree : tree -> Lambekd_grammar.Ptree.t
(** The derivation as a parse of {!Cfg.to_grammar} — [Roll]/[Inj] layers
    tagged by production index. *)
