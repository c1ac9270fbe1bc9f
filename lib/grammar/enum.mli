(** Parse enumeration and membership for the {!Grammar} model.

    Enumeration ({!parses}, {!count_fast}, {!first_parse}) is implemented
    on the packed parse chart of {!Chart}: build once, then
    count/unpack.  It is exact whenever the grammar system has no
    ε-cycles (every recursive path consumes input or shrinks the span),
    which holds for every grammar constructed in this library after
    normalization.  For genuinely infinitely-ambiguous grammars it
    returns a finite under-approximation.

    Membership ({!accepts}) solves the boolean least fixpoint over items
    with a semi-naive worklist: dependency edges are recorded as item
    bodies are first evaluated, and only the readers of an item that
    flips [false → true] are re-propagated.  It computes the same least
    fixpoint as the seed's iterated full recomputation (kept as
    {!accepts_fixpoint}) and is exact for {e all} grammar systems whose
    reachable item set on the given input is finite.

    Both engines prune [Seq] split points with the {!Charsets}
    nullability / first / last analysis — a sound over-approximation of
    each sub-language — and explore only items reachable from the query,
    so infinitely indexed definitions (counter automata, reified
    predicates) work as long as only finitely many indices are reachable
    per input. *)

val parses_span : Grammar.t -> string -> int -> int -> Ptree.t list
(** [parses_span g s i j] enumerates the parses of the substring
    [s\[i..j)] for [g]. *)

val parses : Grammar.t -> string -> Ptree.t list
(** Parses of the full string. *)

val count : Grammar.t -> string -> int
(** Number of parses of the full string (via enumeration). *)

val count_fast : Grammar.t -> string -> int
(** Parse counting on the packed chart, without materializing trees —
    polynomial even on grammars with exponentially many parses.  Agrees
    with {!count} (tested) under the same ε-acyclicity proviso;
    saturates at [max_int]. *)

type intern
(** A grammar's interned terminal alphabet: a 256-entry byte → dense
    class-id table plus a completeness flag, built once per grammar
    (per artifact in the service) by walking the annotated definition
    closure. *)

val intern : ?cs:Charsets.t -> Grammar.t -> intern
(** Build the interning table.  The alphabet is recorded as {e complete}
    when the closure walk saw no [Top] or [Atom] node and resolved every
    reachable definition body within budget — then a byte outside the
    alphabet can never be consumed by any parse. *)

val intern_classes : intern -> int
(** Number of distinct terminals interned. *)

val intern_exact : intern -> bool
(** Whether the alphabet is complete (see {!intern}). *)

val accepts :
  ?cs:Charsets.t ->
  ?intern:intern ->
  ?poll:(unit -> unit) ->
  Grammar.t ->
  string ->
  bool
(** Exact membership: the boolean least fixpoint, solved by a semi-naive
    worklist ([enum.worklist_pops] counts re-propagations).

    [cs] supplies a private analysis state instead of {!Charsets.shared}
    — the service layer passes a per-artifact state that was fully
    warmed at compile time, so concurrent domains only read it.

    [intern] supplies the grammar's interned alphabet: the input is
    encoded to terminal-class codes in one pass, the [Chr] hot path
    compares ints, and — when the alphabet is complete — an input with
    an out-of-alphabet byte is rejected before the solver runs at all
    ([enum.intern_cutoff] counts these cutoffs).  The verdict is
    identical with or without it.

    [poll] is invoked at every definition-instance visit; it may raise
    to abort the run (deadline cancellation — the exception
    propagates). *)

val accepts_fixpoint : Grammar.t -> string -> bool
(** The seed membership algorithm — iterated full recomputation to
    convergence.  Kept as the reference implementation and the bench
    baseline for {!accepts}; always agrees with it (tested). *)

val first_parse : Grammar.t -> string -> Ptree.t option
