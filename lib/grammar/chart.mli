(** The packed parse chart of a {!Grammar} over one input span.

    The paper reads a linear type as a function from strings to sets of
    parse trees; the chart is the compact form of the set ⟦A⟧ w.
    Intersecting a grammar with a word yields a grammar over
    [(definition instance, i, j)] items — a hypergraph, which {!build}
    constructs: every item is a node with a dense integer id, every
    local derivation choice at it a labelled edge whose tails are the
    child nodes.  Its size is polynomial in the input (for a fixed
    grammar) even when the number of parse trees is exponential.
    {!count} sweeps it once, {!accepts} is emptiness of the root,
    {!first_parse} and {!enumerate} walk edges on demand, and the
    weighted library runs semiring sweeps and lazy k-best over it.

    Node ids are assigned children first, so every tail of an edge is
    smaller than its head's id and the root — when the input is
    accepted — is the last node.

    Exactness: memoization happens only at [Ref] items, keyed
    (definition instance, span); a re-entrant occurrence of the item
    being built contributes no derivations (the ε-cycle cut), so counts
    and tree sets are exact whenever the grammar system has no
    ε-cycles, and a finite under-approximation otherwise.  Split points
    refuted by the {!Charsets} first/last/nullability analysis are
    skipped (sound: the analysis over-approximates). *)

(** What an edge derives, one case per {!Ptree} constructor.  Rule
    weights attach at [LInj] edges: a CFG realized by [Cfg.to_grammar]
    tags its alternatives with [Index.N i] where [i] is the global
    production index. *)
type label =
  | LTok of char
  | LEps
  | LTop of string
  | LAtom of Ptree.t  (** one edge per surviving atom parse *)
  | LPair
  | LInj of Index.t
  | LTuple of Index.t array
  | LRoll of string

type t
(** A built chart for one grammar over one input span. *)

type pool
(** Reusable chart storage (node, edge and tail arrays, pending-edge
    stack, span memo): a warm pool builds with almost no allocation.  A
    chart aliases its pool, so the pool's next build invalidates it. *)

val pool : unit -> pool

val build :
  ?cs:Charsets.t ->
  ?pool:pool ->
  ?poll:(unit -> unit) ->
  Grammar.t ->
  string ->
  t
(** [build g s] constructs the chart of the parses of the whole of [s].
    [cs] replaces {!Charsets.shared} (the service passes a per-artifact
    state warmed at compile time); without [pool] the build allocates a
    fresh one; [poll] runs at every definition-instance visit and may
    raise to abort the build (deadline cancellation).  Bumps
    [weighted.nodes]/[weighted.edges] by the chart size and the
    [enum.items]/[enum.memo_*] counters at every [Ref] visit. *)

val build_span :
  ?cs:Charsets.t ->
  ?pool:pool ->
  ?poll:(unit -> unit) ->
  Grammar.t ->
  string ->
  int ->
  int ->
  t
(** [build_span g s i j] constructs the chart for the substring
    [s.\[i..j)]. *)

val accepts : t -> bool
(** Does the chart contain at least one parse? *)

val count : t -> int
(** Number of parse trees, one saturating sweep over the nodes: a
    result of [max_int] means "at least [max_int]" (see
    {!is_saturated}). *)

val is_saturated : int -> bool
(** Did {!count} overflow the native integer range? *)

val first_parse : t -> Ptree.t option
(** The first parse: the first edge of every node on one path. *)

val enumerate : ?max_trees:int -> t -> Ptree.t Seq.t
(** Lazily unpack parse trees, edges in stored order; [max_trees]
    bounds the enumeration.  Like the chart, the sequence is only valid
    until its pool's next build. *)

(** {1 Structure} *)

val nodes : t -> int
val edges : t -> int

val root : t -> int
(** Id of the goal item, or [-1] when the input has no parse. *)

val first_edge : t -> int -> int
(** The edges of node [v] are [first_edge h v] to
    [first_edge h (v + 1) - 1], in the order the build recorded them. *)

val label : t -> int -> label
val arity : t -> int -> int

val tail : t -> int -> int -> int
(** [tail h e p] is the [p]-th child node of edge [e],
    [0 <= p < arity h e]. *)

val tree_of_edge : t -> int -> (int -> Ptree.t) -> Ptree.t
(** [tree_of_edge h e sub] is the tree edge [e] derives when its [p]-th
    tail derives [sub p]. *)
