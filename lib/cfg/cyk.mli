(** Chomsky normal form and the CYK algorithm.

    A second independent CFG recognizer (O(n³·|G|)), used for differential
    testing against Earley and the specialized parsers.  The normal-form
    transform (ε-elimination, unit elimination, terminal lifting, binary
    splitting) is itself tested to preserve the language. *)

type cnf
(** A grammar in Chomsky normal form (plus a flag for ε at the start). *)

val of_cfg : Cfg.t -> cnf
val accepts_empty : cnf -> bool
val rule_count : cnf -> int

val recognizes : cnf -> string -> bool

val recognizes_cfg : Cfg.t -> string -> bool
(** [of_cfg] + [recognizes], one-shot. *)
