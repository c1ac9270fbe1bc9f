(* CNF: nonterminals are ints; rules are either N -> c or N -> N1 N2. *)
type cnf = {
  start : int;
  num_nts : int;
  nullable_start : bool;
  term_rules : (int * char) list;       (* N -> c *)
  binary_rules : (int * int * int) list; (* N -> N1 N2 *)
}

let accepts_empty g = g.nullable_start
let rule_count g = List.length g.term_rules + List.length g.binary_rules

(* --- transformation ------------------------------------------------------ *)

module Sset = Set.Make (String)

(* The fixpoint lives in {!Nullable}; CYK only folds over the result. *)
let nullable_set (cfg : Cfg.t) = Nullable.set (Nullable.compute cfg)

let of_cfg (cfg : Cfg.t) =
  let nullable = nullable_set cfg in
  (* name table: original nonterminals, lifted terminals, helper splits *)
  let names = Hashtbl.create 16 in
  let count = ref 0 in
  let intern name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.add names name i;
      i
  in
  (* every rule list is interned through a hash table: the old
     [List.mem] dedup rescanned the growing lists per candidate,
     quadratic in the rule count of the closure *)
  let term_seen = Hashtbl.create 64 in
  let term_rules = ref [] in
  let bin_seen = Hashtbl.create 64 in
  let binary_rules = ref [] in
  let unit_rules = ref [] in
  let add_binary a x y =
    if not (Hashtbl.mem bin_seen (a, x, y)) then begin
      Hashtbl.add bin_seen (a, x, y) ();
      binary_rules := (a, x, y) :: !binary_rules
    end
  in
  let lift_terminal c =
    let name = Fmt.str "#chr%c" c in
    let i = intern name in
    if not (Hashtbl.mem term_seen (i, c)) then begin
      Hashtbl.add term_seen (i, c) ();
      term_rules := (i, c) :: !term_rules
    end;
    i
  in
  let fresh_split =
    let k = ref 0 in
    fun () ->
      incr k;
      intern (Fmt.str "#split%d" !k)
  in
  (* For each production, expand the 2^(nullable occurrences) ε-free
     variants, then binarize. *)
  let rec variants rhs =
    match rhs with
    | [] -> [ [] ]
    | Cfg.T c :: rest -> List.map (fun v -> lift_terminal c :: v) (variants rest)
    | Cfg.N m :: rest ->
      let tails = variants rest in
      let with_m = List.map (fun v -> intern m :: v) tails in
      if Sset.mem m nullable then with_m @ tails else with_m
  in
  let add_rule lhs rhs_nts =
    match rhs_nts with
    | [] -> () (* ε variants are dropped; ε handled by nullable_start *)
    | [ single ] -> unit_rules := (lhs, single) :: !unit_rules
    | [ a; b ] -> add_binary lhs a b
    | a :: rest ->
      let rec chain a rest lhs =
        match rest with
        | [ b ] -> add_binary lhs a b
        | b :: more ->
          let helper = fresh_split () in
          add_binary lhs a helper;
          chain b more helper
        | [] -> assert false
      in
      chain a rest lhs
  in
  Array.iter
    (fun p ->
      let lhs = intern p.Cfg.lhs in
      List.iter (add_rule lhs) (variants p.Cfg.rhs))
    cfg.Cfg.productions;
  (* unit-rule elimination: a reachability walk over the unit graph per
     nonterminal (the closure fixpoint is implicit in the DFS), copying
     the non-unit rules of everything reached — rules grouped by
     left-hand side up front, duplicates interned away *)
  let num = !count in
  let succs = Array.make (max num 1) [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) !unit_rules;
  let terms_of = Array.make (max num 1) [] in
  List.iter (fun (i, c) -> terms_of.(i) <- c :: terms_of.(i)) !term_rules;
  let bins_of = Array.make (max num 1) [] in
  List.iter (fun (a, x, y) -> bins_of.(a) <- (x, y) :: bins_of.(a)) !binary_rules;
  let final_term_seen = Hashtbl.create 64 in
  let final_bin_seen = Hashtbl.create 64 in
  let final_terms = ref [] and final_bins = ref [] in
  let reached = Array.make (max num 1) false in
  for a = 0 to num - 1 do
    Array.fill reached 0 num false;
    let rec visit b =
      if not reached.(b) then begin
        reached.(b) <- true;
        List.iter
          (fun c ->
            if not (Hashtbl.mem final_term_seen (a, c)) then begin
              Hashtbl.add final_term_seen (a, c) ();
              final_terms := (a, c) :: !final_terms
            end)
          terms_of.(b);
        List.iter
          (fun (x, y) ->
            if not (Hashtbl.mem final_bin_seen (a, x, y)) then begin
              Hashtbl.add final_bin_seen (a, x, y) ();
              final_bins := (a, x, y) :: !final_bins
            end)
          bins_of.(b);
        List.iter visit succs.(b)
      end
    in
    visit a
  done;
  {
    start = intern cfg.Cfg.start;
    num_nts = !count;
    nullable_start = Sset.mem cfg.Cfg.start nullable;
    term_rules = !final_terms;
    binary_rules = !final_bins;
  }

(* --- recognition ---------------------------------------------------------- *)

(* The chart is a flat byte arena, one cell per (i, len, nt). *)
let recognizes g w =
  let n = String.length w in
  if n = 0 then g.nullable_start
  else begin
    let bits = Bytes.make (n * n * g.num_nts) '\000' in
    (* cell (i, len, nt): derivable over w[i .. i+len) *)
    let idx i len nt = (((i * n) + (len - 1)) * g.num_nts) + nt in
    let get i len nt = Bytes.unsafe_get bits (idx i len nt) <> '\000' in
    let set i len nt = Bytes.unsafe_set bits (idx i len nt) '\001' in
    for i = 0 to n - 1 do
      List.iter
        (fun (nt, c) -> if Char.equal c w.[i] then set i 1 nt)
        g.term_rules
    done;
    for len = 2 to n do
      for i = 0 to n - len do
        for split = 1 to len - 1 do
          List.iter
            (fun (nt, x, y) ->
              if get i split x && get (i + split) (len - split) y then
                set i len nt)
            g.binary_rules
        done
      done
    done;
    get 0 n g.start
  end

let recognizes_cfg cfg w = recognizes (of_cfg cfg) w
