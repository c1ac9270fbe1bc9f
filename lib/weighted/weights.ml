open Lambekd_cfg
module Index = Lambekd_grammar.Index
module Chart = Lambekd_grammar.Chart

type t = { logp : float array; digest : string }

(* The fingerprint renders each log-probability with the same %.17g the
   wire layer uses for floats: round-trip exact for doubles, so two
   tables collide only if they are value-identical. *)
let fingerprint logp =
  let b = Buffer.create (Array.length logp * 24) in
  Array.iter
    (fun x ->
      Buffer.add_string b (Fmt.str "%.17g" x);
      Buffer.add_char b ',')
    logp;
  Digest.to_hex (Digest.string (Buffer.contents b))

let normalize cfg w =
  let prods = cfg.Cfg.productions in
  let np = Array.length prods in
  if Array.length w <> np then
    Error
      (Fmt.str "expected %d weights (one per production, in order), got %d"
         np (Array.length w))
  else begin
    let bad = ref (-1) in
    Array.iteri
      (fun i x ->
        if !bad < 0 && not (Float.is_finite x && x >= 0.) then bad := i)
      w;
    if !bad >= 0 then
      Error
        (Fmt.str "weight %d must be a finite non-negative number" !bad)
    else begin
      let sums = Hashtbl.create 8 in
      Array.iteri
        (fun i x ->
          let l = prods.(i).Cfg.lhs in
          let s = try Hashtbl.find sums l with Not_found -> 0. in
          Hashtbl.replace sums l (s +. x))
        w;
      let zero_lhs = ref None in
      Array.iter
        (fun p ->
          if !zero_lhs = None && Hashtbl.find sums p.Cfg.lhs = 0. then
            zero_lhs := Some p.Cfg.lhs)
        prods;
      match !zero_lhs with
      | Some l ->
        Error (Fmt.str "productions for %S have zero total weight" l)
      | None ->
        (* divide before taking the log: the conditional probability is
           then the rounded ratio itself, so tables that differ only by
           a per-LHS scale factor normalize to the identical table (and
           the identical digest) whenever the scaled ratios round the
           same way — [log x - log sum] would differ in the last ulp *)
        let logp =
          Array.mapi
            (fun i x ->
              Float.log (x /. Hashtbl.find sums prods.(i).Cfg.lhs))
            w
        in
        Ok { logp; digest = fingerprint logp }
    end
  end

let uniform cfg =
  match
    normalize cfg (Array.make (Array.length cfg.Cfg.productions) 1.)
  with
  | Ok t -> t
  | Error msg -> invalid_arg msg (* unreachable: all-ones always validates *)

let n t = Array.length t.logp
let logp t i = t.logp.(i)
let digest t = t.digest

let edge_weight t = function
  | Chart.LInj (Index.N i) when i >= 0 && i < Array.length t.logp ->
    t.logp.(i)
  | _ -> 0.
