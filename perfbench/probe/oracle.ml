(* Verdict oracle for the served benchmark.

   Membership is decided by [Enum.accepts], the boolean least fixpoint
   over the paper's Gr model, on grammars built straight from production
   lists with [Cfg.make] — never through the service's wire decoder,
   its registry or any engine the server dispatches to.

   Input, one record per line (all text fields hex-encoded):
     G <gid> <start-hex>          begin a grammar
     P <lhs-hex> <sym> ...        one production; sym = t<hex> | n<hex>
     E                            end the grammar
     Q <gid> <input-hex>          query (input may be empty: "Q <gid>")
   Output: one line per Q, "1" (member) or "0". *)

open Lambekd_cfg
module Enum = Lambekd_grammar.Enum

let unhex s =
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let symbol s =
  let body = unhex (String.sub s 1 (String.length s - 1)) in
  match s.[0] with
  | 't' -> Cfg.T body.[0]
  | 'n' -> Cfg.N body
  | _ -> failwith ("bad symbol " ^ s)

let () =
  let grammars = Hashtbl.create 64 in
  let building = ref None in
  let out = Buffer.create 65536 in
  (try
     while true do
       match String.split_on_char ' ' (input_line stdin) with
       | [ "G"; gid; start ] -> building := Some (gid, unhex start, [])
       | "P" :: lhs :: syms -> (
         match !building with
         | Some (gid, start, prods) ->
           building :=
             Some (gid, start, (unhex lhs, List.map symbol syms) :: prods)
         | None -> failwith "production outside a grammar")
       | [ "E" ] -> (
         match !building with
         | Some (gid, start, prods) ->
           let g =
             Cfg.to_grammar (Cfg.make ~start ~productions:(List.rev prods))
           in
           Hashtbl.replace grammars gid (g, Enum.intern g);
           building := None
         | None -> failwith "E outside a grammar")
       | "Q" :: gid :: rest ->
         let input = match rest with [ h ] -> unhex h | _ -> "" in
         let g, intern = Hashtbl.find grammars gid in
         Buffer.add_string out
           (if Enum.accepts ~intern g input then "1\n" else "0\n")
       | [ "" ] -> ()
       | _ -> failwith "unrecognised oracle line"
     done
   with End_of_file -> ());
  print_string (Buffer.contents out)
