module type S = sig
  type t

  val zero : t
  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val to_string : t -> string
end

module Boolean = struct
  type t = bool

  let zero = false
  let one = true
  let plus = ( || )
  let times = ( && )
  let equal = Bool.equal
  let to_string = string_of_bool
end

(* Saturating arithmetic, bit-for-bit the clamping [Chart.count] uses:
   a counting sweep reproduces the chart's ambiguity counts exactly,
   saturation included. *)
module Counting = struct
  type t = int

  let zero = 0
  let one = 1

  let plus a b =
    let c = a + b in
    if c < 0 then max_int else c

  let times a b =
    if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

  let equal = Int.equal
  let to_string = string_of_int
end

(* log (exp a + exp b) without leaving log-space; the neg_infinity cases
   keep it total on impossible derivations. *)
let log_add a b =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else if a >= b then a +. Float.log1p (Float.exp (b -. a))
  else b +. Float.log1p (Float.exp (a -. b))

module Viterbi = struct
  type t = float

  let zero = neg_infinity
  let one = 0.
  let plus = Float.max
  let times = ( +. )
  let equal a b = Float.equal a b || (Float.is_nan a && Float.is_nan b)
  let to_string = Fmt.str "%.17g"
end

module Inside = struct
  type t = float

  let zero = neg_infinity
  let one = 0.
  let plus = log_add
  let times = ( +. )
  let equal a b = Float.equal a b || (Float.is_nan a && Float.is_nan b)
  let to_string = Fmt.str "%.17g"
end

let saturated c = c = max_int
