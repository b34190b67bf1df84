(* Splitmix64-style 64-bit mixing, shared by the fault injector and the
   tracing layer. Both need the same property: a cheap bijective finalizer
   whose output is a pure function of its inputs, so schedules and span ids
   are bit-stable across runs, platforms and worker counts. *)

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Golden-ratio increment keeps successive combines from cancelling. *)
let phi = 0x9e3779b97f4a7c15L

let[@inline] combine h x = mix64 (Int64.add (Int64.mul h phi) x)
let int h i = combine h (Int64.of_int i)

(* A [for] loop over an inlined [combine] keeps the accumulator unboxed: a
   closure over it (String.iter) would box an Int64 per byte. *)
let string h s =
  let acc = ref (combine h (Int64.of_int (String.length s))) in
  for i = 0 to String.length s - 1 do
    acc := combine !acc (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  !acc

let to_hex h = Printf.sprintf "%016Lx" h
