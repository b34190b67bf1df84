(* Multiset of strings; used for vocabulary statistics, alignment counts and
   n-gram language models. *)

(* Counts live in mutable cells, so adding to a known key hashes it once and
   updates the float in place. *)
type cell = { mutable n : float }
type t = { tbl : (string, cell) Hashtbl.t; mutable total : float }

let create ?(size = 64) () = { tbl = Hashtbl.create size; total = 0.0 }

let add ?(weight = 1.0) t key =
  (match Hashtbl.find t.tbl key with
  | c -> c.n <- c.n +. weight
  | exception Not_found -> Hashtbl.add t.tbl key { n = 0.0 +. weight });
  t.total <- t.total +. weight

let count t key = match Hashtbl.find t.tbl key with c -> c.n | exception Not_found -> 0.0

let mem t key = Hashtbl.mem t.tbl key
let total t = t.total
let distinct t = Hashtbl.length t.tbl

let iter f t = Hashtbl.iter (fun k c -> f k c.n) t.tbl

let to_list t = Hashtbl.fold (fun k c acc -> (k, c.n) :: acc) t.tbl []

let top n t =
  let items = to_list t in
  let sorted = List.sort (fun (k1, v1) (k2, v2) ->
    match compare v2 v1 with 0 -> compare k1 k2 | c -> c) items
  in
  List.filteri (fun i _ -> i < n) sorted

(* Probability with add-alpha smoothing over a known vocabulary size. *)
let prob ?(alpha = 0.0) ?(vocab = 0) t key =
  (count t key +. alpha) /. (t.total +. (alpha *. float_of_int vocab))
