(* Workload inputs, all drawn from the workload seed before the daemon sees
   a byte: held-out commands from the paper's section 5.1 generators, the
   open-loop arrival schedule, and Zipf picks over a hot set. *)

module Example = Genie_dataset.Example
module Rng = Genie_util.Rng

type item = { utterance : string; example : Example.t }

(* Developer, cheatsheet and IFTTT commands, shuffled and deduplicated on the
   daemon's parse-cache key, so no two items can share a cache entry.
   Commands with a literal double quote are left out: the aligner can copy
   it into a string value, and Printer does not escape it, so the served
   program would not parse back and the correctness gate would fail on a
   known printer defect rather than on a change under test. *)
let pool ~lib ~prims ~rules ~seed ~per_source =
  let module G = Genie_evaldata.Generators in
  let all =
    G.developer lib ~prims ~rules ~seed ~n:per_source
    @ G.cheatsheet lib ~prims ~rules ~seed ~n:per_source ()
    @ G.ifttt lib ~prims ~seed ~n:per_source
  in
  let seen = Hashtbl.create 512 in
  Rng.shuffle (Rng.create seed) (List.map Example.strip_quotes all)
  |> List.filter_map (fun e ->
         let utterance = Example.sentence e in
         let key = Genie_serve.Request.cache_key utterance in
         if key = "" || String.contains utterance '"' || Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           Some { utterance; example = e }
         end)
  |> Array.of_list

(* Arrivals at a fixed [rate] per second, from a seeded phase in the first
   interval: offsets in seconds from the phase start. Even spacing keeps
   bursts out of the queue, so latency measures service, not the
   arrival process. *)
let schedule rng ~rate ~seconds =
  let phase = Rng.float rng (1.0 /. rate) in
  let n = int_of_float (Float.ceil ((seconds -. phase) *. rate)) in
  Array.init (max 0 n) (fun k -> phase +. (float_of_int k /. rate))

(* A Zipf(s) sampler over ranks [0, n). *)
let zipf rng ~s ~n =
  let w = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  fun () ->
    let x = Rng.float rng total in
    let rec pick k acc =
      if k = n - 1 || acc +. w.(k) > x then k else pick (k + 1) (acc +. w.(k))
    in
    pick 0 0.0
