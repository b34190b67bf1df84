(* Single-owner bounded FIFO + micro-batch take. No locks: the daemon's
   event loop is the only writer and reader; tests drive it with a virtual
   clock. *)

type 'a t = {
  capacity : int;
  batch_max : int;
  q : ('a * float) Queue.t;  (* item, admission timestamp ns *)
  mutable is_draining : bool;
  mutable admitted : int;
  mutable shed : int;
  mutable refused_draining : int;
  mutable batches : int;
  mutable max_batch : int;
  hist : (int, int ref) Hashtbl.t;  (* batch size -> count *)
  mutable wait_samples : float array;
  mutable wait_n : int;
}

let max_wait_samples = 65536

let create ?(capacity = 1024) ?(batch_max = 64) () =
  { capacity = max 1 capacity;
    batch_max = max 1 batch_max;
    q = Queue.create ();
    is_draining = false;
    admitted = 0;
    shed = 0;
    refused_draining = 0;
    batches = 0;
    max_batch = 0;
    hist = Hashtbl.create 16;
    wait_samples = Array.make 256 0.0;
    wait_n = 0 }

let pending t = Queue.length t.q

let admit t ~now_ns item =
  if t.is_draining then begin
    t.refused_draining <- t.refused_draining + 1;
    `Draining
  end
  else if Queue.length t.q >= t.capacity then begin
    t.shed <- t.shed + 1;
    `Shed
  end
  else begin
    Queue.push (item, now_ns) t.q;
    t.admitted <- t.admitted + 1;
    `Admitted
  end

let record_wait t w =
  if t.wait_n < max_wait_samples then begin
    if t.wait_n >= Array.length t.wait_samples then begin
      let bigger =
        Array.make (min max_wait_samples (2 * Array.length t.wait_samples)) 0.0
      in
      Array.blit t.wait_samples 0 bigger 0 t.wait_n;
      t.wait_samples <- bigger
    end;
    t.wait_samples.(t.wait_n) <- w;
    t.wait_n <- t.wait_n + 1
  end

let take t ~now_ns =
  let rec go n acc =
    if n >= t.batch_max then List.rev acc
    else
      match Queue.take_opt t.q with
      | None -> List.rev acc
      | Some (item, enq_ns) ->
          let wait = Float.max 0.0 (now_ns -. enq_ns) in
          record_wait t wait;
          go (n + 1) ((item, wait) :: acc)
  in
  let batch = go 0 [] in
  let size = List.length batch in
  if size > 0 then begin
    t.batches <- t.batches + 1;
    t.max_batch <- max t.max_batch size;
    match Hashtbl.find_opt t.hist size with
    | Some r -> incr r
    | None -> Hashtbl.add t.hist size (ref 1)
  end;
  batch

let start_drain t = t.is_draining <- true
let draining t = t.is_draining

type stats = {
  admitted : int;
  shed : int;
  refused_draining : int;
  batches : int;
  max_batch : int;
  batch_histogram : (int * int) list;
  queue_wait_ns : float array;
}

let stats (t : 'a t) =
  { admitted = t.admitted;
    shed = t.shed;
    refused_draining = t.refused_draining;
    batches = t.batches;
    max_batch = t.max_batch;
    batch_histogram =
      Hashtbl.fold (fun size r acc -> (size, !r) :: acc) t.hist []
      |> List.sort compare;
    queue_wait_ns = Array.sub t.wait_samples 0 t.wait_n }
