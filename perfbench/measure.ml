(* Clocks, order statistics, the /proc peak-memory reader, and a small JSON
   reader for the daemon's Stats frame (Genie_util.Json_lite only emits). *)

module Json = Genie_util.Json_lite

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest rank: the smallest sample with at least [p]% of the samples at or
   below it. Failed or missing requests enter as [infinity] and sort last. *)
let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = percentile xs 50.0
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* VmHWM, the peak resident set, of a live process ("self" or a pid), in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

exception Bad_json of string

let parse_json (s : string) : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          (match if !pos + 1 < n then s.[!pos + 1] else '\\' with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              (* \uXXXX: only ASCII occurs in the stats payload *)
              pos := !pos + 4;
              Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          pos := !pos + 2;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numeric s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Json.Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Json.Float f
        | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Json.Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Json.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "bad object"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Json.List []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                Json.List (List.rev (v :: acc))
            | _ -> fail "bad array"
          in
          items []
    | Some '"' -> Json.String (string_body ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Json.Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Bad_json ("missing " ^ k)))
  | _ -> raise (Bad_json ("not an object around " ^ k))

let path keys j = List.fold_left (fun j k -> member k j) j keys

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> raise (Bad_json "not a number")

let str = function Json.String s -> s | _ -> raise (Bad_json "not a string")
