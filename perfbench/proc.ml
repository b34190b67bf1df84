(* The daemon as a child process, started the way a user starts it:
   [genie serve --workers 0 --scale S] on an ephemeral loopback port. Every
   child is registered so an aborted run still kills and reaps it. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (* read end of the daemon's stdout *)
  port : int;
  banner : string;  (* the "listening on" line, which states the config *)
  setup_s : float;  (* spawn to the banner *)
}

let live : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

(* Reads [fd] line by line until a line satisfies [pred] (returned), end of
   file, or [deadline]. *)
let read_until fd ~deadline pred =
  let pending = ref "" and chunk = Bytes.create 4096 in
  let rec go () =
    let remaining = deadline -. Measure.now () in
    if remaining <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
              let lines =
                String.split_on_char '\n' (!pending ^ Bytes.sub_string chunk 0 n)
              in
              let rec scan = function
                | [] -> go ()
                | [ partial ] ->
                    pending := partial;
                    go ()
                | line :: rest -> if pred line then Some line else scan rest
              in
              scan lines)
  in
  go ()

let banner_prefix = "genie-serve listening on "

let spawn ~exe ~scale =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; "serve"; "--workers"; "0"; "--scale"; Printf.sprintf "%g" scale;
       "--listen"; "127.0.0.1:0" |]
  in
  let t0 = Measure.now () in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  match
    read_until r ~deadline:(t0 +. 150.0) (String.starts_with ~prefix:banner_prefix)
  with
  | None -> failwith "the daemon exited or stalled before listening"
  | Some banner ->
      let setup_s = Measure.now () -. t0 in
      (* "genie-serve listening on HOST:PORT (model=... workers=0 ...)" *)
      let rest =
        String.sub banner (String.length banner_prefix)
          (String.length banner - String.length banner_prefix)
      in
      let addr = List.hd (String.split_on_char ' ' rest) in
      let i = String.rindex addr ':' in
      let port = int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) in
      { pid; out = r; port; banner; setup_s }

(* SIGTERM is the daemon's graceful drain. Its stdout is read to the end so
   it can never block on a full pipe; a daemon that has not exited within
   30 s is killed. Returns whether it reported a clean drain. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let clean = ref false in
  ignore
    (read_until d.out ~deadline:(Measure.now () +. 30.0) (fun line ->
         if String.starts_with ~prefix:"drained cleanly" line then clean := true;
         false));
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d.pid;
  Unix.close d.out;
  !clean
