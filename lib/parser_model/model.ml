(* The record-of-closures model boundary between training backends and the
   serving stack. See model.mli for the contract; the notable invariants:

   - [digest] is computed once per underlying backend and threaded through
     [fork], so a fleet of worker handles agrees on the active model's
     identity without re-hashing the tables/weights per worker.
   - [fork] privatizes exactly the per-handle mutable scratch, which only
     the seq2seq has (its tensor arena). A trained aligner is read-only, so
     its fork is the handle itself. Everything heavy is shared. *)

open Genie_thingtalk

type kind = Kind_aligner | Kind_seq2seq

let kind_to_string = function
  | Kind_aligner -> "aligner"
  | Kind_seq2seq -> "seq2seq"

type prediction = Aligner.prediction = {
  program : Ast.program option;
  nn_tokens : string list;
  score : float;
}

let no_prediction = Aligner.no_prediction

type t = {
  kind : kind;
  digest : string;
  predict : ?scope:Genie_observe.Tracer.scope -> string list -> prediction;
  fork : unit -> t;
}

let of_aligner al =
  let rec m =
    { kind = Kind_aligner;
      digest = Aligner.digest al;
      predict = (fun ?scope tokens -> Aligner.predict ?scope al tokens);
      fork = (fun () -> m) }
  in
  m

let of_seq2seq ?options ?max_len ~lib model =
  let digest = Genie_nn.Seq2seq.weight_digest model in
  let to_prediction (toks, logp) =
    let program =
      match Nn_syntax.of_tokens ?options lib toks with
      | p -> Some p
      | exception Nn_syntax.Parse_error _ -> None
    in
    { program; nn_tokens = toks; score = logp }
  in
  let rec make () =
    (* One arena per handle: decode_batch resets it on entry, so a handle
       must not be shared across domains — fork per worker instead. *)
    let scratch = Genie_nn.Tensor.Scratch.create () in
    { kind = Kind_seq2seq;
      digest;
      predict =
        (fun ?scope tokens ->
          ignore scope;
          (* the encoder needs at least one position *)
          match tokens with
          | [] -> no_prediction
          | _ ->
              to_prediction
                (List.hd
                   (Genie_nn.Seq2seq.decode_batch ?max_len ~scratch model
                      [ tokens ])));
      fork = (fun () -> make ()) }
  in
  make ()

let load_checkpoint ?options ?max_len ~lib path =
  match Genie_checkpoint.Checkpoint.load path with
  | Error e -> Error e
  | Ok ck -> (
      match Genie_checkpoint.Checkpoint.restore_weights ck with
      | Error e -> Error e
      | Ok model -> Ok (of_seq2seq ?options ?max_len ~lib model))
