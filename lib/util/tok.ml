(* Natural-language tokenization shared by the synthesizer, the paraphrase
   simulator and the semantic parsers. Tokens are lowercase; punctuation is
   split off; quoted spans are preserved as separate quote tokens so that the
   argument identifier can find free-form parameters. *)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_punct c =
  match c with
  | ',' | '.' | '!' | '?' | ';' | ':' | '(' | ')' | '"' -> true
  | _ -> false

let contains_char c s = String.exists (fun x -> x = c) s

(* Chunks that must stay whole: URLs, email addresses, file paths. *)
let is_atomic_chunk chunk =
  let n = String.length chunk in
  let internal_dot =
    (* a dot strictly inside the word ("notes.txt", "example.com"), as opposed
       to sentence-final punctuation *)
    n > 2 && String.exists (fun c -> c = '.') (String.sub chunk 1 (n - 2))
  in
  let is_time =
    (* clock times like 8:30 stay whole for the argument identifier *)
    contains_char ':' chunk
    && String.for_all (fun c -> (c >= '0' && c <= '9') || c = ':') chunk
  in
  n > 1
  && ((n > 4 && (String.sub chunk 0 4 = "http" || String.sub chunk 0 4 = "www."))
     || (contains_char '@' chunk && contains_char '.' chunk && chunk.[0] <> '@')
     || chunk.[0] = '/'
     || internal_dot
     || is_time)

(* Splits a sentence into tokens. Apostrophes stay inside words ("don't"),
   '@' and '#' stay attached to usernames/hashtags, '$' stays attached to
   placeholders; URLs, email addresses and file paths are kept whole. *)
let tokenize s =
  let chunks = String.split_on_char ' ' s in
  let tokenize_chunk chunk =
    let n = String.length chunk in
    let buf = Buffer.create 16 in
    let toks = ref [] in
    let flush () =
      if Buffer.length buf > 0 then begin
        toks := Buffer.contents buf :: !toks;
        Buffer.clear buf
      end
    in
    for i = 0 to n - 1 do
      let c = chunk.[i] in
      if is_space c then flush ()
      else if is_punct c then begin
        flush ();
        toks := String.make 1 c :: !toks
      end
      else Buffer.add_char buf (Char.lowercase_ascii c)
    done;
    flush ();
    List.rev !toks
  in
  List.concat_map
    (fun chunk ->
      if chunk = "" then []
      else if is_atomic_chunk chunk then [ String.lowercase_ascii chunk ]
      else tokenize_chunk chunk)
    chunks

let detokenize toks = String.concat " " toks

let words s = List.filter (fun t -> String.length t > 1 || (t.[0] >= 'a' && t.[0] <= 'z')) (tokenize s)

(* N-grams over a token list, as token lists. *)
let ngrams n toks =
  let arr = Array.of_list toks in
  let len = Array.length arr in
  let out = ref [] in
  for i = 0 to len - n do
    out := Array.to_list (Array.sub arr i n) :: !out
  done;
  List.rev !out

let bigrams toks = ngrams 2 toks

(* All n-grams for n in [1; max_n], joined with spaces. *)
let all_ngrams max_n toks =
  let out = ref [] in
  for n = 1 to max_n do
    out := !out @ List.map (String.concat " ") (ngrams n toks)
  done;
  !out

(* [affix_at s ~at a]: whether [a] occurs in [s] at offset [at], compared in
   place -- these helpers sit on the parser's decode path, so they must not
   copy or allocate. *)
let affix_at s ~at a =
  let n = String.length a in
  at >= 0
  && at + n <= String.length s
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (at + !i) = String.unsafe_get a !i do
    incr i
  done;
  !i = n

let starts_with ~prefix s = affix_at s ~at:0 prefix
let ends_with ~suffix s = affix_at s ~at:(String.length s - String.length suffix) suffix

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i = if i + m > n then false else String.sub s i m = sub || go (i + 1) in
    go 0

(* Finds the first occurrence of the token sub-sequence [sub] in [toks] and
   returns the tokens before and after it. *)
let match_sub toks sub =
  let rec prefix p t =
    match (p, t) with
    | [], rest -> Some rest
    | x :: p', y :: t' when x = y -> prefix p' t'
    | _ -> None
  in
  let rec go before = function
    | [] -> None
    | t :: rest as all -> (
        match prefix sub all with
        | Some after -> Some (List.rev before, after)
        | None -> go (t :: before) rest)
  in
  if sub = [] then None else go [] toks

let split_on_string ~sep s =
  let seplen = String.length sep in
  if seplen = 0 then invalid_arg "Tok.split_on_string: empty separator";
  let rec go start acc =
    let rec find i =
      if i + seplen > String.length s then None
      else if String.sub s i seplen = sep then Some i
      else find (i + 1)
    in
    match find start with
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
  in
  go 0 []
