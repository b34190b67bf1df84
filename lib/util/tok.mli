(** Natural-language tokenization and string helpers shared by the
    synthesizer, the paraphrase simulator and the semantic parsers. *)

val tokenize : string -> string list
(** Lowercases and splits a sentence into tokens. Punctuation becomes separate
    tokens; apostrophes stay inside words; '@' and '#' stay attached to
    usernames and hashtags; URLs, email addresses, file paths, words with
    internal dots ("notes.txt") and clock times ("8:30") are kept whole so the
    argument identifier and the copy mechanism can treat them as units. *)

val detokenize : string list -> string
(** Joins tokens with single spaces. *)

val words : string -> string list
(** Like {!tokenize} but drops bare punctuation tokens. *)

val ngrams : int -> string list -> string list list
(** [ngrams n toks] lists all contiguous [n]-grams. *)

val bigrams : string list -> string list list

val all_ngrams : int -> string list -> string list
(** All n-grams for n in [1, max], each joined with spaces. *)

val starts_with : prefix:string -> string -> bool
(** [starts_with ~prefix s]: whether [s] begins with [prefix] (always true
    for [""]). Allocates nothing. *)

val ends_with : suffix:string -> string -> bool
(** [ends_with ~suffix s]: whether [s] ends with [suffix] (always true for
    [""]). Allocates nothing. *)

val contains_substring : sub:string -> string -> bool
val split_on_string : sep:string -> string -> string list

val match_sub : string list -> string list -> (string list * string list) option
(** [match_sub toks sub] finds the first occurrence of the token sub-sequence
    [sub] in [toks], returning the tokens before and after it. [None] when
    absent or when [sub] is empty. *)

val is_atomic_chunk : string -> bool
(** Whether a whitespace-delimited chunk must survive tokenization whole
    (URL, email address, path, dotted word, clock time). *)
