open Relation
module Sha256 = Ledger_crypto.Sha256
module Hex = Ledger_crypto.Hex

exception Builtin_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Builtin_error s)) fmt

(* Callers run on parallel verifier domains and on several threads of
   one domain (server sessions and the group-commit leader), so a context
   belongs to one call at a time: it is taken from a lock-free stack of
   spares and given back after. Audit and verification hash every entry,
   block and index row (§3.4.2), and a fresh context per call (about 90
   words) made the benchmark's from-genesis audit of its TPC-C database
   about 30 % slower. Popped cells are never pushed again ([give] conses
   a new one), so a compare-and-set cannot succeed on a stale head. *)
let spare : Sha256.t list Atomic.t = Atomic.make []

let rec take () =
  match Atomic.get spare with
  | [] -> Sha256.init ()
  | t :: rest as l -> if Atomic.compare_and_set spare l rest then t else take ()

let rec give t =
  let l = Atomic.get spare in
  if not (Atomic.compare_and_set spare l (t :: l)) then give t

let ledgerhash args =
  let t = take () in
  Sha256.reset t;
  Sha256.feed_string t "ledgerhash:";
  List.iter (fun v -> Value.tagged_feed t v) args;
  let out = Bytes.create 32 in
  Sha256.finish_into t out ~off:0;
  give t;
  Value.String (Hex.encode (Bytes.unsafe_to_string out))

let merkle_root_of_hex_leaves leaves =
  let raw =
    List.map
      (fun hex ->
        if not (Hex.is_hex hex) then
          err "MERKLETREEAGG: input %S is not a hex digest" hex;
        Hex.decode hex)
      leaves
  in
  (* Auto-parallel: large aggregations (the per-block transaction root over
     up to 100K entries) split across domains; small groups and calls from
     verifier worker domains stay sequential. *)
  Hex.encode (Merkle.Parallel.root raw)

let as_string name = function
  | Value.String s -> s
  | Value.Null -> err "%s: NULL argument" name
  | v -> Value.to_string v

let as_int name = function
  | Value.Int i -> i
  | v -> err "%s: expected integer, got %s" name (Value.to_string v)

let null_through f args =
  if List.exists Value.is_null args then Value.Null else f args

let default =
  [
    ("LEDGERHASH", ledgerhash);
    ( "LEN",
      null_through (function
        | [ v ] -> Value.Int (String.length (as_string "LEN" v))
        | _ -> err "LEN expects one argument") );
    ( "UPPER",
      null_through (function
        | [ v ] -> Value.String (String.uppercase_ascii (as_string "UPPER" v))
        | _ -> err "UPPER expects one argument") );
    ( "LOWER",
      null_through (function
        | [ v ] -> Value.String (String.lowercase_ascii (as_string "LOWER" v))
        | _ -> err "LOWER expects one argument") );
    ( "SUBSTRING",
      null_through (function
        | [ s; start; len ] ->
            let s = as_string "SUBSTRING" s in
            let start = max 1 (as_int "SUBSTRING" start) in
            let len = as_int "SUBSTRING" len in
            let avail = String.length s - (start - 1) in
            if avail <= 0 || len <= 0 then Value.String ""
            else Value.String (String.sub s (start - 1) (min len avail))
        | _ -> err "SUBSTRING expects (string, start, length)") );
    ( "ABS",
      null_through (function
        | [ Value.Int i ] -> Value.Int (abs i)
        | [ Value.Float f ] -> Value.Float (Float.abs f)
        | _ -> err "ABS expects one numeric argument") );
    ( "COALESCE",
      fun args ->
        (match List.find_opt (fun v -> not (Value.is_null v)) args with
        | Some v -> v
        | None -> Value.Null) );
    ( "NULLIF",
      function
      | [ a; b ] -> if Value.equal a b then Value.Null else a
      | _ -> err "NULLIF expects two arguments" );
    ( "CAST_INT",
      null_through (function
        | [ Value.Int i ] -> Value.Int i
        | [ Value.Float f ] -> Value.Int (int_of_float f)
        | [ Value.String s ] -> (
            match int_of_string_opt (String.trim s) with
            | Some i -> Value.Int i
            | None -> err "CAST_INT: %S is not an integer" s)
        | [ Value.Bool b ] -> Value.Int (if b then 1 else 0)
        | _ -> err "CAST_INT expects one argument") );
    ( "JSON_VALUE",
      null_through (function
        | [ doc; key ] -> (
            let doc = as_string "JSON_VALUE" doc in
            let key = as_string "JSON_VALUE" key in
            match Sjson.of_string doc with
            | exception Sjson.Parse_error e -> err "JSON_VALUE: %s" e
            | json -> (
                match Sjson.member key json with
                | Sjson.Null -> Value.Null
                | Sjson.Int i -> Value.Int i
                | Sjson.Float f -> Value.Float f
                | Sjson.Bool b -> Value.Bool b
                | Sjson.String s -> Value.String s
                | other -> Value.String (Sjson.to_string other)))
        | _ -> err "JSON_VALUE expects (document, key)") );
  ]
