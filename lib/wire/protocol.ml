(* Request/response catalogue of the ledger wire protocol, version 1.

   Every frame payload is one JSON object. Requests carry a client-chosen
   "id" echoed verbatim in the response, a "req" discriminator, and the
   request's own fields; responses carry "id", a "resp" discriminator,
   and theirs. The first request on a connection must be "hello": the
   server rejects any other opener and refuses mismatched protocol
   versions with the typed "version_mismatch" error, so incompatible
   peers fail fast instead of mis-parsing each other.

   Row values cross the wire in [Value.to_tagged_json] form, which
   round-trips every datatype (including DATETIME, which plain JSON would
   flatten into a float). Digests and receipts travel as their existing
   canonical JSON documents so a client can store them and later feed
   them back to "verify" as out-of-band trust anchors (paper §3.4). *)

open Relation

let version = 1

(* ------------------------------------------------------------------ *)
(* Principal authentication *)

(* The handshake's principal claim is authenticated with an HMAC-SHA256
   tag over a fixed-context message, keyed by a shared secret every node
   of the deployment holds (a file passed to `serve --auth-secret`). The
   context prefix stops the tag from being reusable as a MAC over any
   other protocol string. Tags travel hex-encoded. *)

let principal_context = "SLW1-principal:"

let principal_tag ~secret name =
  Ledger_crypto.Hex.encode
    (Ledger_crypto.Hmac.mac ~key:secret (principal_context ^ name))

(* Constant-time on the tag comparison; malformed hex is a plain reject. *)
let principal_tag_ok ~secret ~name ~tag =
  match Ledger_crypto.Hex.decode tag with
  | exception Invalid_argument _ -> false
  | raw ->
      Ledger_crypto.Hmac.verify ~key:secret
        ~msg:(principal_context ^ name)
        ~tag:raw

(* ------------------------------------------------------------------ *)
(* Typed error codes *)

type error_code =
  | Bad_request  (** malformed frame payload, or request before hello *)
  | Parse_error  (** SQL failed to lex/parse *)
  | Exec_error  (** statement or ledger operation failed *)
  | Txn_state  (** BEGIN with a transaction open, COMMIT/ROLLBACK without *)
  | Version_mismatch  (** client and server protocol versions differ *)
  | Too_large  (** frame exceeded the server's max-frame limit *)
  | Busy  (** server at its max-connection limit *)
  | Shutting_down  (** server is draining sessions *)
  | Read_only  (** write sent to a read replica; message names the primary *)
  | Replication_lag  (** digest deferred: geo-replica lags (§3.6 gate) *)
  | Replication_stuck  (** digest gate alert: replica stuck behind *)
  | Overloaded
      (** admission control shed the request before any work was done;
          the error's [retry_after_ms] hints when to retry *)
  | Deadline_exceeded
      (** the request blew its deadline budget while queued; answered
          without doing the work, so retrying is always safe *)
  | Wrong_shard
      (** the request was routed with a stale shard map; the error's
          [map_epoch] is the server's current epoch — refetch the map
          ([Shard_map]) and retry. Refused before any work, so always
          retry-safe. *)
  | Auth_failed
      (** the hello claimed a principal the server could not authenticate
          (bad HMAC tag, or the server holds no shared secret); the
          connection is closed — retrying with the same credentials is
          pointless *)
  | Internal  (** unexpected server-side failure *)

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Parse_error -> "parse_error"
  | Exec_error -> "exec_error"
  | Txn_state -> "txn_state"
  | Version_mismatch -> "version_mismatch"
  | Too_large -> "too_large"
  | Busy -> "busy"
  | Shutting_down -> "shutting_down"
  | Read_only -> "read_only"
  | Replication_lag -> "replication_lag"
  | Replication_stuck -> "replication_stuck"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Wrong_shard -> "wrong_shard"
  | Auth_failed -> "auth_failed"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "parse_error" -> Some Parse_error
  | "exec_error" -> Some Exec_error
  | "txn_state" -> Some Txn_state
  | "version_mismatch" -> Some Version_mismatch
  | "too_large" -> Some Too_large
  | "busy" -> Some Busy
  | "shutting_down" -> Some Shutting_down
  | "read_only" -> Some Read_only
  | "replication_lag" -> Some Replication_lag
  | "replication_stuck" -> Some Replication_stuck
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "wrong_shard" -> Some Wrong_shard
  | "auth_failed" -> Some Auth_failed
  | "internal" -> Some Internal
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Requests *)

type request =
  | Hello of {
      version : int;
      client : string;
      principal : string option;
          (** authenticated identity claimed for this session; recorded
              as the transactions system table's [username] on every
              commit the session makes. [None] keeps the legacy
              anonymous "client-N" identity. *)
      auth : string option;
          (** hex HMAC-SHA256 tag over ["SLW1-principal:" ^ principal]
              keyed by the deployment's shared secret; mandatory when
              [principal] is claimed *)
    }
  | Ping
  | Exec of { sql : string }  (** any statement; writes serialize *)
  | Query of { sql : string }  (** SELECT only; runs on the read path *)
  | Begin
  | Commit
  | Rollback
  | Digest  (** close the open block and return a signed digest *)
  | Receipt of { txn_id : int }
  | Receipts of { txn_ids : int list }
      (** batch receipt fetch: one round trip for many transactions.
          Served from the per-block receipt cache, so receipts from the
          same block share subtree hashes and one block signature.
          Transactions still in the open block come back in the
          response's [pending] list — retry them after the next block
          close — rather than failing the batch. *)
  | Verify of { tables : string list; digests : Sjson.t list }
  | Create_table of {
      name : string;
      columns : (string * string) list;  (** (name, datatype string) *)
      key : string list;
      ledger : bool;
          (** [true] (the default) creates a ledger table; [false]
              creates a plain updatable table — the starting point of an
              online migration *)
    }
  | Checkpoint
  | Stats
  | Subscribe of { from_lsn : int; replica_id : string }
      (** switch the connection into a replication stream: the server
          replies [Subscribed] (stream resumes after [from_lsn]) or
          [Snapshot_r] (position compacted away; full state shipped),
          then pushes batched WAL frames until the connection closes.
          [replica_id] is the subscriber's stable identity — reconnects
          under the same id resume its lag-gate accounting. *)
  | Shard_map
      (** ask a coordinator for its current shard map; answered with
          [Shard_map_r]. Single-node servers refuse it. *)
  | Prepare of { gid : string }
      (** 2PC phase one: durably stage the session's open transaction
          under global id [gid] and vote. [Ok_r] is the yes vote — the
          shard promises to commit when told to; any error is a no. *)
  | Decide of { gid : string; commit : bool }
      (** 2PC phase two: commit or abort the transaction prepared under
          [gid]. Idempotent — deciding an unknown gid answers [Ok_r] so a
          recovering coordinator can re-send decisions. *)
  | Migrate of {
      source : string;  (** plain (regular) table to copy from *)
      target : string;  (** ledger table to copy into *)
      after_key : Value.t list;
          (** resume cursor: copy only rows whose primary key sorts
              strictly after this one; [[]] starts from the beginning *)
      limit : int;  (** max rows copied in this one batch/commit *)
    }
      (** copy one group-commit-sized chunk of [source] into [target] as
          a single committed transaction under the session's principal.
          Rows whose key already exists in [target] are skipped, so
          re-sending a batch after a crash or torn reply is harmless —
          the request is idempotent and retry-safe. *)
  | Quit

let request_kind = function
  | Hello _ -> "hello"
  | Ping -> "ping"
  | Exec _ -> "exec"
  | Query _ -> "query"
  | Begin -> "begin"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Digest -> "digest"
  | Receipt _ -> "receipt"
  | Receipts _ -> "receipts"
  | Verify _ -> "verify"
  | Create_table _ -> "create_table"
  | Checkpoint -> "checkpoint"
  | Stats -> "stats"
  | Subscribe _ -> "subscribe"
  | Shard_map -> "shard_map"
  | Prepare _ -> "prepare"
  | Decide _ -> "decide"
  | Migrate _ -> "migrate"
  | Quit -> "quit"

let request_fields = function
  | Hello { version; client; principal; auth } ->
      [ ("version", Sjson.Int version); ("client", Sjson.String client) ]
      @ (match principal with
        | Some p -> [ ("principal", Sjson.String p) ]
        | None -> [])
      @ (match auth with
        | Some a -> [ ("auth", Sjson.String a) ]
        | None -> [])
  | Exec { sql } | Query { sql } -> [ ("sql", Sjson.String sql) ]
  | Receipt { txn_id } -> [ ("txn_id", Sjson.Int txn_id) ]
  | Receipts { txn_ids } ->
      [ ("txn_ids", Sjson.List (List.map (fun i -> Sjson.Int i) txn_ids)) ]
  | Subscribe { from_lsn; replica_id } ->
      [
        ("from_lsn", Sjson.Int from_lsn);
        ("replica_id", Sjson.String replica_id);
      ]
  | Verify { tables; digests } ->
      [
        ("tables", Sjson.List (List.map (fun t -> Sjson.String t) tables));
        ("digests", Sjson.List digests);
      ]
  | Create_table { name; columns; key; ledger } ->
      [
        ("name", Sjson.String name);
        ( "columns",
          Sjson.List
            (List.map
               (fun (n, ty) ->
                 Sjson.Obj
                   [ ("name", Sjson.String n); ("type", Sjson.String ty) ])
               columns) );
        ("key", Sjson.List (List.map (fun k -> Sjson.String k) key));
        ("ledger", Sjson.Bool ledger);
      ]
  | Prepare { gid } -> [ ("gid", Sjson.String gid) ]
  | Decide { gid; commit } ->
      [ ("gid", Sjson.String gid); ("commit", Sjson.Bool commit) ]
  | Migrate { source; target; after_key; limit } ->
      [
        ("source", Sjson.String source);
        ("target", Sjson.String target);
        ( "after_key",
          Sjson.List (List.map Value.to_tagged_json after_key) );
        ("limit", Sjson.Int limit);
      ]
  | Ping | Begin | Commit | Rollback | Digest | Checkpoint | Stats | Shard_map
  | Quit ->
      []

(* ------------------------------------------------------------------ *)
(* Responses *)

type verify_summary = {
  vs_ok : bool;
  vs_blocks : int;
  vs_transactions : int;
  vs_versions : int;
  vs_violations : string list;
}

type response =
  | Welcome of { version : int; server : string; database : string }
  | Pong
  | Ok_r  (** generic success (create_table, checkpoint) *)
  | Txn_r of { txn_id : int option }  (** begin/commit/rollback outcome *)
  | Rows_r of { columns : string list; rows : Value.t list list }
  | Affected_r of { rows : int; txn_id : int option }
      (** [txn_id] is the autocommitted statement's transaction id (when
          the server runs group commit), so a client can later fetch the
          transaction's receipt without a separate query *)
  | Digest_r of Sjson.t  (** canonical digest document *)
  | Receipt_r of Sjson.t  (** canonical receipt document *)
  | Receipts_r of {
      receipts : Sjson.t list;
          (* key-stripped when [block_keys] is non-empty: a batch from
             one block shares its public key and signature *)
      pending : int list;
      block_keys : Sjson.t list;
          (* per-block {block_id; public_key; signature}, carried once *)
    }
      (** receipts for the closed-block transactions of a [Receipts]
          batch; [pending] lists the ids still in the open block *)
  | Verify_r of verify_summary
  | Stats_r of string list  (** one plain-text metric per line *)
  | Subscribed of { last_lsn : int }
      (** stream accepted; batched WAL frames follow, starting after the
          subscriber's [from_lsn] and currently extending to [last_lsn] *)
  | Snapshot_r of { snapshot : Sjson.t; last_lsn : int }
      (** the requested position predates the primary's in-memory log
          (compaction/restart truncated it): install this full snapshot,
          whose state corresponds to [last_lsn], then stream from there *)
  | Shard_map_r of { epoch : int; shards : (string * int) list }
      (** the coordinator's partition map: [shards.(i)] is the (host,
          port) of the primary owning hash bucket [i]; [epoch] increments
          on every topology change and gates [wrong_shard] refusals *)
  | Migrate_r of {
      copied : int;  (** rows actually inserted by this batch *)
      last_key : Value.t list;
          (** primary key of the last source row examined — the resume
              cursor for the next batch; [[]] when the source was empty
              past the requested cursor *)
      finished : bool;  (** no source rows remain past [last_key] *)
    }
  | Bye
  | Error_r of {
      code : error_code;
      message : string;
      retry_after_ms : int option;
          (** for [Overloaded]: suggested backoff before retrying *)
      map_epoch : int option;
          (** for [Wrong_shard]: the server's current shard-map epoch *)
    }

(* An error reply with no retry hint and no map epoch. *)
let error code fmt =
  Printf.ksprintf
    (fun message -> Error_r { code; message; retry_after_ms = None; map_epoch = None })
    fmt

(* What every endpoint checks in a hello before it welcomes the client:
   the protocol version, then the principal claim, which must verify
   against the deployment's shared [secret]. [Ok] carries the verified
   principal ([None] stays anonymous); [Error] is the refusal to send
   before hanging up. *)
let accept_hello ~secret ~version:v ~principal ~auth =
  let refuse fmt = Printf.ksprintf (fun m -> Error (error Auth_failed "%s" m)) fmt in
  if v <> version then
    Error
      (error Version_mismatch "protocol version mismatch: client %d, server %d"
         v version)
  else
    match (principal, secret, auth) with
    | None, _, _ -> Ok None
    | Some "", _, _ -> refuse "principal name must not be empty"
    | Some p, None, _ ->
        refuse
          "principal %S refused: this server holds no shared secret (start \
           it with --auth-secret)"
          p
    | Some p, Some _, None -> refuse "principal %S claimed without an auth tag" p
    | Some p, Some secret, Some tag ->
        if principal_tag_ok ~secret ~name:p ~tag then Ok (Some p)
        else refuse "invalid auth tag for principal %S" p

let response_is_error = function Error_r _ -> true | _ -> false

let response_kind = function
  | Welcome _ -> "welcome"
  | Pong -> "pong"
  | Ok_r -> "ok"
  | Txn_r _ -> "txn"
  | Rows_r _ -> "rows"
  | Affected_r _ -> "affected"
  | Digest_r _ -> "digest"
  | Receipt_r _ -> "receipt"
  | Receipts_r _ -> "receipts"
  | Verify_r _ -> "verify"
  | Stats_r _ -> "stats"
  | Subscribed _ -> "subscribed"
  | Snapshot_r _ -> "snapshot"
  | Shard_map_r _ -> "shard_map"
  | Migrate_r _ -> "migrate"
  | Bye -> "bye"
  | Error_r _ -> "error"

let response_fields = function
  | Welcome { version; server; database } ->
      [
        ("version", Sjson.Int version);
        ("server", Sjson.String server);
        ("database", Sjson.String database);
      ]
  | Txn_r { txn_id } ->
      [ ("txn_id", match txn_id with Some i -> Sjson.Int i | None -> Sjson.Null) ]
  | Rows_r { columns; rows } ->
      [
        ("columns", Sjson.List (List.map (fun c -> Sjson.String c) columns));
        ( "rows",
          Sjson.List
            (List.map
               (fun row -> Sjson.List (List.map Value.to_tagged_json row))
               rows) );
      ]
  | Affected_r { rows; txn_id } -> (
      ("affected", Sjson.Int rows)
      ::
      (match txn_id with
      | Some i -> [ ("txn_id", Sjson.Int i) ]
      | None -> []))
  | Digest_r j -> [ ("digest", j) ]
  | Receipt_r j -> [ ("receipt", j) ]
  | Receipts_r { receipts; pending; block_keys } ->
      [
        ("receipts", Sjson.List receipts);
        ("pending", Sjson.List (List.map (fun i -> Sjson.Int i) pending));
        ("block_keys", Sjson.List block_keys);
      ]
  | Verify_r v ->
      [
        ("ok", Sjson.Bool v.vs_ok);
        ("blocks", Sjson.Int v.vs_blocks);
        ("transactions", Sjson.Int v.vs_transactions);
        ("versions", Sjson.Int v.vs_versions);
        ( "violations",
          Sjson.List (List.map (fun s -> Sjson.String s) v.vs_violations) );
      ]
  | Stats_r lines ->
      [ ("lines", Sjson.List (List.map (fun s -> Sjson.String s) lines)) ]
  | Subscribed { last_lsn } -> [ ("last_lsn", Sjson.Int last_lsn) ]
  | Snapshot_r { snapshot; last_lsn } ->
      [ ("snapshot", snapshot); ("last_lsn", Sjson.Int last_lsn) ]
  | Shard_map_r { epoch; shards } ->
      [
        ("epoch", Sjson.Int epoch);
        ( "shards",
          Sjson.List
            (List.map
               (fun (host, port) ->
                 Sjson.Obj
                   [ ("host", Sjson.String host); ("port", Sjson.Int port) ])
               shards) );
      ]
  | Migrate_r { copied; last_key; finished } ->
      [
        ("copied", Sjson.Int copied);
        ("last_key", Sjson.List (List.map Value.to_tagged_json last_key));
        ("finished", Sjson.Bool finished);
      ]
  | Error_r { code; message; retry_after_ms; map_epoch } ->
      ("code", Sjson.String (error_code_to_string code))
      :: ("message", Sjson.String message)
      ::
      ((match retry_after_ms with
       | Some ms -> [ ("retry_after_ms", Sjson.Int ms) ]
       | None -> [])
      @
      match map_epoch with
      | Some e -> [ ("map_epoch", Sjson.Int e) ]
      | None -> [])
  | Pong | Ok_r | Bye -> []

(* ------------------------------------------------------------------ *)
(* Envelopes *)

(* [deadline_ms] is the client's remaining budget for this request, in
   whole milliseconds measured from the moment the frame was sent. The
   server stamps the frame's arrival and answers [deadline_exceeded]
   without doing the work once [arrival + deadline_ms] has passed — a
   request that rotted in a queue is refused, not executed late. The
   field is an envelope-level knob (like "id"), not a request field, so
   every request kind can carry one; absent means unlimited. *)
(* [map_epoch] is the shard-map generation the client routed with, also
   envelope-level: a sharded deployment stamps every request so a
   coordinator (or shard) can refuse stale routing with [wrong_shard]
   before doing any work. Absent means "don't check" — single-node
   servers ignore it. *)
let encode_request ~id ?deadline_ms ?map_epoch req =
  Sjson.to_string
    (Sjson.Obj
       (("id", Sjson.Int id)
       :: ("req", Sjson.String (request_kind req))
       ::
       ((match deadline_ms with
        | Some ms -> [ ("deadline_ms", Sjson.Int ms) ]
        | None -> [])
       @ (match map_epoch with
         | Some e -> [ ("map_epoch", Sjson.Int e) ]
         | None -> [])
       @ request_fields req)))

let encode_response ~id resp =
  Sjson.to_string
    (Sjson.Obj
       (("id", Sjson.Int id)
       :: ("resp", Sjson.String (response_kind resp))
       :: response_fields resp))

(* Decoding helpers: all failures collapse to a human-readable Error
   string — the peer sent a well-framed but malformed payload. *)

let decode payload =
  match Sjson.of_string payload with
  | exception Sjson.Parse_error e -> Error ("payload is not JSON: " ^ e)
  | Sjson.Obj _ as obj -> Ok obj
  | _ -> Error "payload is not a JSON object"

let req_id obj =
  match Sjson.member "id" obj with Sjson.Int i -> i | _ -> 0

let str_field name obj =
  match Sjson.member name obj with
  | Sjson.String s -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let int_field name obj =
  match Sjson.member name obj with
  | Sjson.Int i -> Ok i
  | _ -> Error (Printf.sprintf "missing int field %S" name)

let ( let* ) = Result.bind

let string_list name obj =
  match Sjson.member name obj with
  | Sjson.Null -> Ok []
  | Sjson.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Sjson.String s :: rest -> go (s :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
      in
      go [] items
  | _ -> Error (Printf.sprintf "field %S must be a list" name)

let value_of_tagged json =
  match Value.of_tagged_json json with
  | Some v -> Ok v
  | None -> Error "row cell is not a tagged value"

(* A row key as a list of tagged values; absent means []. *)
let value_list name obj =
  match Sjson.member name obj with
  | Sjson.Null -> Ok []
  | Sjson.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* v = value_of_tagged item in
            go (v :: acc) rest
      in
      go [] items
  | _ -> Error (Printf.sprintf "field %S must be a list of tagged values" name)

let decode_request payload =
  let* obj = decode payload in
  let id = req_id obj in
  let deadline_ms =
    match Sjson.member "deadline_ms" obj with
    | Sjson.Int ms when ms >= 0 -> Some ms
    | _ -> None
  in
  let map_epoch =
    match Sjson.member "map_epoch" obj with
    | Sjson.Int e when e >= 0 -> Some e
    | _ -> None
  in
  let tag res = Result.map (fun r -> (id, deadline_ms, map_epoch, r)) res in
  match Sjson.member "req" obj with
  | Sjson.String kind ->
      tag
        (match kind with
        | "hello" ->
            let* version = int_field "version" obj in
            let client =
              match str_field "client" obj with Ok c -> c | Error _ -> "?"
            in
            let opt_str name =
              match str_field name obj with Ok s -> Some s | Error _ -> None
            in
            Ok
              (Hello
                 {
                   version;
                   client;
                   principal = opt_str "principal";
                   auth = opt_str "auth";
                 })
        | "ping" -> Ok Ping
        | "exec" ->
            let* sql = str_field "sql" obj in
            Ok (Exec { sql })
        | "query" ->
            let* sql = str_field "sql" obj in
            Ok (Query { sql })
        | "begin" -> Ok Begin
        | "commit" -> Ok Commit
        | "rollback" -> Ok Rollback
        | "digest" -> Ok Digest
        | "receipt" ->
            let* txn_id = int_field "txn_id" obj in
            Ok (Receipt { txn_id })
        | "receipts" ->
            let* txn_ids =
              match Sjson.member "txn_ids" obj with
              | Sjson.List items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | Sjson.Int i :: rest -> go (i :: acc) rest
                    | _ -> Error "field \"txn_ids\" must be a list of ints"
                  in
                  go [] items
              | _ -> Error "missing field \"txn_ids\""
            in
            Ok (Receipts { txn_ids })
        | "verify" ->
            let* tables = string_list "tables" obj in
            let digests =
              match Sjson.member "digests" obj with
              | Sjson.List items -> items
              | _ -> []
            in
            Ok (Verify { tables; digests })
        | "create_table" ->
            let* name = str_field "name" obj in
            let* key = string_list "key" obj in
            let* columns =
              match Sjson.member "columns" obj with
              | Sjson.List items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | (Sjson.Obj _ as col) :: rest ->
                        let* n = str_field "name" col in
                        let* ty = str_field "type" col in
                        go ((n, ty) :: acc) rest
                    | _ -> Error "each column must be an object"
                  in
                  go [] items
              | _ -> Error "missing field \"columns\""
            in
            let ledger =
              match Sjson.member "ledger" obj with
              | Sjson.Bool b -> b
              | _ -> true
            in
            Ok (Create_table { name; columns; key; ledger })
        | "checkpoint" -> Ok Checkpoint
        | "stats" -> Ok Stats
        | "subscribe" ->
            let* from_lsn = int_field "from_lsn" obj in
            let* replica_id = str_field "replica_id" obj in
            Ok (Subscribe { from_lsn; replica_id })
        | "shard_map" -> Ok Shard_map
        | "prepare" ->
            let* gid = str_field "gid" obj in
            Ok (Prepare { gid })
        | "decide" ->
            let* gid = str_field "gid" obj in
            let* commit =
              match Sjson.member "commit" obj with
              | Sjson.Bool b -> Ok b
              | _ -> Error "missing bool field \"commit\""
            in
            Ok (Decide { gid; commit })
        | "migrate" ->
            let* source = str_field "source" obj in
            let* target = str_field "target" obj in
            let* after_key = value_list "after_key" obj in
            let* limit = int_field "limit" obj in
            Ok (Migrate { source; target; after_key; limit })
        | "quit" -> Ok Quit
        | other -> Error ("unknown request " ^ other))
  | _ -> Error "missing request discriminator \"req\""

let decode_response payload =
  let* obj = decode payload in
  let id = req_id obj in
  let tag res = Result.map (fun r -> (id, r)) res in
  match Sjson.member "resp" obj with
  | Sjson.String kind ->
      tag
        (match kind with
        | "welcome" ->
            let* version = int_field "version" obj in
            let* server = str_field "server" obj in
            let* database = str_field "database" obj in
            Ok (Welcome { version; server; database })
        | "pong" -> Ok Pong
        | "ok" -> Ok Ok_r
        | "txn" ->
            let txn_id =
              match Sjson.member "txn_id" obj with
              | Sjson.Int i -> Some i
              | _ -> None
            in
            Ok (Txn_r { txn_id })
        | "rows" ->
            let* columns = string_list "columns" obj in
            let* rows =
              match Sjson.member "rows" obj with
              | Sjson.List items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | Sjson.List cells :: rest ->
                        let rec cells_go cacc = function
                          | [] -> Ok (List.rev cacc)
                          | c :: crest ->
                              let* v = value_of_tagged c in
                              cells_go (v :: cacc) crest
                        in
                        let* row = cells_go [] cells in
                        go (row :: acc) rest
                    | _ -> Error "each row must be a list"
                  in
                  go [] items
              | _ -> Error "missing field \"rows\""
            in
            Ok (Rows_r { columns; rows })
        | "affected" ->
            let* n = int_field "affected" obj in
            let txn_id =
              match Sjson.member "txn_id" obj with
              | Sjson.Int i -> Some i
              | _ -> None
            in
            Ok (Affected_r { rows = n; txn_id })
        | "digest" -> Ok (Digest_r (Sjson.member "digest" obj))
        | "receipt" -> Ok (Receipt_r (Sjson.member "receipt" obj))
        | "receipts" ->
            let receipts =
              match Sjson.member "receipts" obj with
              | Sjson.List items -> items
              | _ -> []
            in
            let* pending =
              match Sjson.member "pending" obj with
              | Sjson.Null -> Ok []
              | Sjson.List items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | Sjson.Int i :: rest -> go (i :: acc) rest
                    | _ -> Error "field \"pending\" must be a list of ints"
                  in
                  go [] items
              | _ -> Error "field \"pending\" must be a list"
            in
            let block_keys =
              match Sjson.member "block_keys" obj with
              | Sjson.List items -> items
              | _ -> []
            in
            Ok (Receipts_r { receipts; pending; block_keys })
        | "verify" ->
            let* blocks = int_field "blocks" obj in
            let* transactions = int_field "transactions" obj in
            let* versions = int_field "versions" obj in
            let* violations = string_list "violations" obj in
            let ok =
              match Sjson.member "ok" obj with
              | Sjson.Bool b -> b
              | _ -> violations = []
            in
            Ok
              (Verify_r
                 {
                   vs_ok = ok;
                   vs_blocks = blocks;
                   vs_transactions = transactions;
                   vs_versions = versions;
                   vs_violations = violations;
                 })
        | "stats" ->
            let* lines = string_list "lines" obj in
            Ok (Stats_r lines)
        | "subscribed" ->
            let* last_lsn = int_field "last_lsn" obj in
            Ok (Subscribed { last_lsn })
        | "snapshot" ->
            let* last_lsn = int_field "last_lsn" obj in
            Ok (Snapshot_r { snapshot = Sjson.member "snapshot" obj; last_lsn })
        | "shard_map" ->
            let* epoch = int_field "epoch" obj in
            let* shards =
              match Sjson.member "shards" obj with
              | Sjson.List items ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | (Sjson.Obj _ as s) :: rest ->
                        let* host = str_field "host" s in
                        let* port = int_field "port" s in
                        go ((host, port) :: acc) rest
                    | _ -> Error "each shard must be an object"
                  in
                  go [] items
              | _ -> Error "missing field \"shards\""
            in
            Ok (Shard_map_r { epoch; shards })
        | "migrate" ->
            let* copied = int_field "copied" obj in
            let* last_key = value_list "last_key" obj in
            let finished =
              match Sjson.member "finished" obj with
              | Sjson.Bool b -> b
              | _ -> false
            in
            Ok (Migrate_r { copied; last_key; finished })
        | "bye" -> Ok Bye
        | "error" ->
            let* code_s = str_field "code" obj in
            let* message = str_field "message" obj in
            let code =
              Option.value (error_code_of_string code_s) ~default:Internal
            in
            let retry_after_ms =
              match Sjson.member "retry_after_ms" obj with
              | Sjson.Int ms -> Some ms
              | _ -> None
            in
            let map_epoch =
              match Sjson.member "map_epoch" obj with
              | Sjson.Int e -> Some e
              | _ -> None
            in
            Ok (Error_r { code; message; retry_after_ms; map_epoch })
        | other -> Error ("unknown response " ^ other))
  | _ -> Error "missing response discriminator \"resp\""
