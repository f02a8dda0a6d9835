(* Request dispatch: maps one decoded wire request onto the ledger
   engine.

   Writes keep the locking discipline described in Rwlock: the writer
   lock serializes all mutation (staging, DDL, checkpoints, digests,
   explicit transactions). Reads no longer take any lock — they run
   against the most recently *published* snapshot, an immutable
   [Database.t] built on the copy-on-write B+trees and swapped in with a
   single atomic store:

   - auto-commit statements: each staged commit captures a snapshot at
     enqueue (under the writer lock); the commit leader installs the
     batch's newest snapshot after the batch's fsync, so readers only
     ever observe durable state;
   - every other writer (explicit COMMIT/ROLLBACK, DDL, checkpoint,
     digest, 2PC decisions): publish at writer-lock release, after its
     own publish returned;
   - the replica node publishes after each applied batch via
     [refresh_snapshot].

   Once the primary's WAL breaks (a write or an fsync failed), the live
   database holds effects that never became durable: no snapshot is
   installed again, so readers keep the last state published before the
   failure, and every writer is refused.

   Sessions are the unit of transaction state. An explicit BEGIN takes
   the exclusive lock and parks the open [Txn.t] on the session, so the
   transaction's statements — which mutate tables in place — span
   requests safely; its reads run against the live database (it must see
   its own uncommitted writes). COMMIT/ROLLBACK (or session teardown:
   disconnect, idle timeout, server drain) releases the lock. *)

open Sql_ledger
module Protocol = Wire.Protocol

(* Two personalities share the dispatch table:

   - [Primary] owns a durable directory and accepts the full catalogue,
     including [Subscribe] (which hands the session over to the server's
     replication feed loop) and [Digest] (routed through the trusted
     store's §3.6 replication gate when one is wired in).

   - [Replica_view] serves the replica daemon's read port: reads run
     against the snapshot published after the last applied batch, every
     write-shaped request is refused with the typed [read_only] error
     naming the primary, and before the first batch lands readers fall
     back to sharing the engine lock with the apply path so they never
     see a half-applied state. *)
type backend =
  | Primary of {
      durable : Durable.t;
      queue : Commit_queue.t;  (* every auto-commit statement commits here *)
      repl : Repl.Manager.t option;
      digests : Trusted_store.Digest_manager.t option;
    }
  | Replica_view of {
      get_db : unit -> Database.t option;
      primary : string;  (* host:port, for read_only error messages *)
    }

(* The served read view. [p_seq] is the batch counter's value when this
   snapshot was installed: the snapshot holds every batch published up to
   that point, so [batch_seq - p_seq] is how many durable batches the
   served view is missing — the [snapshot.age_batches] gauge, expected to
   sit at 0. *)
type published = { p_db : Database.t; p_seq : int }

(* A transaction that voted yes in a two-phase commit and now awaits the
   coordinator's decision. [Live] is the normal case: the session's open
   transaction, moved off the session at PREPARE (so disconnects cannot
   roll it back) with its in-place table mutations intact and the writer
   lock still held. [Recovered] is the post-crash case: the effects were
   withheld by replay, so decide-commit must re-apply the recorded redo
   before logging COMMIT. Either way the writer lock stays held across
   the in-doubt window — 2PC blocks the shard, by design. *)
type prepared_txn = Live of Txn.t | Recovered of Wal_replay.in_doubt

type t = {
  backend : backend;
  lock : Rwlock.t;
  metrics : Metrics.t;
  server_name : string;
  auth_secret : string option;
      (* shared-secret contents backing principal authentication; [None]
         means the node cannot verify principal claims and refuses them *)
  snap : published option Atomic.t;
      (* latest published snapshot; [None] only on a replica that has
         not applied anything yet *)
  batch_seq : int Atomic.t;  (* durable batches published so far *)
  (* Admission control (0 = unlimited). [max_inflight] caps requests in
     dispatch across all sessions; [max_queue_depth] caps staged commits
     waiting for the group-commit leader. Past either cap, requests that
     would *start* new write work are shed with the typed [overloaded]
     error before any of it happens. *)
  max_inflight : int;
  max_queue_depth : int;
  inflight : int Atomic.t;
  prepared : (string, prepared_txn) Hashtbl.t;  (* gid -> awaiting decision *)
  prepared_mu : Mutex.t;
  recovered_hold : int ref;
      (* number of [Recovered] entries still undecided; while > 0 the
         writer lock is held on their behalf (taken at startup), released
         when the last one is decided. Guarded by [prepared_mu]. *)
}

type session = {
  s_id : int;
  mutable s_user : string;
  mutable s_hello : bool;
  mutable s_txn : Txn.t option;
  mutable s_arrival : float;  (* when the current request was decoded *)
  mutable s_deadline : float option;
      (* absolute time past which the current request must be answered
         [deadline_exceeded] instead of executed (from the envelope's
         [deadline_ms] budget) *)
}

let register_snapshot_age ~metrics ~snap ~batch_seq =
  Metrics.register_lines metrics (fun () ->
      match Atomic.get snap with
      | None -> [ "sqlledger_snapshot_age_batches -1" ]
      | Some p ->
          [
            Printf.sprintf "sqlledger_snapshot_age_batches %d"
              (max 0 (Atomic.get batch_seq - p.p_seq));
          ])

let create ?(group_commit_window = 0.0) ?(max_inflight = 0)
    ?(max_queue_depth = 0) ?auth_secret ?repl ?digests ~durable ~metrics
    ~server_name () =
  let snap = Atomic.make None in
  let batch_seq = Atomic.make 0 in
  let queue =
    Commit_queue.create ~window:group_commit_window
      ~ledger:(Database.ledger (Durable.db durable))
      ~metrics
      ~on_publish:(fun db ->
        (* Leader-side install, after the batch's fsync. The bump then
           the swap: a snapshot installed here is exactly [batch_seq]
           batches deep, age 0. *)
        let seq = 1 + Atomic.fetch_and_add batch_seq 1 in
        Atomic.set snap (Some { p_db = db; p_seq = seq }))
      ()
  in
  (* The boot state is the recovered database: publish it before the
     first connection so readers are lock-free from the first request. *)
  Atomic.set snap
    (Some { p_db = Database.snapshot (Durable.db durable); p_seq = 0 });
  register_snapshot_age ~metrics ~snap ~batch_seq;
  let t =
    {
      backend = Primary { durable; queue; repl; digests };
      lock = Rwlock.create ();
      metrics;
      server_name;
      auth_secret;
      snap;
      batch_seq;
      max_inflight;
      max_queue_depth;
      inflight = Atomic.make 0;
      prepared = Hashtbl.create 4;
      prepared_mu = Mutex.create ();
      recovered_hold = ref 0;
    }
  in
  (* Recovery surfaced prepared-but-undecided transactions: their effects
     are not in the database, and no new write may interleave until the
     coordinator resolves them. Hold the writer lock on their behalf —
     reads stay lock-free against the published (pre-decision) snapshot,
     and [Decide] releases the lock when the last one settles. *)
  (match Durable.in_doubt durable with
  | [] -> ()
  | in_doubt ->
      Rwlock.lock_write t.lock;
      t.recovered_hold := List.length in_doubt;
      List.iter
        (fun (d : Wal_replay.in_doubt) ->
          Hashtbl.replace t.prepared d.gid (Recovered d))
        in_doubt);
  t

(* The replica node owns the lock: its apply thread takes the writer side
   around each batch. Readers here serve published snapshots; until the
   first batch is applied there is nothing published and they share the
   lock with the apply path. *)
let create_replica ?auth_secret ~lock ~get_db ~primary ~metrics ~server_name
    () =
  let snap = Atomic.make None in
  let batch_seq = Atomic.make 0 in
  register_snapshot_age ~metrics ~snap ~batch_seq;
  {
    backend = Replica_view { get_db; primary };
    lock;
    metrics;
    server_name;
    auth_secret;
    snap;
    batch_seq;
    max_inflight = 0;
    max_queue_depth = 0;
    inflight = Atomic.make 0;
    prepared = Hashtbl.create 1;
    prepared_mu = Mutex.create ();
    recovered_hold = ref 0;
  }

let queue t =
  match t.backend with
  | Primary { queue; _ } -> Some queue
  | Replica_view _ -> None

(* Every writer that holds the writer lock — explicit transactions, DDL,
   checkpoints, digests — must drain the commit queue first: the commit
   leader appends to the WAL without holding the engine lock, and its
   batches must reach the log before any record written here. While the
   writer lock is held no new ticket can be enqueued, so the log stays
   quiescent until release. *)
let flush_queue t = Option.iter Commit_queue.flush (queue t)

(* The primary's broken-log exception, if its WAL has failed a write or
   an fsync (the ledger's WAL handle is re-read: compaction swaps it). *)
let log_failure t =
  match t.backend with
  | Primary { durable; _ } ->
      Aries.Wal.broken
        (Database_ledger.wal (Database.ledger (Durable.db durable)))
  | Replica_view _ -> None

let new_session ~id =
  {
    s_id = id;
    s_user = Printf.sprintf "client-%d" id;
    s_hello = false;
    s_txn = None;
    s_arrival = Unix.gettimeofday ();
    s_deadline = None;
  }

exception Not_synced

(* Raised at the enforcement points below when the current request's
   deadline budget ran out before its work began; [guard] turns it into
   the typed [deadline_exceeded] error. By construction nothing has been
   executed or staged when it is raised — the "no work done" promise the
   client-side retry relies on. *)
exception Deadline_blown

let past_deadline s =
  match s.s_deadline with
  | Some at -> Unix.gettimeofday () > at
  | None -> false

(* How long the request waited between arrival and its work starting —
   in-queue time: the writer-lock wait, plus any dispatch overhead. *)
let note_queue_wait t s =
  Metrics.record t.metrics ~kind:"server.queue_wait_us" ~error:false
    ~us:((Unix.gettimeofday () -. s.s_arrival) *. 1e6)

let db t =
  match t.backend with
  | Primary { durable; _ } -> Durable.db durable
  | Replica_view { get_db; _ } -> (
      match get_db () with Some db -> db | None -> raise Not_synced)

let err = Protocol.error

let err_retry code ~retry_after_ms fmt =
  Printf.ksprintf
    (fun message ->
      Protocol.Error_r { code; message; retry_after_ms = Some retry_after_ms; map_epoch = None })
    fmt

let read_only primary =
  err Protocol.Read_only "replica is read-only; writes go to the primary at %s"
    primary

(* Lock acquisitions are timed into power-of-two histograms so a bench
   (or an operator) can prove readers no longer queue behind writers:
   [lock.read_wait_us] is the cost of acquiring read access — the atomic
   snapshot fetch on the fast path, the shared lock on the replica's
   pre-sync fallback — and [lock.write_wait_us] is the writer-lock wait,
   which after this refactor is contention between writers only. *)
let lock_write_timed t =
  let t0 = Unix.gettimeofday () in
  Rwlock.lock_write t.lock;
  Metrics.record t.metrics ~kind:"lock.write_wait_us" ~error:false
    ~us:((Unix.gettimeofday () -. t0) *. 1e6)

(* Publish the live database's current state as the served read view.
   Caller must hold the writer lock: capture needs a quiescent engine,
   and the lock is also what orders this install against the commit
   leader's (flush-then-mutate-then-publish, see [with_write]). Nothing
   is installed once the log has broken. *)
let publish_snapshot t =
  match (try Some (db t) with Not_synced -> None) with
  | Some live when log_failure t = None ->
      Atomic.set t.snap
        (Some
           { p_db = Database.snapshot live; p_seq = Atomic.get t.batch_seq })
  | _ -> ()

(* Replica apply path: the node calls this after each applied batch (and
   after installing a bootstrap snapshot) while still holding the writer
   lock, making the new state visible to lock-free readers. *)
let refresh_snapshot t = publish_snapshot t

(* Read-shaped work. A session inside an explicit transaction holds the
   exclusive lock and must see its own uncommitted writes: run against
   the live database. Everyone else reads the latest published snapshot
   without touching the lock at all; only a replica that has not yet
   published (no batch applied since boot) falls back to sharing the
   lock with the apply path. *)
let with_read t s f =
  match s.s_txn with
  | Some _ -> f (db t)
  | None -> (
      if past_deadline s then raise Deadline_blown;
      let t0 = Unix.gettimeofday () in
      match Atomic.get t.snap with
      | Some p ->
          Metrics.record t.metrics ~kind:"lock.read_wait_us" ~error:false
            ~us:((Unix.gettimeofday () -. t0) *. 1e6);
          f p.p_db
      | None ->
          Rwlock.lock_read t.lock;
          Metrics.record t.metrics ~kind:"lock.read_wait_us" ~error:false
            ~us:((Unix.gettimeofday () -. t0) *. 1e6);
          Fun.protect
            ~finally:(fun () -> Rwlock.unlock_read t.lock)
            (fun () ->
              if past_deadline s then raise Deadline_blown;
              f (db t)))

let with_write t s f =
  match s.s_txn with
  | Some _ -> f ()
  | None ->
      lock_write_timed t;
      note_queue_wait t s;
      Fun.protect
        ~finally:(fun () ->
          (* Even on an engine error: the state a failed statement left
             behind is the state the next reader would have seen under
             the old lock discipline too. *)
          publish_snapshot t;
          Rwlock.unlock_write t.lock)
        (fun () ->
          (* The queue wait is over; a request that rotted behind other
             writers is refused before any of its work happens. *)
          if past_deadline s then raise Deadline_blown;
          flush_queue t;
          Option.iter raise (log_failure t);
          f ())

let rows_of_rel rel =
  Protocol.Rows_r
    {
      columns = Sqlexec.Rel.column_names rel;
      rows = List.map Relation.Row.to_list rel.Sqlexec.Rel.rows;
    }

(* [txn_id] is the auto-committed statement's transaction id — returned
   so the client can fetch the transaction's receipt later without a
   lookup query. *)
let result_to_response ?txn_id = function
  | Dml.Rows rel -> rows_of_rel rel
  | Dml.Affected n -> Protocol.Affected_r { rows = n; txn_id }

(* Engine exceptions -> typed wire errors. Fault-injection exceptions
   must keep propagating: the session loop owns crash semantics. *)
let guard t f =
  try f () with
  | Sqlexec.Parser.Parse_error e | Sqlexec.Lexer.Lex_error e ->
      err Protocol.Parse_error "%s" e
  | Sqlexec.Executor.Exec_error e | Types.Ledger_error e ->
      err Protocol.Exec_error "%s" e
  | Storage.Table_store.Duplicate_key k ->
      err Protocol.Exec_error "duplicate key %s" k
  | Storage.Table_store.Not_found_key k ->
      err Protocol.Exec_error "no such key %s" k
  | Not_synced ->
      err Protocol.Exec_error
        "replica has not received the database from the primary yet"
  | Deadline_blown ->
      Metrics.bump t.metrics "server.deadline_exceeded";
      err Protocol.Deadline_exceeded
        "request deadline expired before execution began; no work was done"
  | Failure e -> err Protocol.Exec_error "%s" e
  | (Fault.Injected_crash _ | Fault.Injected_error _) as e -> raise e

(* Temporal reads (FOR SYSTEM_TIME AS OF anywhere in the FROM tree) get
   their own counter next to the per-kind histograms, so an operator can
   see how much of the read path is time travel. *)
let rec from_has_as_of = function
  | Sqlexec.Ast.Table { as_of; _ } -> as_of <> None
  | Sqlexec.Ast.Subquery { query; _ } -> select_has_as_of query
  | Sqlexec.Ast.Openjson _ -> false
  | Sqlexec.Ast.Join { left; right; _ } ->
      from_has_as_of left || from_has_as_of right

and select_has_as_of (q : Sqlexec.Ast.select) =
  match q.from with Some f -> from_has_as_of f | None -> false

let note_temporal t = function
  | Sqlexec.Ast.Select q when select_has_as_of q ->
      Metrics.bump t.metrics "query.temporal"
  | _ -> ()

let exec_sql t s sql =
  guard t (fun () ->
      let statement = Sqlexec.Parser.parse_statement sql in
      note_temporal t statement;
      match (statement, s.s_txn, t.backend) with
      | Sqlexec.Ast.Select _, _, _ ->
          with_read t s (fun view ->
              result_to_response
                (Dml.execute_statement ?txn:s.s_txn view ~user:s.s_user
                   statement))
      | _, Some txn, _ ->
          result_to_response
            (Dml.execute_statement ~txn (db t) ~user:s.s_user statement)
      | _, None, Replica_view { primary; _ } -> read_only primary
      | _, None, Primary { queue = q; _ } -> (
          (* Auto-commit: execute and stage under the exclusive lock,
             enqueue — with a COW snapshot of the staged state — before
             releasing it (batch order = execution order), then wait for
             the commit leader to publish the batch under one fsync. The
             leader installs the batch's newest snapshot as the served
             read view, so by the time this request is acked its write is
             visible to every subsequent lock-free read. *)
          lock_write_timed t;
          note_queue_wait t s;
          let outcome =
            try
              if past_deadline s then raise Deadline_blown;
              let result, staged =
                Dml.execute_statement_staged (db t) ~user:s.s_user statement
              in
              let ticket =
                Option.map
                  (fun (st : Dml.staged) ->
                    ( Commit_queue.enqueue q ~entry:st.staged_entry
                        ~records:st.staged_records
                        ~snapshot:(Database.snapshot (db t)),
                      st.staged_entry.Types.txn_id ))
                  staged
              in
              Ok (result, ticket)
            with e -> Error e
          in
          Rwlock.unlock_write t.lock;
          match outcome with
          | Error e -> raise e
          | Ok (result, ticket) ->
              Option.iter
                (fun (ticket, _) -> Commit_queue.await q ticket)
                ticket;
              result_to_response ?txn_id:(Option.map snd ticket) result))

let query_sql t s sql =
  guard t (fun () ->
      match Sqlexec.Parser.parse_statement sql with
      | Sqlexec.Ast.Select _ as statement ->
          note_temporal t statement;
          with_read t s (fun view ->
              result_to_response
                (Dml.execute_statement ?txn:s.s_txn view ~user:s.s_user
                   statement))
      | _ -> err Protocol.Bad_request "query accepts SELECT statements only")

let begin_txn t s =
  match s.s_txn with
  | Some txn ->
      err Protocol.Txn_state "transaction %d is already open" (Txn.id txn)
  | None -> (
      lock_write_timed t;
      note_queue_wait t s;
      (* The explicit transaction holds the lock until COMMIT/ROLLBACK, so
         one flush here keeps the WAL quiescent for its whole lifetime. A
         begin that fails (a spent deadline, a broken log) must not keep
         the lock. *)
      match
        if past_deadline s then raise Deadline_blown;
        flush_queue t;
        Database.begin_txn (db t) ~user:s.s_user
      with
      | txn ->
          s.s_txn <- Some txn;
          Protocol.Txn_r { txn_id = Some (Txn.id txn) }
      | exception e ->
          Rwlock.unlock_write t.lock;
          guard t (fun () -> raise e))

let end_txn t s ~commit =
  match s.s_txn with
  | None -> err Protocol.Txn_state "no transaction is open"
  | Some txn ->
      let finish resp =
        s.s_txn <- None;
        (* Commit or rollback, the transaction's outcome is the new
           state: publish it before readers can race the release. *)
        publish_snapshot t;
        Rwlock.unlock_write t.lock;
        resp
      in
      finish
        (guard t (fun () ->
             if commit then begin
               let entry = Txn.commit txn in
               Protocol.Txn_r { txn_id = Some entry.Types.txn_id }
             end
             else begin
               Txn.rollback txn;
               Protocol.Txn_r { txn_id = None }
             end))

let generate_digest t s =
  (* Closing the open block mutates the ledger: exclusive. *)
  guard t (fun () ->
      with_write t s (fun () ->
          match t.backend with
          | Primary { digests = Some dm; _ } -> (
              (* §3.6 over the wire: the trusted-store gate decides, and
                 its deferral/alert outcomes surface as typed errors a
                 client can distinguish from plain failure. *)
              match Trusted_store.Digest_manager.upload dm (db t) with
              | Trusted_store.Digest_manager.Uploaded d ->
                  Protocol.Digest_r (Digest.to_json d)
              | Trusted_store.Digest_manager.Nothing_to_upload ->
                  err Protocol.Exec_error "nothing committed yet"
              | Trusted_store.Digest_manager.Deferred_replication_lag ->
                  err Protocol.Replication_lag
                    "digest deferred: a replica has not yet acknowledged \
                     the latest commits (deferral %d)"
                    (Trusted_store.Digest_manager.deferral_count dm)
              | Trusted_store.Digest_manager.Alert_replication_stuck ->
                  err Protocol.Replication_stuck
                    "digest gate alert: replication stuck after %d \
                     consecutive deferrals"
                    (Trusted_store.Digest_manager.deferral_count dm))
          | Primary { digests = None; _ } | Replica_view _ -> (
              match Database.generate_digest (db t) with
              | Some d -> Protocol.Digest_r (Digest.to_json d)
              | None -> err Protocol.Exec_error "nothing committed yet")))

let generate_receipt t s ~txn_id =
  guard t (fun () ->
      with_read t s (fun view ->
          match Receipt.generate_cached view ~txn_id with
          | Ok r -> Protocol.Receipt_r (Receipt.to_json r)
          | Error e ->
              err Protocol.Exec_error "%s"
                (Receipt.issue_error_to_string ~txn_id e)))

(* Batching bounds the response frame and keeps one slow request from
   monopolizing a read slot; a client with more ids splits the batch. *)
let max_receipt_batch = 256

let generate_receipts t s ~txn_ids =
  if List.length txn_ids > max_receipt_batch then
    err Protocol.Bad_request "receipts batch exceeds %d transactions"
      max_receipt_batch
  else
    guard t (fun () ->
        with_read t s (fun view ->
            (* One pass over the batch against a single frozen view: ids
               from the same block hit the cached tree and amortized
               signature; open-block ids are reported as pending, not
               errors, so a client can retry them after the next close.
               Receipts travel key-stripped, with each block's public
               key and signature carried once in [block_keys] — the key
               pair dwarfs the rest of the receipt, so a batch from one
               block costs one copy of it, not one per transaction. *)
            let seen_blocks = Hashtbl.create 8 in
            let rec go receipts pending keys = function
              | [] ->
                  Protocol.Receipts_r
                    {
                      receipts = List.rev receipts;
                      pending = List.rev pending;
                      block_keys = List.rev keys;
                    }
              | txn_id :: rest -> (
                  match Receipt.generate_cached view ~txn_id with
                  | Ok r ->
                      let keys =
                        match Receipt.key_material r with
                        | Some (block_id, km)
                          when not (Hashtbl.mem seen_blocks block_id) ->
                            Hashtbl.replace seen_blocks block_id ();
                            km :: keys
                        | _ -> keys
                      in
                      go
                        (Receipt.to_json (Receipt.strip_keys r) :: receipts)
                        pending keys rest
                  | Error Receipt.Open_block ->
                      go receipts (txn_id :: pending) keys rest
                  | Error e ->
                      err Protocol.Exec_error "%s"
                        (Receipt.issue_error_to_string ~txn_id e))
            in
            go [] [] [] txn_ids))

let run_verify t s ~tables ~digest_jsons =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> (
        match Digest.of_json j with
        | Ok d -> parse (d :: acc) rest
        | Error e -> Error e)
  in
  match parse [] digest_jsons with
  | Error e -> err Protocol.Bad_request "%s" e
  | Ok digests ->
      guard t (fun () ->
          with_read t s (fun view ->
              (* The existence check runs on the same frozen view as the
                 verification itself, so a concurrent DROP/CREATE cannot
                 slip between them. *)
              match
                List.find_opt
                  (fun n -> Database.find_ledger_table view n = None)
                  tables
              with
              | Some missing ->
                  err Protocol.Exec_error "no such ledger table: %s" missing
              | None ->
                  let tables = if tables = [] then None else Some tables in
                  let report = Verifier.verify ?tables view ~digests in
                  Protocol.Verify_r
                    {
                      vs_ok = Verifier.ok report;
                      vs_blocks = report.Verifier.blocks_checked;
                      vs_transactions = report.Verifier.transactions_checked;
                      vs_versions = report.Verifier.versions_checked;
                      vs_violations =
                        List.map Verifier.violation_to_string
                          report.Verifier.violations;
                    }))

let create_table t s ~name ~columns ~key ~ledger =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | (cname, ty) :: rest -> (
        match Relation.Datatype.of_string ty with
        | Some dtype -> build (Relation.Column.make cname dtype :: acc) rest
        | None -> Error ty)
  in
  match build [] columns with
  | Error ty -> err Protocol.Bad_request "unknown column type %S" ty
  | Ok cols ->
      guard t (fun () ->
          with_write t s (fun () ->
              if ledger then
                ignore
                  (Database.create_ledger_table (db t) ~name ~columns:cols ~key
                     () : Ledger_table.t)
              else
                ignore
                  (Database.create_regular_table (db t) ~name ~columns:cols
                     ~key () : Storage.Table_store.t);
              Protocol.Ok_r))

(* ------------------------------------------------------------------ *)
(* Online migration, server side (one batch per request).

   Copies up to [limit] rows of a plain table — in primary-key order,
   strictly after the caller's cursor — into a ledger table as one
   committed transaction under the session's principal. Rows whose key
   already exists in the target are skipped, which is what makes a batch
   replayable: a crashed migrator resumes from its persisted cursor and
   any batch whose ack was lost re-inserts nothing. Runs under the
   writer lock like any other write; between batches OLTP traffic,
   receipts and the audit daemon proceed normally. *)

let max_migrate_batch = 4096

let migrate_batch t s ~source ~target ~after_key ~limit =
  if limit <= 0 || limit > max_migrate_batch then
    err Protocol.Bad_request "migrate limit must be in 1..%d" max_migrate_batch
  else if s.s_txn <> None then
    err Protocol.Txn_state
      "migrate runs its own transactions; close the open one first"
  else
    guard t (fun () ->
        with_write t s (fun () ->
            let dbv = db t in
            let store = Database.regular_table dbv source in
            let lt = Database.ledger_table dbv target in
            let src_schema = Storage.Table_store.schema store in
            let tgt_schema = Ledger_table.schema lt in
            let tgt_user_cols =
              List.map
                (Relation.Schema.column tgt_schema)
                (Ledger_table.user_ordinals lt)
            in
            if
              not
                (List.equal Relation.Column.equal
                   (Relation.Schema.columns src_schema)
                   tgt_user_cols)
            then
              err Protocol.Exec_error
                "migrate %s -> %s: user schemas differ" source target
            else begin
              let key_arity =
                List.length (Storage.Table_store.key_ordinals store)
              in
              let after =
                match after_key with
                | [] -> None
                | l when List.length l = key_arity ->
                    Some (Relation.Row.of_list l)
                | _ ->
                    Types.errorf
                      "migrate cursor has %d values; the key of %s has %d"
                      (List.length after_key) source key_arity
              in
              let past pk =
                match after with
                | None -> true
                | Some a -> Relation.Row.compare pk a > 0
              in
              (* [scan] walks the clustered tree, so rows arrive in key
                 order and the cursor advances monotonically. *)
              let txn = Database.begin_txn dbv ~user:s.s_user in
              let copied = ref 0 in
              let last_key = ref after_key in
              let finished = ref true in
              (try
                 List.iter
                   (fun row ->
                     let pk = Storage.Table_store.primary_key store row in
                     if past pk then
                       if !copied >= limit then begin
                         (* More source rows remain past this batch. *)
                         finished := false;
                         raise Exit
                       end
                       else begin
                         last_key := Relation.Row.to_list pk;
                         (match Ledger_table.find lt ~key:pk with
                         | Some _ -> ()  (* already copied: idempotent *)
                         | None ->
                             Txn.insert txn lt row;
                             incr copied)
                       end)
                   (Storage.Table_store.scan store)
               with Exit -> ());
              if !copied > 0 then ignore (Txn.commit txn : Types.txn_entry)
              else Txn.rollback txn;
              Metrics.bump ~n:!copied t.metrics "migrate.rows_copied";
              Protocol.Migrate_r
                {
                  copied = !copied;
                  last_key = !last_key;
                  finished = !finished;
                }
            end))

let checkpoint t s =
  guard t (fun () ->
      with_write t s (fun () ->
          match t.backend with
          | Primary { durable; _ } ->
              Durable.checkpoint durable;
              Protocol.Ok_r
          | Replica_view _ ->
              err Protocol.Bad_request "replica does not checkpoint"))

(* Accept a replication subscriber. Runs under the writer lock: the
   commit queue is flushed, so the log position and (when needed) the
   snapshot are a consistent cut of the database. The session is handed
   back to the server with a [`Hand_off] action and never returns to the
   request/response loop. *)
let subscribe t s ~from_lsn ~replica_id =
  match t.backend with
  | Replica_view _ ->
      ( err Protocol.Bad_request "replicas do not serve replication streams",
        `Keep )
  | Primary { repl = None; _ } ->
      (err Protocol.Bad_request "replication is not enabled", `Keep)
  | Primary { repl = Some mgr; durable; _ } -> (
      try
        with_write t s (fun () ->
          let dbv = Durable.db durable in
          let wal = Database_ledger.wal (Database.ledger dbv) in
          let last = Aries.Wal.last_lsn wal in
          if from_lsn > last then
            (* The subscriber holds records this primary never durably
               logged (it crashed after shipping but before its own
               fsync, then recovered): their histories have forked, and
               streaming would silently reuse those LSNs for different
               records. *)
            ( err Protocol.Exec_error
                "replica position %d is ahead of the primary log (%d): \
                 diverged history; rebuild the replica"
                from_lsn last,
              `Keep )
          else
            let servable =
              match Aries.Wal.first_available wal with
              | None -> from_lsn >= last
              | Some f -> from_lsn >= f - 1
            in
            if servable then
              let entry, epoch =
                Repl.Manager.register mgr ~id:replica_id ~peer:s.s_user
                  ~from_lsn
              in
              ( Protocol.Subscribed { last_lsn = last },
                `Hand_off (entry, epoch, from_lsn) )
            else
              (* The requested position predates the in-memory log
                 (compaction or a restart truncated it): ship a full
                 snapshot and stream from its position instead. *)
              let snap = Snapshot.save dbv in
              let entry, epoch =
                Repl.Manager.register mgr ~id:replica_id ~peer:s.s_user
                  ~from_lsn:last
              in
              ( Protocol.Snapshot_r { snapshot = snap; last_lsn = last },
                `Hand_off (entry, epoch, last) ))
      with
      | (Fault.Injected_crash _ | Fault.Injected_error _) as e -> raise e
      | Types.Ledger_error e | Failure e ->
          (err Protocol.Exec_error "%s" e, `Keep))

(* ------------------------------------------------------------------ *)
(* Two-phase commit, participant side (requests from a coordinator).

   PREPARE rides the explicit-transaction path: the coordinator opens a
   session transaction (Begin + Exec...), then sends [Prepare {gid}].
   The vote is durable (redo + PREPARE marker fsynced by [Txn.prepare]);
   the transaction moves off the session into [t.prepared] so a dropped
   coordinator connection cannot roll it back, and the writer lock stays
   held until the decision — from this session or any other. *)

let prepare_txn t s ~gid =
  match s.s_txn with
  | None ->
      err Protocol.Txn_state "prepare %s: no transaction is open" gid
  | Some txn ->
      guard t (fun () ->
          ignore (Txn.prepare txn ~gid : (int * string) list);
          s.s_txn <- None;
          Mutex.protect t.prepared_mu (fun () ->
              Hashtbl.replace t.prepared gid (Live txn));
          Metrics.bump t.metrics "server.prepare";
          Protocol.Ok_r)

(* The decision. Idempotent: a gid this shard has never heard of — or
   already decided — answers [Ok_r], so a recovering coordinator can
   blindly re-send decisions. Commit of a [Live] transaction is a normal
   ledger commit (the COMMIT record is the durable decision marker);
   commit of a [Recovered] one re-applies the redo recovery withheld.
   Either way the writer lock finally releases and the outcome becomes
   the published read view. On a broken log no decision can become
   durable: it is refused, and the gid stays prepared so that a re-sent
   decision is refused too, never acked. *)
let decide_txn t ~gid ~commit =
  let entry = Mutex.protect t.prepared_mu (fun () ->
      Hashtbl.find_opt t.prepared gid)
  in
  match entry with
  | None -> Protocol.Ok_r
  | Some entry ->
      guard t (fun () ->
          Option.iter raise (log_failure t);
          (try
             match entry with
             | Live txn ->
                 if commit then
                   ignore (Txn.decide_commit txn : Types.txn_entry)
                 else Txn.rollback txn;
                 Mutex.protect t.prepared_mu (fun () ->
                     Hashtbl.remove t.prepared gid);
                 publish_snapshot t;
                 Rwlock.unlock_write t.lock
             | Recovered d ->
                 let dbl = Database.ledger (db t) in
                 if commit then begin
                   (match
                      Wal_replay.apply_committed_ops (db t) ~txn_id:d.txn_id
                        d.ops
                    with
                   | Ok () -> ()
                   | Error e ->
                       Types.errorf
                         "redo of recovered prepared transaction %s failed: %s"
                         gid e);
                   let _, records =
                     Database_ledger.stage_commit dbl ~txn_id:d.txn_id
                       ~commit_ts:(Unix.gettimeofday ()) ~user:d.user
                       ~table_roots:d.table_roots
                   in
                   Database_ledger.publish dbl records
                 end
                 else
                   Database_ledger.publish dbl
                     [ Aries.Log_record.Abort { txn_id = d.txn_id } ];
                 let release =
                   Mutex.protect t.prepared_mu (fun () ->
                       Hashtbl.remove t.prepared gid;
                       decr t.recovered_hold;
                       !(t.recovered_hold) = 0)
                 in
                 if release then begin
                   publish_snapshot t;
                   Rwlock.unlock_write t.lock
                 end
           with e when log_failure t <> None ->
             (* This decision broke the log. Release the writer lock the
                prepared transaction held, so that every later writer is
                refused instead of waiting for it, and the drain can end;
                the check above keeps it from being released twice. *)
             Rwlock.unlock_write t.lock;
             raise e);
          Metrics.bump t.metrics
            (if commit then "server.decide_commit" else "server.decide_abort");
          Protocol.Ok_r)

let prepared_gids t =
  Mutex.protect t.prepared_mu (fun () ->
      Hashtbl.fold (fun gid _ acc -> gid :: acc) t.prepared [])

(* Session teardown: roll back any open transaction and release the
   exclusive lock. Called on disconnect, idle timeout, and drain. *)
let cleanup t s =
  match s.s_txn with
  | None -> ()
  | Some txn ->
      s.s_txn <- None;
      (try if Txn.is_active txn then Txn.rollback txn
       with _ -> ());
      publish_snapshot t;
      Rwlock.unlock_write t.lock

(* Requests that would mutate the ledger. A replica refuses them with
   the typed [read_only] error so a client (or a proxy) can retarget the
   write at the primary instead of treating it as a hard failure.
   [Digest] counts as a write: issuing one closes the open block, which
   would fork the replica's ledger away from the primary's. *)
let is_write_shaped = function
  | Protocol.Exec _ | Protocol.Begin | Protocol.Commit | Protocol.Rollback
  | Protocol.Create_table _ | Protocol.Checkpoint | Protocol.Digest
  | Protocol.Prepare _ | Protocol.Decide _ | Protocol.Migrate _ ->
      true
  | _ -> false

(* Shedding policy: only requests that would *start* new write work on a
   session with no open transaction are refusable. A session inside
   BEGIN...COMMIT already holds the writer lock — shedding its statements
   (or its COMMIT/ROLLBACK) would wedge the lock behind a client that is
   being told to go away. Reads are never shed: they are lock-free and
   the point of admission control is to keep them fast. *)
let sheds_under_overload s = function
  | Protocol.Exec _ | Protocol.Begin | Protocol.Create_table _
  | Protocol.Checkpoint | Protocol.Digest | Protocol.Migrate _ ->
      s.s_txn = None
  | _ -> false

(* The caller has already incremented [inflight] for this request, so the
   cap trips strictly above it. Either cap alone sheds: a deep commit
   queue means the fsync leader is behind even if dispatch slots are
   free. *)
let is_overloaded t =
  (t.max_inflight > 0 && Atomic.get t.inflight > t.max_inflight)
  || t.max_queue_depth > 0
     &&
     match queue t with
     | Some q -> Commit_queue.depth q >= t.max_queue_depth
     | None -> false

(* Retry-after hint: roughly how long until the backlog drains — the
   group-commit window (or a small constant at window 0) scaled by the
   queue depth, capped at a second so a transient spike does not park
   clients for long. *)
let retry_after_ms t =
  let window, depth =
    match queue t with
    | Some q -> (Commit_queue.window q, Commit_queue.depth q)
    | None -> (0.0, 0)
  in
  let base = if window > 0.0 then window else 0.005 in
  max 1
    (int_of_float
       (ceil (1000. *. Float.min 1.0 (base *. float_of_int (1 + depth)))))

let dispatch t s req =
  match req with
  | Protocol.Hello { version; client; principal; auth } -> (
      (* A claimed principal MUST verify; an absent claim keeps the
         legacy anonymous "client-N" identity, so unauthenticated peers
         (replication daemons, old clients) still work. The authenticated
         name is stored bare — it is what the transactions system table,
         receipts, replicas and 2PC participants all record as the row
         version's author. *)
      match
        Protocol.accept_hello ~secret:t.auth_secret ~version ~principal ~auth
      with
      | Error (Protocol.Error_r { code = Protocol.Auth_failed; _ } as refusal)
        ->
          Metrics.bump t.metrics "auth.failed";
          (refusal, `Close)
      | Error refusal -> (refusal, `Close)
      | Ok verified ->
          s.s_hello <- true;
          (match verified with
          | Some p -> s.s_user <- p
          | None ->
              if client <> "" then
                s.s_user <- Printf.sprintf "%s-%d" client s.s_id);
          let database =
            match t.backend with
            | Primary _ -> Database.name (db t)
            | Replica_view { get_db; _ } -> (
                match get_db () with
                | Some d -> Database.name d
                | None -> "(replica syncing)")
          in
          ( Protocol.Welcome
              {
                version = Protocol.version;
                server = t.server_name;
                database;
              },
            `Keep ))
  | _ when not s.s_hello ->
      (err Protocol.Bad_request "first request must be hello", `Close)
  | req
    when (match t.backend with Replica_view _ -> true | Primary _ -> false)
         && is_write_shaped req -> (
      match t.backend with
      | Replica_view { primary; _ } -> (read_only primary, `Keep)
      | Primary _ -> assert false)
  | req when sheds_under_overload s req && is_overloaded t ->
      Metrics.bump t.metrics "server.shed";
      ( err_retry Protocol.Overloaded ~retry_after_ms:(retry_after_ms t)
          "server overloaded; retry after the hinted backoff",
        `Keep )
  | Protocol.Ping -> (Protocol.Pong, `Keep)
  | Protocol.Exec { sql } -> (exec_sql t s sql, `Keep)
  | Protocol.Query { sql } -> (query_sql t s sql, `Keep)
  | Protocol.Begin -> (begin_txn t s, `Keep)
  | Protocol.Commit -> (end_txn t s ~commit:true, `Keep)
  | Protocol.Rollback -> (end_txn t s ~commit:false, `Keep)
  | Protocol.Digest -> (generate_digest t s, `Keep)
  | Protocol.Receipt { txn_id } -> (generate_receipt t s ~txn_id, `Keep)
  | Protocol.Receipts { txn_ids } -> (generate_receipts t s ~txn_ids, `Keep)
  | Protocol.Verify { tables; digests } ->
      (run_verify t s ~tables ~digest_jsons:digests, `Keep)
  | Protocol.Create_table { name; columns; key; ledger } ->
      (create_table t s ~name ~columns ~key ~ledger, `Keep)
  | Protocol.Checkpoint -> (checkpoint t s, `Keep)
  | Protocol.Subscribe { from_lsn; replica_id } ->
      subscribe t s ~from_lsn ~replica_id
  | Protocol.Stats -> (Protocol.Stats_r (Metrics.lines t.metrics), `Keep)
  | Protocol.Shard_map ->
      (* Only a coordinator owns a shard map; a shard primary answering
         one would let a client mistake a single node for a cluster. *)
      (err Protocol.Bad_request "this server is not a coordinator", `Keep)
  | Protocol.Prepare { gid } -> (prepare_txn t s ~gid, `Keep)
  | Protocol.Decide { gid; commit } -> (decide_txn t ~gid ~commit, `Keep)
  | Protocol.Migrate { source; target; after_key; limit } ->
      (migrate_batch t s ~source ~target ~after_key ~limit, `Keep)
  | Protocol.Quit -> (Protocol.Bye, `Close)

(* [handle] returns the response plus what the server should do with the
   connection afterwards: keep serving it, close it, or hand it to the
   replication feed loop. [?deadline] is the request's absolute refusal
   time, derived by the server from the envelope's [deadline_ms]; it arms
   the per-session deadline that the enforcement points above check. *)
let handle t s ?deadline req =
  s.s_arrival <- Unix.gettimeofday ();
  s.s_deadline <- deadline;
  Atomic.incr t.inflight;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.inflight)
    (fun () -> dispatch t s req)
