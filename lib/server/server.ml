(* The concurrent ledger server: request dispatch (writes under the
   Rwlock discipline, reads against published copy-on-write snapshots —
   see Dispatch) behind the shared session runtime ({!Wire.Listener}),
   plus what only a ledger server does: per-request metrics and the
   SIGUSR1 dump, the replication feed a [Subscribe] hands its session
   to, and a drain that ends with a commit-queue flush and a WAL fsync.

   Lifecycle:
     start  recover the database from --dir via Durable.open_dir, then
            bind (a distinct error for a port already in use)
     run    blocking accept loop until shutdown is requested
     request_shutdown / request_stats
            async-signal-safe: they only set atomics

   Failpoints [server.accept], [server.read] and [server.write] make
   torn connections injectable: an injected error tears just that
   connection; an injected crash kills the whole server, as a real
   process crash would, so `sqlledger recover` can then be exercised
   against whatever the WAL holds. *)

open Sql_ledger
module Frame = Wire.Frame
module Listener = Wire.Listener

let failpoints = Listener.failpoints "server"

type config = {
  host : string;
  port : int;
  dir : string;
  db_name : string;
  max_connections : int;
  max_frame : int;
  idle_timeout : float;  (** seconds between requests; 0 = unlimited *)
  request_timeout : float;  (** seconds for one whole frame; 0 = unlimited *)
  group_commit_window : float;
      (** seconds the commit leader lingers to coalesce concurrent
          auto-commit writers into one batched WAL append + fsync; 0 means
          no linger (the leader publishes whatever is queued at once) *)
  heartbeat_interval : float;
      (** seconds between replication heartbeats on an idle stream *)
  max_inflight : int;
      (** cap on requests in dispatch across all sessions; past it,
          requests that would start new write work are shed with the
          typed [overloaded] error. 0 = unlimited *)
  max_queue_depth : int;
      (** cap on staged commits waiting for the group-commit leader;
          same shedding behaviour. 0 = unlimited *)
  block_size : int option;
      (** ledger block capacity passed to {!Durable.open_dir} when the
          server creates the database; [None] = the library default.
          Small blocks close often, which is what receipt issuance and
          the audit daemon feed on *)
  signing_seed : string option;
      (** deterministic Lamport key-chain seed for block signatures;
          [None] = unsigned blocks *)
  auth_secret : string option;
      (** shared-secret contents for principal authentication; [None]
          refuses every principal claim (anonymous sessions still work) *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7878;
    dir = ".";
    db_name = "served";
    max_connections = 64;
    max_frame = Frame.default_max_frame;
    idle_timeout = 60.0;
    request_timeout = 30.0;
    group_commit_window = 0.0005;
    heartbeat_interval = 1.0;
    max_inflight = 0;
    max_queue_depth = 0;
    block_size = None;
    signing_seed = None;
    auth_secret = None;
  }

type t = {
  cfg : config;
  listener : Listener.t;
  durable : Durable.t option;  (* [None] on a replica read port *)
  repl_mgr : Repl.Manager.t option;  (* primary-side replication registry *)
  disp : Dispatch.t;
  metrics : Metrics.t;
  stats_requested : bool Atomic.t;
}

type start_error = Listener.start_error =
  | Port_in_use of string
  | Startup of string

let start_error_to_string = Listener.start_error_to_string

let port t = Listener.port t.listener
let metrics t = t.metrics
let durable t = t.durable

(* Replica apply path: republish the served read snapshot after a batch
   lands. Must be called while holding the node's writer lock. *)
let refresh_snapshot t = Dispatch.refresh_snapshot t.disp

let request_shutdown t = Listener.request_stop t.listener
let request_stats t = Atomic.set t.stats_requested true

let bind config =
  Listener.bind
    {
      Listener.failpoints;
      host = config.host;
      port = config.port;
      max_connections = config.max_connections;
      max_frame = config.max_frame;
      idle_timeout = config.idle_timeout;
      request_timeout = config.request_timeout;
    }

let make config listener ?durable ?repl_mgr disp_of =
  let metrics =
    Metrics.create ~connections:(fun () -> Listener.counts listener) ()
  in
  {
    cfg = config;
    listener;
    durable;
    repl_mgr;
    disp = disp_of metrics;
    metrics;
    stats_requested = Atomic.make false;
  }

let start ?(config = default_config) () =
  if Repl.Client.is_replica_dir config.dir then
    Error
      (Startup
         (Printf.sprintf
            "%s is a replica directory; run `sqlledger promote --dir %s` \
             before serving it as a primary"
            config.dir config.dir))
  else
    match
      Durable.open_dir ?block_size:config.block_size
        ?signing_seed:config.signing_seed ~dir:config.dir
        ~name:config.db_name ()
    with
    | Error e -> Error (Startup e)
    | Ok durable -> (
        match bind config with
        | Error e -> Error e
        | Ok listener ->
            let ledger () = Database.ledger (Durable.db durable) in
            (* The replication registry also feeds the §3.6 digest gate:
               digests only cover commits every known replica has acked,
               so a failover to any of them loses nothing a digest
               attests to. With no replica ever registered the gate is
               wide open (single-node deployments are unaffected). *)
            let repl_mgr =
              Repl.Manager.create
                ~last_lsn:(fun () ->
                  Aries.Wal.last_lsn (Database_ledger.wal (ledger ())))
                ~last_commit_ts:(fun () ->
                  Database_ledger.last_commit_ts (ledger ()))
            in
            let store =
              Trusted_store.Worm_store.create
                ~dir:(Filename.concat config.dir "worm")
                ()
            in
            let digests =
              Trusted_store.Digest_manager.create
                ~replicated_upto:(fun () ->
                  Repl.Manager.replicated_upto repl_mgr)
                ~store ()
            in
            Ok
              (make config listener ~durable ~repl_mgr (fun metrics ->
                   Metrics.register_lines metrics (fun () ->
                       Repl.Manager.lines repl_mgr);
                   Dispatch.create
                     ~group_commit_window:config.group_commit_window
                     ~max_inflight:config.max_inflight
                     ~max_queue_depth:config.max_queue_depth
                     ?auth_secret:config.auth_secret ~repl:repl_mgr ~digests
                     ~durable ~metrics ~server_name:"sqlledger/1.0" ())))

(* A read-only server over a replica's materialised database: same
   session runtime, [Dispatch.create_replica] personality, no durable
   directory of its own (the replication client owns the disk state).
   The [lock] is shared with the client's apply path. *)
let start_replica ?(config = default_config) ~primary ~get_db ~lock () =
  Result.map
    (fun listener ->
      make config listener (fun metrics ->
          Dispatch.create_replica ?auth_secret:config.auth_secret ~lock
            ~get_db ~primary ~metrics ~server_name:"sqlledger-replica/1.0" ()))
    (bind config)

(* ------------------------------------------------------------------ *)
(* Replication feed *)

(* How many WAL records ride in one stream frame. Bounds frame size and
   keeps the replica's durable-apply-ack cadence fine-grained while a
   backlog is draining. *)
let stream_chunk = 256

let rec split_chunk n acc = function
  | rest when n = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | r :: rest -> split_chunk (n - 1) (r :: acc) rest

(* After [Subscribe] is accepted the session thread becomes the feed for
   that replica: tail the WAL from the agreed position, ship batches,
   heartbeat when idle, and fold incoming acks into the manager (which
   the digest gate and the lag metrics read).

   The WAL is tailed *without* the engine lock: [Wal.records_from] walks
   an immutable snapshot of the record list, so the feed never stalls
   writers. The known race is benign in one direction and fatal in the
   other: a record can be shipped before the primary's own fsync
   completes, so after a primary crash a replica may be *ahead* — which
   the subscribe handler detects as divergence (§3.6's bounded loss
   window covers exactly the unshipped/unsynced tail). *)
let feed_replication t conn entry ~epoch ~from_lsn =
  match (t.repl_mgr, t.durable) with
  | Some mgr, Some durable ->
      let ledger = Database.ledger (Durable.db durable) in
      (* The WAL handle is re-fetched every iteration, never captured:
         a checkpoint/compaction swaps the ledger's [Wal.t]
         ([Database_ledger.attach_wal]), and tailing the old handle
         would silently stop delivering records while heartbeats keep
         reporting a stale position. *)
      let wal () = Database_ledger.wal ledger in
      let sent = ref from_lsn in
      let last_send = ref (Unix.gettimeofday ()) in
      let closing = ref false in
      (try
         while not !closing do
           if Listener.stopping t.listener then closing := true
           else if not (Repl.Manager.current mgr entry ~epoch) then
             (* A newer subscription for the same replica identity has
                taken the entry over: stand down without touching it. *)
             closing := true
           else begin
             (* Drain acks without blocking. *)
             while (not !closing) && Frame.poll conn 0.0 do
               match Frame.recv ~point:failpoints.read conn with
               | Frame.Frame payload -> (
                   match Repl.Stream.decode payload with
                   | Ok (Repl.Stream.Ack { last_lsn; replicated_upto }) ->
                       Repl.Manager.ack mgr entry ~last_lsn
                         ~upto:replicated_upto
                   | Ok _ | Error _ -> closing := true)
               | Frame.Eof | Frame.Junk _ | Frame.Truncated
               | Frame.Oversized _ ->
                   closing := true
             done;
             if not !closing then begin
               let w = wal () in
               (* Same servability test the subscribe handler runs: if
                  compaction truncated the log past this stream's
                  position, the missing records now live only in the
                  snapshot — tear the stream down so the replica
                  resubscribes (and is shipped a snapshot). *)
               let servable =
                 match Aries.Wal.first_available w with
                 | None -> !sent >= Aries.Wal.last_lsn w
                 | Some f -> !sent >= f - 1
               in
               if not servable then closing := true
               else
                 match Aries.Wal.records_from w !sent with
                 | [] ->
                     let now = Unix.gettimeofday () in
                     if now -. !last_send >= t.cfg.heartbeat_interval then begin
                       Frame.send ~point:failpoints.write conn
                         (Repl.Stream.encode_heartbeat ~last_lsn:!sent);
                       last_send := now
                     end
                     else
                       (* Idle pacing that doubles as an ack wait. *)
                       ignore (Frame.poll conn 0.05 : bool)
                 | records ->
                     let rec ship = function
                       | [] -> ()
                       | rs ->
                           let chunk, rest = split_chunk stream_chunk [] rs in
                           let payload = Repl.Stream.encode_batch chunk in
                           Frame.send ~point:failpoints.write conn payload;
                           Repl.Manager.add_bytes mgr entry
                             (String.length payload);
                           (match List.rev chunk with
                           | (l, _) :: _ -> sent := l
                           | [] -> ());
                           ship rest
                     in
                     ship records;
                     last_send := Unix.gettimeofday ()
             end
           end
         done
       with
      | Fault.Injected_error _ | Sys_error _ | Unix.Unix_error _ -> ()
      | Fault.Injected_crash _ as e -> Listener.crash t.listener e);
      Repl.Manager.disconnect mgr entry ~epoch
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Sessions *)

let handler t =
  {
    Listener.open_session = (fun sid -> Dispatch.new_session ~id:sid);
    handle =
      (fun session ~deadline ~map_epoch:_ req ->
        (* Shard-map routing stamps are a coordinator concern; a plain
           server (or shard primary reached directly) ignores them. *)
        Dispatch.handle t.disp session ?deadline req);
    hand_off =
      (fun _ (entry, epoch, from_lsn) conn ->
        match (conn, t.repl_mgr) with
        | Some conn, _ -> feed_replication t conn entry ~epoch ~from_lsn
        | None, Some mgr ->
            (* A subscriber registered but never saw the accept frame:
               mark it disconnected so the lag metrics tell the truth (it
               stays in the digest gate, as any known replica must). *)
            Repl.Manager.disconnect mgr entry ~epoch
        | None, None -> ());
    close_session = Dispatch.cleanup t.disp;
    observe =
      (fun req resp ~us ->
        Metrics.record t.metrics ~kind:(Wire.Protocol.request_kind req)
          ~error:(Wire.Protocol.response_is_error resp)
          ~us);
  }

let run ?(dump_metrics_to = stderr) t =
  Listener.serve t.listener (handler t)
    ~tick:(fun () ->
      if Atomic.exchange t.stats_requested false then
        Metrics.dump t.metrics dump_metrics_to)
    ~after_drain:(fun () ->
      (* The drain publishes any batch still queued; every publish is
         fsynced, so nothing else is left to sync. On a broken log it
         re-raises the log's failure, and [run] with it. (A replica read
         port owns no durable state: its log failure is always [None].) *)
      Fun.protect
        ~finally:(fun () -> Metrics.dump t.metrics dump_metrics_to)
        (fun () ->
          Dispatch.flush_queue t.disp;
          Option.iter raise (Dispatch.log_failure t.disp)))

(* Convenience for tests and bench: run in a background thread, stop it
   later with [shutdown]. *)
let run_async ?dump_metrics_to t =
  Thread.create
    (fun () ->
      try run ?dump_metrics_to t
      with e -> Listener.thread_failed "server" e)
    ()

let shutdown t th =
  request_shutdown t;
  Thread.join th
