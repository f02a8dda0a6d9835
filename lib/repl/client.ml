(* Replica-side subscription client: the daemon half of streaming
   replication.

   A replica directory mirrors a primary directory's layout —
   [snapshot.json] + [wal.jsonl] — plus a [replica.json] marker recording
   which primary it replicates and its stable replica identity. The
   marker is what keeps the roles honest: `sqlledger serve` refuses a
   marked directory (serving writes from a replica copy would fork
   history), and `sqlledger promote` is the only operation that removes
   it.

   The apply path is durable-then-ack: each received batch is appended to
   the local WAL copy and fsynced *before* the ack goes back, so an acked
   LSN survives a replica crash and the primary's §3.6 digest gate never
   trusts state the replica could lose. Applying to the in-memory replica
   and appending to the local log happen under the caller-provided
   [with_write] (the read-serving side's writer lock), so readers never
   observe a half-applied batch.

   Reconnection is capped exponential backoff; every successful
   subscription resets it. A subscription answered with [Snapshot_r]
   (the primary compacted or restarted past our position) installs the
   shipped snapshot wholesale, persists it, and restarts the local log at
   the snapshot's LSN. *)

open Sql_ledger
module Frame = Wire.Frame
module Protocol = Wire.Protocol

let point_apply = "repl.apply"
let point_ack = "repl.ack"

let () =
  Fault.register point_apply;
  Fault.register point_ack

(* Snapshot frames can dwarf the request/response default. *)
let stream_max_frame = 1 lsl 30

(* Whole-frame bound on every stream read. The primary heartbeats every
   couple of seconds, so 30 s of silence — or a frame started but never
   finished — means the link is dead or a middlebox is sitting on the
   bytes; tear down and let the backoff loop resubscribe instead of
   blocking forever (which would also wedge the daemon's shutdown join). *)
let stream_read_timeout = 30.0

let state_file = "replica.json"
let state_path dir = Filename.concat dir state_file
let is_replica_dir dir = Sys.file_exists (state_path dir)

type t = {
  c_host : string;
  c_port : int;
  c_dir : string;
  c_id : string;
  c_clock : unit -> float;
  c_replica : Replica.t;
  mutable c_wal : Aries.Wal.t;  (* local durable log copy *)
  c_stop : bool Atomic.t;
  backoff_min : float;
  backoff_max : float;
  (* Counters below are written by the run thread and read by metrics
     renderers; word-sized torn-free reads are all the latter needs. *)
  mutable c_connected : bool;
  mutable c_reconnects : int;
  mutable c_bytes : int;
  mutable c_last_error : string;
}

let id t = t.c_id
let dir t = t.c_dir
let primary t = Printf.sprintf "%s:%d" t.c_host t.c_port
let database t = Replica.database t.c_replica
let last_lsn t = Replica.last_lsn t.c_replica
let replicated_upto t = Replica.replicated_upto t.c_replica
let connected t = t.c_connected
let last_error t = t.c_last_error
let stop t = Atomic.set t.c_stop true
let stopped t = Atomic.get t.c_stop

(* The run thread died of [e]: say so where [stats] looks. *)
let failed t e =
  t.c_connected <- false;
  t.c_last_error <- Printexc.to_string e

let metric_lines t =
  [
    Printf.sprintf "sqlledger_repl_client_connected %d"
      (if t.c_connected then 1 else 0);
    Printf.sprintf "sqlledger_repl_client_last_lsn %d" (last_lsn t);
    Printf.sprintf "sqlledger_repl_client_replicated_upto %.6f"
      (replicated_upto t);
    Printf.sprintf "sqlledger_repl_client_bytes_received_total %d" t.c_bytes;
    Printf.sprintf "sqlledger_repl_client_reconnects_total %d" t.c_reconnects;
  ]
  @
  if t.c_last_error = "" then []
  else [ Printf.sprintf "sqlledger_repl_client_last_error{error=%S} 1" t.c_last_error ]

(* ------------------------------------------------------------------ *)
(* Directory state *)

let fresh_id dirname =
  Printf.sprintf "%s-%08lx"
    (Filename.basename dirname)
    (Fault.Crc32.string
       (Printf.sprintf "%s:%d:%.6f" dirname (Unix.getpid ())
          (Unix.gettimeofday ())))

let write_state ~dir ~primary ~id =
  let contents =
    Sjson.to_string ~pretty:true
      (Sjson.Obj
         [ ("replica_of", Sjson.String primary); ("id", Sjson.String id) ])
  in
  Out_channel.with_open_bin (state_path dir) (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.output_string oc "\n")

let read_state dir =
  match In_channel.with_open_bin (state_path dir) In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Sjson.of_string text with
      | exception Sjson.Parse_error e -> Error (state_path dir ^ ": " ^ e)
      | json -> (
          match
            (Sjson.member "replica_of" json, Sjson.member "id" json)
          with
          | Sjson.String p, Sjson.String i -> Ok (p, i)
          | _ -> Error (state_path dir ^ ": malformed replica state")))

(* Rebuild the in-memory replica from the directory's durable copy:
   newest usable snapshot generation (if any) plus the local log tail —
   the same recovery shape [Durable.open_dir] uses for a primary. *)
let build_replica ~clock ~dir records =
  let snap = Durable.snapshot_path dir in
  let min_lsn = match records with (l, _) :: _ -> Some l | [] -> None in
  let snapshot =
    List.find_map
      (fun path ->
        if not (Sys.file_exists path) then None
        else
          match Snapshot.read_file path with
          | Error _ -> None
          | Ok json -> (
              match min_lsn with
              | Some l when Snapshot.wal_lsn json < l - 1 -> None
              | _ -> Some json))
      [ snap; snap ^ ".tmp"; snap ^ ".prev" ]
  in
  match snapshot with
  | Some json -> (
      match Snapshot.load ~clock json with
      | Error e -> Error e
      | Ok db ->
          let rep =
            Replica.of_database ~clock ~last_lsn:(Snapshot.wal_lsn json) db
          in
          Result.map (fun () -> rep) (Replica.feed rep records))
  | None -> (
      match min_lsn with
      | Some l when l > 1 ->
          Error
            (Printf.sprintf
               "%s: local log starts at LSN %d with no usable snapshot \
                behind it"
               dir l)
      | _ ->
          let rep = Replica.create ~clock () in
          Result.map (fun () -> rep) (Replica.feed rep records))

let open_dir ?(clock = Unix.gettimeofday) ?(backoff_min = 0.1)
    ?(backoff_max = 5.0) ~primary_host ~primary_port ~dir () =
  let primary = Printf.sprintf "%s:%d" primary_host primary_port in
  Fault.Fsutil.mkdir_p dir;
  let wal_path = Durable.wal_path dir in
  let has_data =
    Sys.file_exists wal_path || Sys.file_exists (Durable.snapshot_path dir)
  in
  let ( let* ) = Result.bind in
  let* id =
    if is_replica_dir dir then
      let* recorded, id = read_state dir in
      if recorded <> primary then
        Error
          (Printf.sprintf "%s replicates %s, not %s" dir recorded primary)
      else Ok id
    else if has_data then
      Error
        (dir
       ^ ": looks like a primary data directory (no " ^ state_file
       ^ "); refusing to overwrite it with a replica")
    else begin
      let id = fresh_id dir in
      write_state ~dir ~primary ~id;
      Ok id
    end
  in
  let* records =
    if Sys.file_exists wal_path then
      match Aries.Wal.load_ex wal_path with
      | Error e -> Error e
      | Ok { Aries.Wal.l_records; l_clean } ->
          (* Cut a torn tail so reopening in append mode cannot write
             after garbage. *)
          if l_clean < (Unix.stat wal_path).Unix.st_size then
            Unix.truncate wal_path l_clean;
          Ok l_records
    else Ok []
  in
  let* replica = build_replica ~clock ~dir records in
  let wal =
    Aries.Wal.create ~path:wal_path ~append:true
      ~first_lsn:(Replica.last_lsn replica + 1) ()
  in
  Ok
    {
      c_host = primary_host;
      c_port = primary_port;
      c_dir = dir;
      c_id = id;
      c_clock = clock;
      c_replica = replica;
      c_wal = wal;
      c_stop = Atomic.make false;
      backoff_min;
      backoff_max;
      c_connected = false;
      c_reconnects = 0;
      c_bytes = 0;
      c_last_error = "";
    }

(* ------------------------------------------------------------------ *)
(* Streaming *)

let send_ack t conn =
  Fault.trip point_ack;
  Frame.send conn
    (Stream.encode_ack ~last_lsn:(last_lsn t)
       ~replicated_upto:(replicated_upto t))

(* Install a snapshot shipped by the primary: replace the in-memory
   replica, persist the snapshot (atomic, previous generation kept), and
   restart the local log at the snapshot's position. *)
let install_snapshot t ~with_write json ~last_lsn:snap_lsn =
  match Snapshot.load ~clock:t.c_clock json with
  | Error e -> Error ("shipped snapshot rejected: " ^ e)
  | Ok db ->
      with_write (fun () ->
          (* Durability and the WAL swap first; flipping the replica's
             [last_lsn] is the step a catch-up poller keys on, so it must
             come last — otherwise a reader that sees the new position
             can still be served the pre-install state for as long as the
             snapshot write to disk takes. *)
          Snapshot.save_to_file db ~path:(Durable.snapshot_path t.c_dir);
          Aries.Wal.close t.c_wal;
          t.c_wal <-
            Aries.Wal.create ~path:(Durable.wal_path t.c_dir)
              ~first_lsn:(snap_lsn + 1) ();
          Replica.install_snapshot t.c_replica db ~last_lsn:snap_lsn);
      Ok ()

type subscribe_outcome =
  | Stream_open of Frame.conn
  | Retry of string  (* transient: back off and reconnect *)
  | Fatal of string  (* divergence/misconfiguration: stop the daemon *)

let subscribe t ~with_write =
  match
    Wire.Client.connect
      ~client:(Printf.sprintf "replica:%s" t.c_id)
      ~host:t.c_host ~port:t.c_port ()
  with
  | Error (Wire.Client.Mismatch m) -> Fatal m
  | Error e -> Retry (Wire.Client.connect_error_to_string e)
  | Ok cl -> (
      let conn = cl.Wire.Client.conn in
      let fail outcome =
        Frame.close conn;
        outcome
      in
      match
        Frame.send conn
          (Protocol.encode_request ~id:1
             (Protocol.Subscribe
                { from_lsn = last_lsn t; replica_id = t.c_id }))
      with
      | exception (Sys_error _ | Unix.Unix_error _) ->
          fail (Retry "subscribe send failed")
      | () -> (
          match
            Frame.recv ~max_frame:stream_max_frame
              ~read_timeout:stream_read_timeout conn
          with
          | exception Unix.Unix_error (err, _, _) ->
              fail (Retry (Unix.error_message err))
          | Frame.Eof | Frame.Truncated ->
              fail (Retry "primary closed during subscribe")
          | Frame.Junk _ -> fail (Retry "stream desynchronised")
          | Frame.Oversized { size; limit } ->
              fail
                (Fatal
                   (Printf.sprintf "snapshot frame too large (%d > %d)" size
                      limit))
          | Frame.Frame payload -> (
              match Protocol.decode_response payload with
              | Error e -> fail (Retry ("malformed subscribe reply: " ^ e))
              | Ok (_, Protocol.Subscribed _) -> Stream_open conn
              | Ok (_, Protocol.Snapshot_r { snapshot; last_lsn }) -> (
                  match install_snapshot t ~with_write snapshot ~last_lsn with
                  | Ok () -> Stream_open conn
                  | Error e -> fail (Fatal e))
              | Ok
                  ( _,
                    Protocol.Error_r
                      {
                        code =
                          ( Protocol.Busy | Protocol.Shutting_down
                          | Protocol.Overloaded );
                        message;
                        _;
                      } ) ->
                  fail (Retry message)
              | Ok (_, Protocol.Error_r { message; _ }) -> fail (Fatal message)
              | Ok (_, _) -> fail (Retry "unexpected reply to subscribe"))))

(* A network that eats whole frames (half-duplex link failure, a chaos
   proxy's Drop) leaves a hole in the LSN sequence that [Replica.feed]
   would otherwise advance straight over — silent divergence. Refuse the
   batch instead and tear the connection: resubscribing from the
   persisted LSN redelivers the missing records. Records at or below the
   local WAL head are redelivery and exempt; the fresh suffix must start
   exactly one past the head and stay consecutive. *)
let check_contiguous t records =
  let last = Aries.Wal.last_lsn t.c_wal in
  let rec go expected = function
    | [] -> Ok ()
    | (lsn, _) :: rest when lsn <= last && expected = None -> go None rest
    | (lsn, _) :: rest ->
        let want = match expected with None -> last + 1 | Some e -> e in
        if lsn = want then go (Some (lsn + 1)) rest
        else
          Error
            (Printf.sprintf "stream gap: expected lsn %d, got %d" want lsn)
  in
  go None records

(* Apply one batch: local WAL first (durable), then the in-memory
   replica, then ack. The records past the local log's head go out as one
   frame under one fsync; [check_contiguous] has made them continue the
   local numbering, so they keep their primary LSNs. Records the replica
   already holds are skipped by [Replica.feed], so redelivery after a
   reconnect is harmless. *)
let apply_batch t ~with_write records payload_bytes =
  Fault.trip point_apply;
  let result = ref (Ok ()) in
  with_write (fun () ->
      let head = Aries.Wal.last_lsn t.c_wal in
      ignore
        (Aries.Wal.append_batch t.c_wal
           (List.filter_map
              (fun (lsn, r) -> if lsn > head then Some r else None)
              records)
          : Aries.Wal.lsn list);
      result := Replica.feed t.c_replica records);
  match !result with
  | Error e -> Error ("replication apply failed: " ^ e)
  | Ok () ->
      t.c_bytes <- t.c_bytes + payload_bytes;
      Ok ()

(* Pump the stream until the connection tears, the daemon is stopped, or
   the apply path fails (fatal: the replica's history no longer lines up
   with the primary's). *)
let stream_loop t conn ~with_write =
  let fatal = ref None in
  let closing = ref false in
  (* An ack lost to a dying connection (EPIPE with SIGPIPE ignored, the
     primary crashing between delivering a frame and our reply) is a
     teardown, not a daemon-killing failure: note it and let the backoff
     loop resubscribe. Injected faults ([repl.ack]) keep propagating —
     they model a replica crash, which [run] turns into a stop. *)
  let ack () =
    try send_ack t conn
    with Sys_error _ | Unix.Unix_error _ -> closing := true
  in
  while not (!closing || Atomic.get t.c_stop) do
    if Frame.poll conn 0.2 then
      match
        Frame.recv ~max_frame:stream_max_frame
          ~read_timeout:stream_read_timeout conn
      with
      | Frame.Frame payload -> (
          match Stream.decode payload with
          | Ok (Stream.Batch { records }) -> (
              match check_contiguous t records with
              | Error e ->
                  (* A hole means the wire lost frames, not that our
                     history diverged: tear and resubscribe from the
                     persisted LSN, which redelivers the gap. *)
                  t.c_last_error <- e;
                  closing := true
              | Ok () -> (
                  match
                    apply_batch t ~with_write records (String.length payload)
                  with
                  | Ok () -> ack ()
                  | Error e ->
                      fatal := Some e;
                      closing := true))
          | Ok (Stream.Heartbeat { last_lsn = shipped }) ->
              (* The heartbeat carries the primary's shipped high-water
                 mark for THIS connection, and TCP delivers in order: a
                 heartbeat above our applied LSN proves batch frames
                 sent before it were eaten by the wire — the connection
                 itself is alive, so only resubscribing (from the
                 persisted LSN) gets them redelivered. Without this
                 check a lossy-but-unbroken link parks the replica
                 behind the primary forever, acking an LSN it will
                 never advance. *)
              if shipped > last_lsn t then begin
                t.c_last_error <-
                  Printf.sprintf
                    "stream lost records: primary shipped to %d, applied %d"
                    shipped (last_lsn t);
                closing := true
              end
              else ack ()
          | Ok (Stream.Ack _) -> ()  (* not ours to receive; ignore *)
          | Error e ->
              (* Corruption the CRC exists to catch is a network fault,
                 not divergence: reconnect and take redelivery rather
                 than killing the daemon. *)
              t.c_last_error <- "bad stream frame: " ^ e;
              closing := true)
      | Frame.Eof | Frame.Truncated | Frame.Junk _ | Frame.Oversized _ ->
          closing := true
      | exception (Sys_error _ | Unix.Unix_error _) -> closing := true
  done;
  !fatal

(* Interruptible sleep: honour [stop] promptly even mid-backoff. *)
let rec snooze t seconds =
  if seconds > 0. && not (Atomic.get t.c_stop) then begin
    Thread.delay (Float.min 0.1 seconds);
    snooze t (seconds -. 0.1)
  end

(* Reconnect delay as a pure function of (seed, attempt): full jitter
   over the capped-exponential ceiling min(max, min * 2^attempt). Two
   replicas orphaned by the same primary crash share the attempt number
   but not the seed, so their resubscribe storms spread out instead of
   landing on the recovering primary in lock-step — and a test can prove
   it without clocks, by comparing the two schedules directly. The hash
   is splitmix64 of seed + attempt. *)
let backoff_delay ~seed ~attempt ~backoff_min ~backoff_max =
  let open Int64 in
  let z =
    add (of_int seed) (mul (of_int (attempt + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  let u = Int64.to_float (shift_right_logical z 11) /. 9007199254740992.0 in
  let cap =
    Float.min backoff_max (backoff_min *. (2. ** float_of_int attempt))
  in
  u *. cap

(* The daemon loop: subscribe, stream, reconnect with jittered capped
   exponential backoff across primary restarts (seeded by the replica's
   stable identity, so each replica follows its own schedule). Injected
   faults ([repl.apply] / [repl.ack]) behave like a replica crash: the
   loop stops with the durable directory left behind for a restart to
   resume from. *)
let run t ~with_write =
  let seed = Int32.to_int (Fault.Crc32.string t.c_id) in
  let attempt = ref 0 in
  let first = ref true in
  while not (Atomic.get t.c_stop) do
    if not !first then begin
      t.c_reconnects <- t.c_reconnects + 1;
      snooze t
        (backoff_delay ~seed ~attempt:!attempt ~backoff_min:t.backoff_min
           ~backoff_max:t.backoff_max);
      if !attempt < 62 then incr attempt
    end;
    first := false;
    if not (Atomic.get t.c_stop) then begin
      match subscribe t ~with_write with
      | Retry e -> t.c_last_error <- e
      | Fatal e ->
          t.c_last_error <- e;
          Atomic.set t.c_stop true
      | Stream_open conn ->
          t.c_connected <- true;
          attempt := 0;
          let fatal =
            try stream_loop t conn ~with_write with
            | Fault.Injected_error _ | Fault.Injected_crash _ ->
                Atomic.set t.c_stop true;
                Some "injected replica crash"
            | e ->
                (* Catch-all: an unexpected exception must not kill the
                   daemon silently with [c_connected] stuck true — record
                   it and fall back to the reconnect/backoff path. *)
                t.c_last_error <- Printexc.to_string e;
                None
          in
          t.c_connected <- false;
          Frame.close conn;
          (match fatal with
          | Some e ->
              t.c_last_error <- e;
              Atomic.set t.c_stop true
          | None -> ())
    end
  done;
  t.c_connected <- false

let close t = Aries.Wal.close t.c_wal

(* ------------------------------------------------------------------ *)
(* Failover *)

(* Turn a replica directory into a servable primary: recover it exactly
   as a primary would (snapshot + local log tail — [Durable.open_dir]
   re-homes the state and restarts the log), then drop the replica
   marker. The marker is removed only after recovery succeeds, so a
   promotion interrupted by a crash is simply retried. Everything the
   replica acked is durable here; what is lost is the primary's unshipped
   tail — the §3.6 loss window the digest gate exists to bound. *)
let promote_dir ?clock ~dir () =
  if not (is_replica_dir dir) then
    Error (dir ^ ": not a replica directory (no " ^ state_file ^ ")")
  else
    match
      Durable.open_dir ?clock ~dir ~name:(Filename.basename dir) ()
    with
    | Error e -> Error e
    | Ok durable ->
        Database.refresh_counters (Durable.db durable);
        (try Sys.remove (state_path dir) with Sys_error _ -> ());
        Ok durable
