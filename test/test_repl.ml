(* Networked streaming replication (§3.6 over the wire): WAL tail
   cursors, the stream codec, the primary-side registry, and full
   primary/replica/promotion round trips over real localhost TCP.

   The heavyweight tests drive the same binaries' code paths the CLI
   uses: a primary [Server] plus a [Replica_node] (replication client +
   read-only server sharing one lock), loaded concurrently, then checked
   differentially — byte-identical snapshots, identical verification
   results through both ports, typed read_only/replication_lag errors,
   crash-resume from the persisted position, and promotion that retains
   every digested transaction. *)

module Server = Ledger_server.Server
module Node = Ledger_server.Replica_node
module Client = Wire.Client
module Protocol = Wire.Protocol
module LR = Aries.Log_record
open Sql_ledger

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_dir "sqlledger-repl" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let await ?(timeout = 15.0) ~what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Wal.Tail *)

let test_tail_cursor () =
  let path = Filename.temp_file "tail" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let w = Aries.Wal.create ~path () in
  for i = 1 to 5 do
    ignore (Aries.Wal.append w (LR.Begin { txn_id = i }) : int)
  done;
  Aries.Wal.sync w;
  let c = Aries.Wal.Tail.create path in
  (match Aries.Wal.Tail.poll c with
  | Ok records ->
      Alcotest.(check (list int)) "first poll sees everything" [ 1; 2; 3; 4; 5 ]
        (List.map fst records)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "position tracks" 5 (Aries.Wal.Tail.position c);
  (* Nothing new: empty, cheaply. *)
  (match Aries.Wal.Tail.poll c with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "second poll must be empty"
  | Error e -> Alcotest.fail e);
  for i = 6 to 8 do
    ignore (Aries.Wal.append w (LR.Begin { txn_id = i }) : int)
  done;
  Aries.Wal.sync w;
  (match Aries.Wal.Tail.poll c with
  | Ok records ->
      Alcotest.(check (list int)) "only the new tail" [ 6; 7; 8 ]
        (List.map fst records)
  | Error e -> Alcotest.fail e);
  Aries.Wal.close w;
  (* Half a frame (an unterminated line) is left for the next poll... *)
  let frame =
    let body = "9 " ^ LR.to_line (LR.Begin { txn_id = 9 }) in
    Printf.sprintf "#%08lx %d %s\n" (Fault.Crc32.string body)
      (String.length body) body
  in
  let half = String.length frame / 2 in
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc (String.sub frame 0 half);
  flush oc;
  (match Aries.Wal.Tail.poll c with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "torn tail must not be consumed"
  | Error e -> Alcotest.fail ("torn tail must not error: " ^ e));
  (* ...and consumed once the writer completes it. *)
  output_string oc (String.sub frame half (String.length frame - half));
  close_out oc;
  (match Aries.Wal.Tail.poll c with
  | Ok [ (9, LR.Begin { txn_id = 9 }) ] -> ()
  | Ok _ -> Alcotest.fail "completed line should yield LSN 9"
  | Error e -> Alcotest.fail e);
  (* A shrinking file means the log was replaced under us: error out
     rather than serving records from an unrelated history. *)
  Unix.truncate path 10;
  match Aries.Wal.Tail.poll c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrunk file must error"

let test_tail_resume_after () =
  let path = Filename.temp_file "tail" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let w = Aries.Wal.create ~path () in
  for i = 1 to 6 do
    ignore (Aries.Wal.append w (LR.Begin { txn_id = i }) : int)
  done;
  Aries.Wal.sync w;
  Aries.Wal.close w;
  let c = Aries.Wal.Tail.create ~after:4 path in
  match Aries.Wal.Tail.poll c with
  | Ok records ->
      Alcotest.(check (list int)) "records after the resume point" [ 5; 6 ]
        (List.map fst records)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Stream codec *)

let test_stream_codec () =
  let records =
    [ (4, LR.Begin { txn_id = 2 }); (5, LR.Abort { txn_id = 2 }) ]
  in
  (match Repl.Stream.decode (Repl.Stream.encode_batch records) with
  | Ok (Repl.Stream.Batch { records = got }) ->
      Alcotest.(check (list int)) "lsns survive" [ 4; 5 ] (List.map fst got)
  | Ok _ -> Alcotest.fail "batch decoded as something else"
  | Error e -> Alcotest.fail e);
  (* Corrupting the checksum must reject the whole batch. *)
  let good_crc =
    Printf.sprintf "%08lx"
      (Repl.Stream.batch_crc
         (List.map
            (fun (lsn, r) -> (lsn, Sjson.to_string (LR.to_json r)))
            records))
  in
  let bad_crc = if good_crc = "00000000" then "00000001" else "00000000" in
  let encoded = Repl.Stream.encode_batch records in
  let tampered =
    let b = Buffer.create (String.length encoded) in
    let i = ref 0 and n = String.length encoded in
    while !i < n do
      if
        !i + 8 <= n
        && String.sub encoded !i 8 = good_crc
      then begin
        Buffer.add_string b bad_crc;
        i := !i + 8
      end
      else begin
        Buffer.add_char b encoded.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  (match Repl.Stream.decode tampered with
  | Error e ->
      Alcotest.(check bool) "checksum error" true (contains e "checksum")
  | Ok _ -> Alcotest.fail "tampered batch must not decode");
  (match Repl.Stream.decode (Repl.Stream.encode_heartbeat ~last_lsn:42) with
  | Ok (Repl.Stream.Heartbeat { last_lsn = 42 }) -> ()
  | _ -> Alcotest.fail "heartbeat roundtrip");
  match
    Repl.Stream.decode
      (Repl.Stream.encode_ack ~last_lsn:7 ~replicated_upto:123.5)
  with
  | Ok (Repl.Stream.Ack { last_lsn = 7; replicated_upto = 123.5 }) -> ()
  | _ -> Alcotest.fail "ack roundtrip"

(* ------------------------------------------------------------------ *)
(* Manager registry *)

let test_manager_gate () =
  let primary_lsn = ref 10 and primary_ts = ref 100.0 in
  let m =
    Repl.Manager.create
      ~last_lsn:(fun () -> !primary_lsn)
      ~last_commit_ts:(fun () -> !primary_ts)
  in
  Alcotest.(check bool) "no replicas: gate wide open" true
    (Repl.Manager.replicated_upto m = infinity);
  let a, _ = Repl.Manager.register m ~id:"a" ~peer:"s1" ~from_lsn:0 in
  Alcotest.(check bool) "registered but silent: gate shut" true
    (Repl.Manager.replicated_upto m = 0.0);
  Repl.Manager.ack m a ~last_lsn:10 ~upto:100.0;
  Alcotest.(check bool) "acked: gate at the ack" true
    (Repl.Manager.replicated_upto m = 100.0);
  (* A second, lagging replica drags the minimum down. *)
  let b, b_epoch = Repl.Manager.register m ~id:"b" ~peer:"s2" ~from_lsn:0 in
  Repl.Manager.ack m b ~last_lsn:4 ~upto:40.0;
  Alcotest.(check bool) "min over replicas" true
    (Repl.Manager.replicated_upto m = 40.0);
  (* Disconnection must NOT drop a replica out of the gate. *)
  Repl.Manager.disconnect m b ~epoch:b_epoch;
  Alcotest.(check bool) "disconnected stays in the min" true
    (Repl.Manager.replicated_upto m = 40.0);
  Alcotest.(check int) "known" 2 (Repl.Manager.replica_count m);
  Alcotest.(check int) "connected" 1 (Repl.Manager.connected_count m);
  (* Reconnect reuses the entry and bumps the connect counter. *)
  let b', b'_epoch = Repl.Manager.register m ~id:"b" ~peer:"s3" ~from_lsn:4 in
  Alcotest.(check bool) "same entry reused" true (b == b');
  Alcotest.(check bool) "re-registration bumps the epoch" true
    (b'_epoch > b_epoch);
  (* The superseded feeder's epoch is no longer current, and its exit
     must not mark the live session disconnected. *)
  Alcotest.(check bool) "old epoch superseded" false
    (Repl.Manager.current m b ~epoch:b_epoch);
  Alcotest.(check bool) "new epoch current" true
    (Repl.Manager.current m b' ~epoch:b'_epoch);
  Repl.Manager.disconnect m b ~epoch:b_epoch;
  Alcotest.(check int) "stale disconnect ignored" 2
    (Repl.Manager.connected_count m);
  Alcotest.(check int) "still two known" 2 (Repl.Manager.replica_count m);
  (* Acks are monotonic: a stale ack cannot move the gate backwards. *)
  Repl.Manager.ack m b ~last_lsn:2 ~upto:20.0;
  Alcotest.(check bool) "stale ack ignored" true
    (Repl.Manager.replicated_upto m = 40.0)

(* ------------------------------------------------------------------ *)
(* Wire fixtures *)

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error e -> Alcotest.fail (Client.connect_error_to_string e)

let call client req =
  match Client.call client req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail ("transport error: " ^ e)

let expect_ok what = function
  | Protocol.Error_r { message; _ } -> Alcotest.fail (what ^ ": " ^ message)
  | _ -> ()

let create_accounts client =
  expect_ok "create"
    (call client
       (Protocol.Create_table
          {
            name = "accounts";
            columns = [ ("name", "varchar(40)"); ("balance", "int") ];
            key = [ "name" ]; ledger = true
          }))

let insert client name balance =
  call client
    (Protocol.Exec
       {
         sql =
           Printf.sprintf "INSERT INTO accounts VALUES ('%s', %d)" name
             balance;
       })

let select_all client =
  match
    call client
      (Protocol.Query { sql = "SELECT * FROM accounts ORDER BY name" })
  with
  | Protocol.Rows_r { rows; _ } -> rows
  | resp -> Alcotest.fail ("select returned " ^ Protocol.response_kind resp)

let with_primary ?(tweak = fun c -> c) f =
  with_tmp_dir (fun dir ->
      let config = tweak { Server.default_config with port = 0; dir } in
      let srv =
        match Server.start ~config () with
        | Ok s -> s
        | Error e -> Alcotest.fail (Server.start_error_to_string e)
      in
      let th = Server.run_async srv in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv th)
        (fun () -> f ~dir ~port:(Server.port srv) srv))

let start_node ~dir ~primary_port =
  let config = { Server.default_config with port = 0; dir } in
  match Node.start ~config ~primary_host:"127.0.0.1" ~primary_port () with
  | Ok node -> (node, Node.run_async node)
  | Error e -> Alcotest.fail (Server.start_error_to_string e)

let primary_db srv = Durable.db (Option.get (Server.durable srv))

let primary_lsn srv =
  Aries.Wal.last_lsn (Database_ledger.wal (Database.ledger (primary_db srv)))

let await_caught_up ?timeout srv node =
  await ?timeout ~what:"replica catch-up" (fun () ->
      Repl.Client.last_lsn (Node.client node) = primary_lsn srv)

(* Digest with the gate's transient outcomes retried: over the wire a
   deferral is a typed error, and an immediate digest after a commit can
   legitimately race the replica's ack. *)
let rec digest_retry ?(attempts = 200) c =
  match call c Protocol.Digest with
  | Protocol.Digest_r json -> json
  | Protocol.Error_r
      { code = Protocol.Replication_lag | Protocol.Replication_stuck; _ }
    when attempts > 0 ->
      Thread.delay 0.05;
      digest_retry ~attempts:(attempts - 1) c
  | r -> Alcotest.fail ("digest returned " ^ Protocol.response_kind r)

let digest_of_json json =
  match Digest.of_json json with
  | Ok d -> d
  | Error e -> Alcotest.fail ("bad digest json: " ^ e)

(* ------------------------------------------------------------------ *)
(* End-to-end differential *)

let test_e2e_differential () =
  with_primary (fun ~dir:_ ~port srv ->
      with_tmp_dir (fun rep_dir ->
          let node, nth = start_node ~dir:rep_dir ~primary_port:port in
          let c = connect port in
          create_accounts c;
          (* Concurrent writers racing the stream. *)
          let writers =
            List.init 4 (fun w ->
                Thread.create
                  (fun () ->
                    let wc = connect port in
                    for i = 0 to 24 do
                      expect_ok "insert"
                        (insert wc (Printf.sprintf "w%d-%03d" w i) i)
                    done;
                    Client.close wc)
                  ())
          in
          List.iter Thread.join writers;
          await_caught_up srv node;
          (* Same rows through both ports. *)
          let rc = connect (Node.port node) in
          Alcotest.(check int) "100 rows on the primary" 100
            (List.length (select_all c));
          Alcotest.(check bool) "identical rows through both ports" true
            (select_all c = select_all rc);
          (* Byte-identical materialised state. *)
          let prim_snap = Sjson.to_string (Snapshot.save (primary_db srv)) in
          let rep_snap =
            Sjson.to_string
              (Snapshot.save
                 (Option.get (Repl.Client.database (Node.client node))))
          in
          Alcotest.(check bool) "byte-identical snapshots" true
            (prim_snap = rep_snap);
          (* A digest issued by the primary verifies on the replica, over
             the wire, with identical results. *)
          let dj = digest_retry c in
          await_caught_up srv node;
          let check_verify who client =
            match
              call client (Protocol.Verify { tables = []; digests = [ dj ] })
            with
            | Protocol.Verify_r v ->
                Alcotest.(check bool) (who ^ " verification ok") true
                  v.Protocol.vs_ok;
                (v.Protocol.vs_blocks, v.Protocol.vs_transactions,
                 v.Protocol.vs_versions)
            | r ->
                Alcotest.fail
                  (who ^ " verify returned " ^ Protocol.response_kind r)
          in
          Alcotest.(check bool) "identical verification on both ports" true
            (check_verify "primary" c = check_verify "replica" rc);
          (* Writes are refused with the typed error naming the primary. *)
          (match insert rc "nope" 1 with
          | Protocol.Error_r { code = Protocol.Read_only; message; _ } ->
              Alcotest.(check bool) "error names the primary" true
                (contains message (Printf.sprintf "127.0.0.1:%d" port))
          | r ->
              Alcotest.fail ("replica write returned " ^ Protocol.response_kind r));
          (match call rc (Protocol.Checkpoint) with
          | Protocol.Error_r { code = Protocol.Read_only; _ } -> ()
          | r ->
              Alcotest.fail
                ("replica checkpoint returned " ^ Protocol.response_kind r));
          (* Replication metrics visible through Stats on both sides. *)
          (match call c Protocol.Stats with
          | Protocol.Stats_r lines ->
              let has prefix =
                List.exists
                  (fun l ->
                    String.length l >= String.length prefix
                    && String.sub l 0 (String.length prefix) = prefix)
                  lines
              in
              Alcotest.(check bool) "primary exports replica lag lines" true
                (has "sqlledger_replicas_known 1"
                && has "sqlledger_replica_lag_records");
          | r -> Alcotest.fail ("stats returned " ^ Protocol.response_kind r));
          (match call rc Protocol.Stats with
          | Protocol.Stats_r lines ->
              Alcotest.(check bool) "replica exports client lines" true
                (List.exists
                   (fun l -> l = "sqlledger_repl_client_connected 1")
                   lines)
          | r -> Alcotest.fail ("stats returned " ^ Protocol.response_kind r));
          Client.close c;
          Client.close rc;
          Node.shutdown node nth))

(* ------------------------------------------------------------------ *)
(* Compaction under a live stream *)

(* Compacting the primary swaps the ledger's WAL handle
   ([Database_ledger.attach_wal]); the feed loop must pick up the new
   handle rather than tailing the dead one forever — records committed
   after the compaction still have to reach the replica. *)
let test_stream_survives_compaction () =
  with_primary (fun ~dir:_ ~port srv ->
      with_tmp_dir (fun rep_dir ->
          let node, nth = start_node ~dir:rep_dir ~primary_port:port in
          let c = connect port in
          create_accounts c;
          for i = 0 to 9 do
            expect_ok "insert" (insert c (Printf.sprintf "pre-%02d" i) i)
          done;
          await_caught_up srv node;
          (* Quiescent: no writers in flight, so compacting outside the
             engine lock is race-free here. The handle swap is what the
             stream has to survive. *)
          Durable.compact (Option.get (Server.durable srv));
          for i = 0 to 9 do
            expect_ok "insert" (insert c (Printf.sprintf "post-%02d" i) i)
          done;
          await_caught_up srv node;
          let rc = connect (Node.port node) in
          Alcotest.(check int) "all rows on the primary" 20
            (List.length (select_all c));
          Alcotest.(check bool) "replica converged across compaction" true
            (select_all c = select_all rc);
          (* And the gate still sees the replica's acks: a digest must be
             issuable, not stuck deferring on a stale LSN. *)
          ignore (digest_retry c : Sjson.t);
          Client.close c;
          Client.close rc;
          Node.shutdown node nth))

(* ------------------------------------------------------------------ *)
(* The digest gate over the wire *)

let test_lag_gate_over_wire () =
  with_primary (fun ~dir:_ ~port srv ->
      with_tmp_dir (fun rep_dir ->
          let node, nth = start_node ~dir:rep_dir ~primary_port:port in
          let c = connect port in
          create_accounts c;
          expect_ok "insert" (insert c "alice" 1);
          await_caught_up srv node;
          ignore (digest_retry c : Sjson.t);
          (* Stop the replica, then commit: the gate must defer. *)
          Node.shutdown node nth;
          expect_ok "insert" (insert c "bob" 2);
          let expect_code what code =
            match call c Protocol.Digest with
            | Protocol.Error_r { code = got; _ } when got = code -> ()
            | Protocol.Error_r { code = got; message; _ } ->
                Alcotest.fail
                  (Printf.sprintf "%s: got %s (%s)" what
                     (Protocol.error_code_to_string got)
                     message)
            | r -> Alcotest.fail (what ^ ": got " ^ Protocol.response_kind r)
          in
          for _ = 1 to 4 do
            expect_code "deferred while replica down" Protocol.Replication_lag
          done;
          expect_code "escalates to stuck" Protocol.Replication_stuck;
          (* The primary's metrics show the known-but-disconnected
             replica. *)
          (match call c Protocol.Stats with
          | Protocol.Stats_r lines ->
              Alcotest.(check bool) "known 1, connected 0" true
                (List.mem "sqlledger_replicas_known 1" lines
                && List.mem "sqlledger_replicas_connected 0" lines)
          | r -> Alcotest.fail ("stats returned " ^ Protocol.response_kind r));
          (* Restarting the replica against the same directory resumes
             from its persisted position and reopens the gate. *)
          let node2, nth2 = start_node ~dir:rep_dir ~primary_port:port in
          await_caught_up srv node2;
          ignore (digest_retry c : Sjson.t);
          Alcotest.(check int) "both rows on the replica" 2
            (let rc = connect (Node.port node2) in
             let n = List.length (select_all rc) in
             Client.close rc;
             n);
          Client.close c;
          Node.shutdown node2 nth2))

(* ------------------------------------------------------------------ *)
(* Crash/restart: resume from the persisted LSN *)

let run_raw_client client =
  Thread.create
    (fun () -> try Repl.Client.run client ~with_write:(fun f -> f ()) with _ -> ())
    ()

let test_crash_restart_failpoints () =
  with_primary (fun ~dir:_ ~port srv ->
      with_tmp_dir (fun rep_dir ->
          let c = connect port in
          create_accounts c;
          expect_ok "insert" (insert c "a" 1);
          (* First incarnation: sync fully, then crash on the next apply. *)
          let cl1 =
            match
              Repl.Client.open_dir ~primary_host:"127.0.0.1" ~primary_port:port
                ~dir:rep_dir ()
            with
            | Ok cl -> cl
            | Error e -> Alcotest.fail e
          in
          let th1 = run_raw_client cl1 in
          await ~what:"first sync" (fun () ->
              Repl.Client.last_lsn cl1 = primary_lsn srv);
          let persisted = Repl.Client.last_lsn cl1 in
          Fault.set "repl.apply" Fault.Fail;
          expect_ok "insert" (insert c "b" 2);
          await ~what:"injected apply crash" (fun () ->
              Repl.Client.stopped cl1);
          Thread.join th1;
          Repl.Client.close cl1;
          Alcotest.(check string) "crash is recorded" "injected replica crash"
            (Repl.Client.last_error cl1);
          (* Restart against the durable directory: the new incarnation
             resumes from the persisted LSN (nothing lost, nothing
             re-fetched from zero) and catches up. *)
          let cl2 =
            match
              Repl.Client.open_dir ~primary_host:"127.0.0.1" ~primary_port:port
                ~dir:rep_dir ()
            with
            | Ok cl -> cl
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int) "resumes from the persisted LSN" persisted
            (Repl.Client.last_lsn cl2);
          Alcotest.(check string) "stable replica identity"
            (Repl.Client.id cl1) (Repl.Client.id cl2);
          let th2 = run_raw_client cl2 in
          await ~what:"second sync" (fun () ->
              Repl.Client.last_lsn cl2 = primary_lsn srv);
          (* Ack-path crash: the batch is already durable locally, so the
             third incarnation starts past it. *)
          Fault.set "repl.ack" Fault.Fail;
          expect_ok "insert" (insert c "c" 3);
          await ~what:"injected ack crash" (fun () -> Repl.Client.stopped cl2);
          Thread.join th2;
          let after_ack_crash = Repl.Client.last_lsn cl2 in
          Repl.Client.close cl2;
          Alcotest.(check bool) "ack crash happens after durable apply" true
            (after_ack_crash > persisted);
          let cl3 =
            match
              Repl.Client.open_dir ~primary_host:"127.0.0.1" ~primary_port:port
                ~dir:rep_dir ()
            with
            | Ok cl -> cl
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int) "durable batch survived the ack crash"
            after_ack_crash
            (Repl.Client.last_lsn cl3);
          let th3 = run_raw_client cl3 in
          await ~what:"third sync" (fun () ->
              Repl.Client.last_lsn cl3 = primary_lsn srv);
          (* Contents identical to the primary after all that. *)
          let prim = Sjson.to_string (Snapshot.save (primary_db srv)) in
          let rep =
            Sjson.to_string
              (Snapshot.save (Option.get (Repl.Client.database cl3)))
          in
          Alcotest.(check bool) "contents identical after crashes" true
            (prim = rep);
          Repl.Client.stop cl3;
          Thread.join th3;
          Repl.Client.close cl3;
          Client.close c))

(* A crash tore the replica's last append: its log ends in half a frame.
   Reopening cuts the file back to its clean prefix, and the next batch
   the replica applies lands right after that prefix. *)
let test_torn_tail_reopen () =
  with_primary (fun ~dir:_ ~port srv ->
      with_tmp_dir (fun rep_dir ->
          let c = connect port in
          create_accounts c;
          expect_ok "insert" (insert c "a" 1);
          let open_client () =
            match
              Repl.Client.open_dir ~primary_host:"127.0.0.1" ~primary_port:port
                ~dir:rep_dir ()
            with
            | Ok cl -> cl
            | Error e -> Alcotest.fail e
          in
          let sync what cl =
            let th = run_raw_client cl in
            await ~what (fun () -> Repl.Client.last_lsn cl = primary_lsn srv);
            Repl.Client.stop cl;
            Thread.join th;
            Repl.Client.close cl
          in
          let cl1 = open_client () in
          sync "first sync" cl1;
          let persisted = Repl.Client.last_lsn cl1 in
          let wal = Durable.wal_path rep_dir in
          let read () = In_channel.with_open_bin wal In_channel.input_all in
          let clean = read () in
          let frame =
            let body = "999 " ^ LR.to_line (LR.Begin { txn_id = 999 }) in
            Printf.sprintf "#%08lx %d %s\n" (Fault.Crc32.string body)
              (String.length body) body
          in
          Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
            wal (fun oc -> output_string oc (String.sub frame 0 (String.length frame / 2)));
          let cl2 = open_client () in
          Alcotest.(check string) "the log is its clean prefix" clean (read ());
          Alcotest.(check int) "resumes from the persisted LSN" persisted
            (Repl.Client.last_lsn cl2);
          expect_ok "insert" (insert c "b" 2);
          sync "second sync" cl2;
          let after = read () in
          Alcotest.(check bool) "the next batch follows the clean prefix" true
            (String.length after > String.length clean
            && String.sub after 0 (String.length clean) = clean);
          (match Aries.Wal.load_ex wal with
          | Ok l ->
              Alcotest.(check int) "every byte clean" (String.length after)
                l.Aries.Wal.l_clean;
              Alcotest.(check int) "up to the primary" (primary_lsn srv)
                (fst (List.nth l.Aries.Wal.l_records (List.length l.Aries.Wal.l_records - 1)))
          | Error e -> Alcotest.fail e);
          Client.close c))

(* ------------------------------------------------------------------ *)
(* Promotion *)

let test_promotion_differential () =
  with_tmp_dir (fun rep_dir ->
      let digests = ref [] in
      let rows = ref [] in
      with_primary (fun ~dir:_ ~port srv ->
          let node, nth = start_node ~dir:rep_dir ~primary_port:port in
          let c = connect port in
          create_accounts c;
          for i = 1 to 12 do
            expect_ok "insert" (insert c (Printf.sprintf "acct-%02d" i) i)
          done;
          await_caught_up srv node;
          let d1 = digest_retry c in
          for i = 13 to 20 do
            expect_ok "insert" (insert c (Printf.sprintf "acct-%02d" i) i)
          done;
          await_caught_up srv node;
          let d2 = digest_retry c in
          (* Wait for the digest's own block-close record to ship too, so
             the replica holds everything the digests reference. *)
          await_caught_up srv node;
          digests := [ digest_of_json d1; digest_of_json d2 ];
          rows := select_all c;
          (* Serving the replica directory as a primary must be refused
             while it is still marked. *)
          (match
             Server.start
               ~config:{ Server.default_config with port = 0; dir = rep_dir }
               ()
           with
          | Error (Server.Startup msg) ->
              Alcotest.(check bool) "refusal mentions promote" true
                (contains msg "promote")
          | Error _ -> Alcotest.fail "expected a startup refusal"
          | Ok _ -> Alcotest.fail "serving a replica dir must be refused");
          Client.close c;
          Node.shutdown node nth);
      (* Primary gone (drained). Promote the replica directory and serve
         it: every digested transaction must be there, and the promoted
         node must verify against the digests the old primary issued. *)
      (match Repl.Client.promote_dir ~dir:rep_dir () with
      | Error e -> Alcotest.fail e
      | Ok durable ->
          Alcotest.(check bool) "promotion verifies offline" true
            (Verifier.ok (Verifier.verify (Durable.db durable) ~digests:!digests)));
      Alcotest.(check bool) "marker gone" false
        (Repl.Client.is_replica_dir rep_dir);
      let config = { Server.default_config with port = 0; dir = rep_dir } in
      let srv2 =
        match Server.start ~config () with
        | Ok s -> s
        | Error e -> Alcotest.fail (Server.start_error_to_string e)
      in
      let th2 = Server.run_async srv2 in
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv2 th2)
        (fun () ->
          let c = connect (Server.port srv2) in
          Alcotest.(check bool) "promoted node serves the same rows" true
            (select_all c = !rows);
          (* Writes are accepted now: it is a primary. *)
          expect_ok "write after promotion" (insert c "post-failover" 1);
          (match
             call c
               (Protocol.Verify
                  { tables = []; digests = List.map Digest.to_json !digests })
           with
          | Protocol.Verify_r v ->
              Alcotest.(check bool)
                "promoted node verifies the old primary's digests" true
                v.Protocol.vs_ok
          | r -> Alcotest.fail ("verify returned " ^ Protocol.response_kind r));
          Client.close c))

(* Reconnect backoff is a pure function of (seed, attempt), so the
   anti-thundering-herd property is provable without clocks: two
   replicas orphaned by the same crash share the attempt counter but
   not the seed, and their schedules must diverge. *)
let test_reconnect_jitter_desync () =
  let backoff_min = 0.05 and backoff_max = 2.0 in
  let delay seed attempt =
    Repl.Client.backoff_delay ~seed ~attempt ~backoff_min ~backoff_max
  in
  let seed_a = Int32.to_int (Fault.Crc32.string "replica-a")
  and seed_b = Int32.to_int (Fault.Crc32.string "replica-b") in
  (* Deterministic: a failing run replays from its identity. *)
  for attempt = 0 to 10 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d is reproducible" attempt)
      (delay seed_a attempt) (delay seed_a attempt)
  done;
  (* Bounded: full jitter never exceeds the capped-exponential ceiling
     min(max, min * 2^attempt), and never goes negative. *)
  List.iter
    (fun seed ->
      for attempt = 0 to 20 do
        let d = delay seed attempt in
        let cap =
          Float.min backoff_max (backoff_min *. (2. ** float_of_int attempt))
        in
        Alcotest.(check bool)
          (Printf.sprintf "0 <= delay <= %.3f at attempt %d" cap attempt)
          true
          (d >= 0.0 && d <= cap)
      done)
    [ seed_a; seed_b ];
  (* Desynchronised: across a burst of shared attempt numbers the two
     replicas must not land in lock-step. One accidental collision is
     conceivable; all eleven identical would mean the seed is dead. *)
  let collisions = ref 0 in
  for attempt = 4 to 14 do
    if Float.abs (delay seed_a attempt -. delay seed_b attempt) < 1e-9 then
      incr collisions
  done;
  Alcotest.(check bool) "schedules diverge across replicas" true
    (!collisions <= 1);
  (* Deep attempts stay pinned under backoff_max instead of overflowing
     the 2^attempt term. *)
  let d62 = delay seed_a 62 in
  Alcotest.(check bool) "attempt 62 still bounded" true
    (d62 >= 0.0 && d62 <= backoff_max)

let () =
  Alcotest.run "repl"
    [
      ( "tail",
        [
          Alcotest.test_case "incremental tail cursor" `Quick test_tail_cursor;
          Alcotest.test_case "resume after an LSN" `Quick
            test_tail_resume_after;
        ] );
      ( "stream",
        [ Alcotest.test_case "codec + checksum" `Quick test_stream_codec ] );
      ( "manager",
        [ Alcotest.test_case "registry and gate" `Quick test_manager_gate ] );
      ( "backoff",
        [
          Alcotest.test_case "reconnect jitter desyncs replicas" `Quick
            test_reconnect_jitter_desync;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "differential primary vs replica" `Quick
            test_e2e_differential;
          Alcotest.test_case "stream survives primary compaction" `Quick
            test_stream_survives_compaction;
          Alcotest.test_case "digest gate over the wire" `Quick
            test_lag_gate_over_wire;
          Alcotest.test_case "torn tail reopen" `Quick test_torn_tail_reopen;
          Alcotest.test_case "crash/restart resumes from persisted LSN" `Quick
            test_crash_restart_failpoints;
          Alcotest.test_case "promotion retains digested transactions" `Quick
            test_promotion_differential;
        ] );
    ]
