(* The sharded deployment: shard map, decision log, coordinator routing,
   cross-shard 2PC, the aggregate digest tree, and the crash matrix over
   every 2PC boundary.

   Shard primaries are real Ledger_server.Server instances on localhost
   TCP; the coordinator is a real Shard.Coordinator in front of them.
   Crash tests arm the coordinator's failpoints, let the injected crash
   kill the coordinator mid-protocol, then restart it over the same
   directory and assert the cluster converges — prepared transactions
   released or completed, reads all-or-nothing, distributed verification
   green.

   SHARD_CRASH_SEED / SHARD_CRASH_TRIALS widen the randomized sweep the
   way CRASH_MATRIX_* does for the single-node matrix. *)

module Server = Ledger_server.Server
module Client = Wire.Client
module Protocol = Wire.Protocol
module Coordinator = Shard.Coordinator
module Shard_map = Shard.Shard_map
module Decision_log = Shard.Decision_log
module Value = Relation.Value

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let getenv_int name default =
  match int_of_string_opt (Sys.getenv name) with
  | Some n -> n
  | None -> default
  | exception Not_found -> default

let seed = getenv_int "SHARD_CRASH_SEED" 0x54AD
let trials = getenv_int "SHARD_CRASH_TRIALS" 5

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let temp_dir tag = Filename.temp_dir "sqlledger-test-shard" tag

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

let start_shard () =
  let dir = temp_dir "-shard" in
  let config = { Server.default_config with port = 0; dir } in
  match Server.start ~config () with
  | Ok s -> (s, Server.run_async s, Server.port s, dir)
  | Error e -> Alcotest.fail (Server.start_error_to_string e)

(* The coordinator's run loop, with the exception captured so crash
   tests can assert the injected death instead of losing it in a
   detached thread. *)
let run_captured coord =
  let result = ref None in
  let th =
    Thread.create
      (fun () ->
        match Coordinator.run coord with
        | () -> result := Some (Ok ())
        | exception e -> result := Some (Error e))
      ()
  in
  (th, result)

let start_coord ?(shards = []) dir =
  let config = { Coordinator.default_config with port = 0; dir } in
  match Coordinator.start ~config ~shards () with
  | Ok c ->
      let th, result = run_captured c in
      (c, th, result, Coordinator.port c)
  | Error e -> Alcotest.fail (Coordinator.start_error_to_string e)

(* A 2-shard cluster with the bench table created through the
   coordinator, torn down (servers and coordinator both) afterwards.

   An injected coordinator crash poisons the whole Fault module until
   [Fault.reset], and the in-process shard servers trip the same
   failpoints on their own read paths — so a coordinator crash takes
   the co-located shards down with it, exactly like losing the machine.
   [restart_shards] brings every shard back over its own directory (on
   fresh ports) and returns the new addresses for the restarted
   coordinator. *)
let with_cluster ?(shards = 2) f =
  let nodes = ref (List.init shards (fun _ -> start_shard ())) in
  let addrs () = List.map (fun (_, _, p, _) -> ("127.0.0.1", p)) !nodes in
  let cdir = temp_dir "-coord" in
  let coord, cth, _cres, cport = start_coord ~shards:(addrs ()) cdir in
  let restart_shards () =
    List.iter (fun (s, th, _, _) -> Server.shutdown s th) !nodes;
    nodes :=
      List.map
        (fun (_, _, _, dir) ->
          let config = { Server.default_config with port = 0; dir } in
          match Server.start ~config () with
          | Ok s -> (s, Server.run_async s, Server.port s, dir)
          | Error e -> Alcotest.fail (Server.start_error_to_string e))
        !nodes;
    addrs ()
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.request_shutdown coord;
      Thread.join cth;
      List.iter (fun (s, th, _, _) -> Server.shutdown s th) !nodes)
    (fun () ->
      let setup = connect cport in
      expect_ok "create"
        (call setup
           (Protocol.Create_table
              {
                name = "bench";
                columns = [ ("id", "int"); ("payload", "varchar(64)") ];
                key = [ "id" ]; ledger = true
              }));
      Client.close setup;
      f ~cdir ~cport ~coord ~cth ~nodes ~restart_shards)

let shard_of ~shards id =
  Shard_map.bucket_of_key ~shard_count:shards ~table:"bench"
    [ Value.int id ]

(* Ids guaranteed to straddle both shards of a 2-shard cluster. *)
let next_id = ref 0

let cross_shard_ids () =
  let ids = ref [] in
  let seen = Array.make 2 false in
  while List.length !ids < 4 || not (seen.(0) && seen.(1)) do
    incr next_id;
    seen.(shard_of ~shards:2 !next_id) <- true;
    ids := !next_id :: !ids
  done;
  List.rev !ids

let insert_sql ids =
  "INSERT INTO bench (id, payload) VALUES "
  ^ String.concat ", "
      (List.map (fun id -> Printf.sprintf "(%d, 'p%d')" id id) ids)

let query_id c id =
  match
    call c
      (Protocol.Query
         { sql = Printf.sprintf "SELECT * FROM bench WHERE id = %d" id })
  with
  | Protocol.Rows_r { rows; _ } -> List.length rows
  | Protocol.Error_r { message; _ } -> Alcotest.fail ("query: " ^ message)
  | r -> Alcotest.fail ("query: " ^ Protocol.response_kind r)

let count_all c =
  match call c (Protocol.Query { sql = "SELECT * FROM bench" }) with
  | Protocol.Rows_r { rows; _ } -> List.length rows
  | Protocol.Error_r { message; _ } -> Alcotest.fail ("fanout: " ^ message)
  | r -> Alcotest.fail ("fanout: " ^ Protocol.response_kind r)

let coord_stat c name =
  match call c Protocol.Stats with
  | Protocol.Stats_r lines ->
      List.fold_left
        (fun acc line ->
          match String.rindex_opt line ' ' with
          | Some i when String.sub line 0 i = name ->
              int_of_string
                (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> acc)
        (-1) lines
  | _ -> Alcotest.fail "stats failed"

(* ------------------------------------------------------------------ *)
(* Shard map units *)

let test_map_partition () =
  let map =
    Shard_map.make ~epoch:1
      [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]
  in
  (* Deterministic, and the map agrees with the map-free bucket
     function clients use for direct routing. *)
  for id = 1 to 200 do
    let s = Shard_map.shard_of_key map ~table:"bench" [ Value.int id ] in
    Alcotest.(check int)
      "stable" s
      (Shard_map.shard_of_key map ~table:"bench" [ Value.int id ]);
    Alcotest.(check int)
      "bucket agrees" s
      (Shard_map.bucket_of_key ~shard_count:4 ~table:"bench" [ Value.int id ])
  done;
  (* Table name is part of the key space, case-insensitively. *)
  Alcotest.(check int)
    "case folded"
    (Shard_map.shard_of_key map ~table:"Bench" [ Value.int 7 ])
    (Shard_map.shard_of_key map ~table:"bench" [ Value.int 7 ]);
  (* Every shard gets a respectable cut of a uniform key load. *)
  let counts = Array.make 4 0 in
  for id = 1 to 4000 do
    let s = Shard_map.shard_of_key map ~table:"bench" [ Value.int id ] in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 500 then
        Alcotest.failf "shard %d got only %d of 4000 keys" i c)
    counts

let test_map_codec () =
  let map = Shard_map.make ~epoch:7 [ ("x", 10); ("y", 20) ] in
  match Shard_map.of_json (Shard_map.to_json map) with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check int) "epoch" 7 (Shard_map.epoch m);
      Alcotest.(check bool) "topology" true (Shard_map.equal_topology map m);
      Alcotest.(check bool)
        "invalid rejected" true
        (Result.is_error (Shard_map.of_json (Sjson.String "nope")));
      Alcotest.check_raises "empty map" (Invalid_argument "Shard_map.make: no shards")
        (fun () -> ignore (Shard_map.make ~epoch:1 []))

(* ------------------------------------------------------------------ *)
(* Decision log units *)

let dlog_records =
  [
    Decision_log.Start { gid = "g1"; participants = [ 0; 1 ] };
    Decision_log.Decision { gid = "g1"; commit = true };
    Decision_log.End { gid = "g1" };
    Decision_log.Start { gid = "g2"; participants = [ 1; 2; 3 ] };
    Decision_log.Decision { gid = "g2"; commit = false };
  ]

let test_dlog_roundtrip () =
  let path = Filename.concat (temp_dir "-dlog") "coord.dlog" in
  let records, t = Decision_log.load ~path in
  Alcotest.(check int) "fresh log empty" 0 (List.length records);
  List.iter (Decision_log.append t) dlog_records;
  Decision_log.close t;
  let records, t = Decision_log.load ~path in
  Decision_log.close t;
  Alcotest.(check bool) "roundtrip" true (records = dlog_records)

let test_dlog_torn_tail () =
  let dir = temp_dir "-dlog" in
  let path = Filename.concat dir "coord.dlog" in
  let _, t = Decision_log.load ~path in
  List.iter (Decision_log.append t) dlog_records;
  Decision_log.close t;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let parsed, clean = Decision_log.parse_all full in
  Alcotest.(check int) "clean prefix is whole file" (String.length full) clean;
  Alcotest.(check bool) "parse_all" true (parsed = dlog_records);
  (* Tear the file at every byte inside the last record: the survivors
     must always be exactly the four complete earlier records, and the
     log must reopen, truncate, and accept appends. *)
  let fourth =
    let prefix, _ = Decision_log.parse_all (String.sub full 0 clean) in
    ignore prefix;
    (* byte length of the first four records *)
    let rec scan off n =
      if n = 4 then off
      else
        match String.index_from_opt full off '\n' with
        | Some i -> scan (i + 1) (n + 1)
        | None -> Alcotest.fail "malformed frame"
    in
    scan 0 0
  in
  for cut = fourth + 1 to String.length full - 1 do
    let torn = String.sub full 0 cut in
    let parsed, len = Decision_log.parse_all torn in
    Alcotest.(check int) "torn tail dropped" fourth len;
    Alcotest.(check int) "four records survive" 4 (List.length parsed)
  done;
  (* Corrupt a byte mid-file: everything from the damaged record on is
     refused (append-only log, no resynchronisation). *)
  let corrupt = Bytes.of_string full in
  Bytes.set corrupt (fourth + 5) '\xff';
  let parsed, _ = Decision_log.parse_all (Bytes.to_string corrupt) in
  Alcotest.(check int) "damage stops the parse" 4 (List.length parsed);
  (* A torn file on disk is truncated in place by load, and the log
     keeps going from the clean prefix. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  let records, t = Decision_log.load ~path in
  Alcotest.(check int) "load truncates torn tail" 4 (List.length records);
  Decision_log.append t (Decision_log.End { gid = "g2" });
  Decision_log.close t;
  let records, t = Decision_log.load ~path in
  Decision_log.close t;
  Alcotest.(check int) "append after truncation" 5 (List.length records)

(* A flipped byte in the first of four fsynced records is mid-file
   corruption, not a torn tail: load refuses it, names the byte offset
   and leaves the file as it was, and the coordinator does not start
   over it (truncating would forget the two commit decisions). *)
let test_dlog_mid_file_damage () =
  let dir = temp_dir "-coord" in
  let path = Filename.concat dir "coord.dlog" in
  let _, t = Decision_log.load ~path in
  List.iter (Decision_log.append t)
    [
      Decision_log.Start { gid = "g1"; participants = [ 0; 1 ] };
      Decision_log.Start { gid = "g2"; participants = [ 0; 1 ] };
      Decision_log.Decision { gid = "g1"; commit = true };
      Decision_log.Decision { gid = "g2"; commit = true };
    ];
  Decision_log.close t;
  let damaged =
    let b =
      Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
    in
    Bytes.set b 20 (if Bytes.get b 20 = 'x' then 'y' else 'x');
    Bytes.to_string b
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
  (match Decision_log.load ~path with
  | _ -> Alcotest.fail "a damaged first record loaded"
  | exception Decision_log.Corrupt msg ->
      let needle = "at byte 0 of" in
      Alcotest.(check bool) ("names the offset: " ^ msg) true
        (List.exists
           (fun i -> String.sub msg i (String.length needle) = needle)
           (List.init (String.length msg - String.length needle + 1) Fun.id)));
  Alcotest.(check string) "file untouched" damaged
    (In_channel.with_open_bin path In_channel.input_all);
  match
    Coordinator.start
      ~config:{ Coordinator.default_config with port = 0; dir }
      ~shards:[ ("127.0.0.1", 1) ]
      ()
  with
  | Error (Coordinator.Startup _) -> ()
  | Error (Coordinator.Port_in_use m) -> Alcotest.fail m
  | Ok c ->
      Coordinator.request_shutdown c;
      Coordinator.run c;
      Alcotest.fail "the coordinator started over a corrupt decision log"

(* ------------------------------------------------------------------ *)
(* Protocol hygiene: the coordinator answers like a server *)

(* A coordinator in front of a shard that is never dialled: these
   frames are refused before any routing. *)
let with_bare_coord f =
  let coord, th, _, port =
    start_coord ~shards:[ ("127.0.0.1", 1) ] (temp_dir "-coord")
  in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.request_shutdown coord;
      Thread.join th)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let conn = Wire.Frame.of_fd fd in
      Fun.protect ~finally:(fun () -> Wire.Frame.close conn) (fun () ->
          f fd conn))

let expect_typed_close what code conn =
  (match Wire.Frame.recv conn with
  | Wire.Frame.Frame payload -> (
      match Protocol.decode_response payload with
      | Ok (_, Protocol.Error_r { code = c; _ }) when c = code -> ()
      | Ok (_, r) ->
          Alcotest.fail (what ^ " answered with " ^ Protocol.response_kind r)
      | Error e -> Alcotest.fail ("malformed error response: " ^ e))
  | _ -> Alcotest.fail (what ^ " must be answered with a typed error"));
  match Wire.Frame.recv conn with
  | Wire.Frame.Eof -> ()
  | _ -> Alcotest.fail (what ^ ": the connection must close")

let test_coord_junk () =
  with_bare_coord (fun fd conn ->
      let junk = "\x00\x01\x02\x03garbage" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      expect_typed_close "junk" Protocol.Bad_request conn)

let test_coord_oversized () =
  with_bare_coord (fun fd conn ->
      (* A header announcing one byte more than the frame limit. *)
      let len = Wire.Frame.default_max_frame + 1 in
      let header =
        Wire.Frame.magic
        ^ String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
      in
      ignore (Unix.write_substring fd header 0 (String.length header));
      expect_typed_close "oversized header" Protocol.Too_large conn)

(* A budget spent on arrival is refused before any shard is asked: the
   digest would otherwise fan out to the unreachable shard. *)
let test_coord_spent_deadline () =
  with_bare_coord (fun _ conn ->
      let call ?deadline_ms id req =
        Wire.Frame.send conn (Protocol.encode_request ~id ?deadline_ms req);
        match Wire.Frame.recv conn with
        | Wire.Frame.Frame payload -> (
            match Protocol.decode_response payload with
            | Ok (_, r) -> r
            | Error e -> Alcotest.fail ("malformed response: " ^ e))
        | _ -> Alcotest.fail "no reply"
      in
      (match
         call 1
           (Protocol.Hello
              {
                version = Protocol.version;
                client = "late";
                principal = None;
                auth = None;
              })
       with
      | Protocol.Welcome _ -> ()
      | r -> Alcotest.fail ("hello answered with " ^ Protocol.response_kind r));
      match call ~deadline_ms:0 2 Protocol.Digest with
      | Protocol.Error_r { code = Protocol.Deadline_exceeded; _ } -> ()
      | r ->
          Alcotest.fail ("a spent budget answered with " ^ Protocol.response_kind r))

(* ------------------------------------------------------------------ *)
(* Routing and cross-shard transactions, end to end *)

let test_cluster_e2e () =
  with_cluster
    (fun ~cdir:_ ~cport ~coord:_ ~cth:_ ~nodes ~restart_shards:_ ->
      let c = connect cport in
      (* Point inserts: routed to one shard, 1PC. *)
      let a = cross_shard_ids () in
      List.iter
        (fun id ->
          expect_ok "point insert"
            (call c
               (Protocol.Exec
                  { sql = Printf.sprintf "INSERT INTO bench VALUES (%d, 'x')" id })))
        a;
      (* The rows really landed on the shard the map says owns them. *)
      let shard_conns =
        List.map (fun (_, _, p, _) -> connect p) !nodes
      in
      List.iter
        (fun id ->
          List.iteri
            (fun i sc ->
              let expected = if shard_of ~shards:2 id = i then 1 else 0 in
              Alcotest.(check int)
                (Printf.sprintf "id %d on shard %d" id i)
                expected (query_id sc id))
            shard_conns)
        a;
      List.iter Client.close shard_conns;
      (* A multi-row insert straddling shards runs as one atomic 2PC. *)
      let b = cross_shard_ids () in
      expect_ok "cross-shard insert" (call c (Protocol.Exec { sql = insert_sql b }));
      Alcotest.(check bool)
        "2pc counted" true
        (coord_stat c "coord.txn_2pc_commit" >= 1);
      (* Fanout read sees every row, from every shard. *)
      Alcotest.(check int)
        "fanout count" (List.length a + List.length b)
        (count_all c);
      (* Broadcast write: same statement applied on each shard's own
         rows. *)
      expect_ok "broadcast update"
        (call c (Protocol.Exec { sql = "UPDATE bench SET payload = 'u'" }));
      (match
         call c
           (Protocol.Query
              {
                sql =
                  Printf.sprintf "SELECT payload FROM bench WHERE id = %d"
                    (List.hd b);
              })
       with
      | Protocol.Rows_r { rows = [ [ Value.String "u" ] ]; _ } -> ()
      | r -> Alcotest.fail ("update not visible: " ^ Protocol.response_kind r));
      (* Explicit transaction spanning shards: atomic commit... *)
      let d = cross_shard_ids () in
      expect_ok "begin" (call c Protocol.Begin);
      List.iter
        (fun id ->
          expect_ok "txn insert"
            (call c
               (Protocol.Exec
                  { sql = Printf.sprintf "INSERT INTO bench VALUES (%d, 't')" id })))
        d;
      expect_ok "commit" (call c Protocol.Commit);
      List.iter
        (fun id -> Alcotest.(check int) "committed" 1 (query_id c id))
        d;
      (* ...and rollback undoes every enlisted shard. *)
      let e = cross_shard_ids () in
      expect_ok "begin" (call c Protocol.Begin);
      List.iter
        (fun id ->
          expect_ok "txn insert"
            (call c
               (Protocol.Exec
                  { sql = Printf.sprintf "INSERT INTO bench VALUES (%d, 'r')" id })))
        e;
      expect_ok "rollback" (call c Protocol.Rollback);
      List.iter
        (fun id -> Alcotest.(check int) "rolled back" 0 (query_id c id))
        e;
      (* Deleting a key column assignment is refused, not silently
         misrouted. *)
      (match
         call c (Protocol.Exec { sql = "UPDATE bench SET id = 1, payload = 'x'" })
       with
      | Protocol.Error_r _ -> ()
      | r ->
          Alcotest.fail
            ("key-column update must be refused: " ^ Protocol.response_kind r));
      (* The aggregate digest covers both shards and the distributed
         verification closes green. *)
      let digest =
        match call c Protocol.Digest with
        | Protocol.Digest_r j -> j
        | r -> Alcotest.fail ("digest: " ^ Protocol.response_kind r)
      in
      Alcotest.(check bool)
        "digest is aggregate" true
        (Trusted_store.Aggregate_digest.is_aggregate digest);
      (match
         call c (Protocol.Verify { tables = []; digests = [ digest ] })
       with
      | Protocol.Verify_r { vs_ok; vs_versions; _ } ->
          Alcotest.(check bool) "distributed verify" true vs_ok;
          Alcotest.(check bool) "covered versions" true (vs_versions > 0)
      | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
      Client.close c)

let test_tamper_detected () =
  with_cluster
    (fun ~cdir:_ ~cport ~coord:_ ~cth:_ ~nodes ~restart_shards:_ ->
      let c = connect cport in
      let ids = cross_shard_ids () in
      expect_ok "seed" (call c (Protocol.Exec { sql = insert_sql ids }));
      let digest =
        match call c Protocol.Digest with
        | Protocol.Digest_r j -> j
        | r -> Alcotest.fail ("digest: " ^ Protocol.response_kind r)
      in
      (* Untampered: the whole cluster verifies against the aggregate. *)
      (match call c (Protocol.Verify { tables = []; digests = [ digest ] }) with
      | Protocol.Verify_r { vs_ok; _ } ->
          Alcotest.(check bool) "clean cluster verifies" true vs_ok
      | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
      (* Reach around the API and rewrite a stored value on the shard
         that owns the first id — the §2.5.2 adversary, but on one shard
         of a fleet. *)
      let victim_id = List.hd ids in
      let victim = shard_of ~shards:2 victim_id in
      let srv, _, _, _ = List.nth !nodes victim in
      let db =
        match Server.durable srv with
        | Some d -> Sql_ledger.Durable.db d
        | None -> Alcotest.fail "shard has no durable database"
      in
      (match
         Tamper.apply db
           (Tamper.Update_row
              {
                table = "bench";
                key = [| Value.int victim_id |];
                column = "payload";
                value = Value.String "forged";
              })
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("tamper failed: " ^ e));
      (match call c (Protocol.Verify { tables = []; digests = [ digest ] }) with
      | Protocol.Verify_r { vs_ok; vs_violations; _ } ->
          Alcotest.(check bool) "tamper detected" false vs_ok;
          let prefix = Printf.sprintf "shard %d:" victim in
          Alcotest.(check bool)
            "violation names the shard" true
            (List.exists
               (fun v ->
                 String.length v >= String.length prefix
                 && String.sub v 0 (String.length prefix) = prefix)
               vs_violations)
      | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Stale shard maps: wrong_shard is retryable-after-refresh *)

let test_wrong_shard_refresh () =
  with_cluster
    (fun ~cdir:_ ~cport ~coord ~cth:_ ~nodes:_ ~restart_shards:_ ->
      let c = connect cport in
      let fetch_map () =
        match call c Protocol.Shard_map with
        | Protocol.Shard_map_r { epoch; _ } -> epoch
        | r -> Alcotest.fail ("shard_map: " ^ Protocol.response_kind r)
      in
      let cached = ref (fetch_map ()) in
      (* The topology changes under the client: its cached routing is
         now a generation behind. *)
      let fresh = Coordinator.bump_epoch coord in
      Alcotest.(check int) "bumped" (!cached + 1) fresh;
      (* A plain call with the stale stamp is refused before any work,
         with the server's epoch in the typed error. *)
      let id = (incr next_id; !next_id) in
      let req =
        Protocol.Exec
          { sql = Printf.sprintf "INSERT INTO bench VALUES (%d, 's')" id }
      in
      (match Client.call ~map_epoch:!cached c req with
      | Ok (Protocol.Error_r { code = Protocol.Wrong_shard; map_epoch; _ }) ->
          Alcotest.(check (option int)) "server epoch" (Some fresh) map_epoch
      | Ok r -> Alcotest.fail ("expected wrong_shard: " ^ Protocol.response_kind r)
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "refused before any work" 0 (query_id c id);
      (* call_retry races the bump: refresh the map in on_wrong_shard
         and the same request goes through with the new routing. *)
      let refreshes = ref 0 in
      (match
         Client.call_retry c req
           ~map_epoch:(fun () -> Some !cached)
           ~on_wrong_shard:(fun ~server_epoch ->
             incr refreshes;
             (match server_epoch with
             | Some e -> cached := e
             | None -> cached := fetch_map ());
             true)
       with
      | Ok r -> expect_ok "retried insert" r
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "one refresh" 1 !refreshes;
      Alcotest.(check int) "epoch refreshed" fresh !cached;
      Alcotest.(check int) "insert landed" 1 (query_id c id);
      Alcotest.(check bool)
        "refusals counted" true
        (coord_stat c "coord.wrong_shard" >= 1);
      (* Unstamped requests (single-node clients) are never refused. *)
      Alcotest.(check int) "unstamped ok" 1 (query_id c id);
      Client.close c)

let test_epoch_persistence () =
  let dir = temp_dir "-coord" in
  let coord, th, _, _ = start_coord ~shards:[ ("h1", 1); ("h2", 2) ] dir in
  Alcotest.(check int) "first epoch" 1 (Shard_map.epoch (Coordinator.map coord));
  let bumped = Coordinator.bump_epoch coord in
  Coordinator.request_shutdown coord;
  Thread.join th;
  (* Same topology: same generation survives the restart. *)
  let coord, th, _, _ = start_coord ~shards:[ ("h1", 1); ("h2", 2) ] dir in
  Alcotest.(check int) "epoch persisted" bumped
    (Shard_map.epoch (Coordinator.map coord));
  Coordinator.request_shutdown coord;
  Thread.join th;
  (* New topology: new generation. *)
  let coord, th, _, _ = start_coord ~shards:[ ("h1", 1); ("h3", 3) ] dir in
  Alcotest.(check int) "topology change bumps" (bumped + 1)
    (Shard_map.epoch (Coordinator.map coord));
  Coordinator.request_shutdown coord;
  Thread.join th;
  (* A coordinator with no map at all refuses to start. *)
  let empty = temp_dir "-coord" in
  (match
     Coordinator.start
       ~config:{ Coordinator.default_config with port = 0; dir = empty }
       ()
   with
  | Error (Coordinator.Startup _) -> ()
  | Error e -> Alcotest.fail (Coordinator.start_error_to_string e)
  | Ok _ -> Alcotest.fail "started without a shard map")

(* The coordinator checks a request's deadline once, before any shard is
   asked, and gives its shard calls no budget. Shard 1 sits behind a
   proxy that holds every frame to it for 0.3 s, so its BEGIN, INSERT and
   PREPARE land at 0.3, 0.6 and 0.9 s; the client gives up at 0.75 s with
   the PREPARE in flight, and the link heals. A coordinator that cut the
   PREPARE short too would send its abort over the healed link, ahead of
   the PREPARE, which would then hold the shard's writer lock with no
   decision ever coming. *)
let test_deadline_mid_prepare () =
  let s0, th0, p0, _ = start_shard () in
  let s1, th1, p1, _ = start_shard () in
  let proxy =
    match
      Chaos.Proxy.start ~upstream_host:"127.0.0.1" ~upstream_port:p1 ()
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let coord, cth, _, cport =
    start_coord
      ~shards:[ ("127.0.0.1", p0); ("127.0.0.1", Chaos.Proxy.port proxy) ]
      (temp_dir "-coord")
  in
  (* A shard left holding its writer lock would never drain. *)
  let wedged = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.request_shutdown coord;
      Thread.join cth;
      Chaos.Proxy.stop proxy;
      List.iteri
        (fun i (s, th) -> if not (List.mem i !wedged) then Server.shutdown s th)
        [ (s0, th0); (s1, th1) ])
    (fun () ->
      let c = connect cport in
      (* Also dials this session's connection to each shard. *)
      expect_ok "create"
        (call c
           (Protocol.Create_table
              {
                name = "bench";
                columns = [ ("id", "int"); ("payload", "varchar(64)") ];
                key = [ "id" ]; ledger = true
              }));
      let ids = cross_shard_ids () in
      Chaos.Proxy.set_fault proxy
        (Chaos.Proxy.Delay { seconds = 0.3; dir = Chaos.Proxy.To_upstream });
      (match
         Client.call ~deadline_s:0.75 c (Protocol.Exec { sql = insert_sql ids })
       with
      | Error _ -> ()
      | Ok r ->
          Alcotest.fail ("answered within the deadline: " ^ Protocol.response_kind r));
      Chaos.Proxy.set_fault proxy Chaos.Proxy.Healthy;
      Client.close c;
      List.iteri
        (fun i port ->
          let d = connect port in
          (match
             Client.call ~deadline_s:5.0 d
               (Protocol.Exec
                  {
                    sql =
                      Printf.sprintf "INSERT INTO bench VALUES (%d, 'direct')"
                        (-1 - i);
                  })
           with
          | Ok r -> expect_ok (Printf.sprintf "direct write to shard %d" i) r
          | Error e ->
              wedged := i :: !wedged;
              Alcotest.fail
                (Printf.sprintf "shard %d still holds a prepared transaction: %s"
                   i e));
          Client.close d)
        [ p0; p1 ];
      (* The insert ran to its end on both shards. *)
      let q = connect cport in
      List.iter
        (fun id ->
          Alcotest.(check int) (Printf.sprintf "row %d" id) 1 (query_id q id))
        ids;
      Client.close q)

(* ------------------------------------------------------------------ *)
(* Crash matrix: every 2PC boundary *)

(* Wait until the restarted coordinator has delivered every logged
   decision to its participants. *)
let await_resolved coord =
  let deadline = Unix.gettimeofday () +. 15.0 in
  while Coordinator.pending_decisions coord <> [] do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "undelivered decisions never resolved";
    Thread.delay 0.05
  done

(* One deterministic boundary: arm [point], drive a cross-shard commit
   into the injected crash, restart the coordinator over its directory,
   and expect the transaction to converge to [expect_commit]. *)
let crash_at_boundary point ~expect_commit =
  with_cluster (fun ~cdir ~cport ~coord:_ ~cth ~nodes:_ ~restart_shards ->
      let c = connect cport in
      let ids = cross_shard_ids () in
      expect_ok "begin" (call c Protocol.Begin);
      List.iter
        (fun id ->
          expect_ok "insert"
            (call c
               (Protocol.Exec
                  { sql = Printf.sprintf "INSERT INTO bench VALUES (%d, 'c')" id })))
        ids;
      Fault.set point (Fault.Crash_after 0);
      (* The commit dies inside the coordinator; whatever the client
         sees (an error or a torn connection), nothing may be
         half-visible afterwards. *)
      (match Client.call c Protocol.Commit with
      | Ok (Protocol.Error_r _) | Error _ -> ()
      | Ok r ->
          Alcotest.fail ("commit should have died: " ^ Protocol.response_kind r));
      Client.close c;
      (* The coordinator process is dead — run re-raises the injected
         crash after draining, exactly like the CLI exiting 2. The
         poisoned failpoints kill the co-located shards with it. *)
      Thread.join cth;
      Fault.reset ();
      let addrs = restart_shards () in
      (* Restart over the same directory: the decision log replays,
         undecided transactions presume abort, undelivered decisions
         re-send until the shards ack. *)
      let coord2, th2, res2, cport2 = start_coord ~shards:addrs cdir in
      Fun.protect
        ~finally:(fun () ->
          Coordinator.request_shutdown coord2;
          Thread.join th2;
          ignore res2)
        (fun () ->
          await_resolved coord2;
          let c = connect cport2 in
          List.iter
            (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "id %d converged" id)
                (if expect_commit then 1 else 0)
                (query_id c id))
            ids;
          (* The shards are released: new cross-shard work commits, and
             the whole cluster still proves itself. *)
          let more = cross_shard_ids () in
          expect_ok "post-recovery 2pc"
            (call c (Protocol.Exec { sql = insert_sql more }));
          let digest =
            match call c Protocol.Digest with
            | Protocol.Digest_r j -> j
            | r -> Alcotest.fail ("digest: " ^ Protocol.response_kind r)
          in
          (match
             call c (Protocol.Verify { tables = []; digests = [ digest ] })
           with
          | Protocol.Verify_r { vs_ok; _ } ->
              Alcotest.(check bool) "verify after recovery" true vs_ok
          | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
          Client.close c))

(* Coordinator dies after collecting every PREPARE but before logging
   the decision: presumed abort. *)
let test_crash_before_decision () =
  crash_at_boundary Coordinator.point_before_decision ~expect_commit:false

(* Coordinator dies after the decision is durable but before any
   participant hears it: the commit must still happen. *)
let test_crash_after_decision () =
  crash_at_boundary Coordinator.point_after_decision ~expect_commit:true

(* Participant dies between its PREPARE ack and the decision: the
   restarted shard recovers the transaction in-doubt from its own WAL —
   effects withheld — and completes it when the decision arrives. *)
let test_participant_crash () =
  let srv, th, port, dir = start_shard () in
  let c = connect port in
  expect_ok "create"
    (call c
       (Protocol.Create_table
          {
            name = "bench";
            columns = [ ("id", "int"); ("payload", "varchar(64)") ];
            key = [ "id" ]; ledger = true
          }));
  expect_ok "baseline"
    (call c (Protocol.Exec { sql = "INSERT INTO bench VALUES (1, 'base')" }));
  (* The test plays coordinator over the same wire verbs the real one
     uses. *)
  expect_ok "begin" (call c Protocol.Begin);
  expect_ok "insert"
    (call c (Protocol.Exec { sql = "INSERT INTO bench VALUES (2, 'indoubt')" }));
  expect_ok "prepare" (call c (Protocol.Prepare { gid = "part-crash-1" }));
  Client.close c;
  (* The shard dies holding the prepared vote. *)
  Server.shutdown srv th;
  (* ...and comes back over the same directory. *)
  let config = { Server.default_config with port = 0; dir } in
  let srv2 =
    match Server.start ~config () with
    | Ok s -> s
    | Error e -> Alcotest.fail (Server.start_error_to_string e)
  in
  let th2 = Server.run_async srv2 in
  let in_doubt =
    match Server.durable srv2 with
    | Some d ->
        List.map
          (fun i -> i.Sql_ledger.Wal_replay.gid)
          (Sql_ledger.Durable.in_doubt d)
    | None -> []
  in
  Alcotest.(check (list string)) "recovered in doubt" [ "part-crash-1" ] in_doubt;
  let c = connect (Server.port srv2) in
  Alcotest.(check int) "committed row visible" 1 (query_id c 1);
  Alcotest.(check int) "prepared effects withheld" 0 (query_id c 2);
  (* The coordinator's decision arrives (re-sent by its resolver):
     commit completes from the recorded redo. *)
  expect_ok "decide commit"
    (call c (Protocol.Decide { gid = "part-crash-1"; commit = true }));
  Alcotest.(check int) "decided row visible" 1 (query_id c 2);
  (* Idempotent: a recovering coordinator may blindly re-send. *)
  expect_ok "decide again"
    (call c (Protocol.Decide { gid = "part-crash-1"; commit = true }));
  (* The completed transaction carries the same hashes a never-crashed
     run would: the ledger verifies. *)
  let digest =
    match call c Protocol.Digest with
    | Protocol.Digest_r j -> j
    | r -> Alcotest.fail ("digest: " ^ Protocol.response_kind r)
  in
  (match call c (Protocol.Verify { tables = []; digests = [ digest ] }) with
  | Protocol.Verify_r { vs_ok; _ } ->
      Alcotest.(check bool) "shard verifies" true vs_ok
  | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
  Client.close c;
  Server.shutdown srv2 th2

(* The randomized sweep: seeded crashes at every boundary — including
   byte-granular tears inside the decision log — always converge to
   all-or-nothing, with the decision log the source of truth. *)
let test_randomized_matrix () =
  let prng = Workload.Prng.create seed in
  with_cluster (fun ~cdir ~cport:_ ~coord ~cth ~nodes:_ ~restart_shards ->
      Coordinator.request_shutdown coord;
      Thread.join cth;
      (* the fixture's coordinator handle is replaced per trial *)
      let addrs = ref (restart_shards ()) in
      let committed = ref [] in
      let seen_gids = ref [] in
      for trial = 1 to trials do
        let coord, th, _res, cport = start_coord ~shards:!addrs cdir in
        await_resolved coord;
        let c = connect cport in
        let ids = cross_shard_ids () in
        let site = Workload.Prng.int prng 3 in
        (match site with
        | 0 -> Fault.set Coordinator.point_before_decision (Fault.Crash_after 0)
        | 1 -> Fault.set Coordinator.point_after_decision (Fault.Crash_after 0)
        | _ ->
            (* Tear the decision log mid-record at a random byte. *)
            Fault.set Decision_log.point
              (Fault.Crash_after (1 + Workload.Prng.int prng 120)));
        (match Client.call c (Protocol.Exec { sql = insert_sql ids }) with
        | Ok _ | Error _ -> ());
        Client.close c;
        Coordinator.request_shutdown coord;
        Thread.join th;
        Fault.reset ();
        addrs := restart_shards ();
        (* What does the surviving log say about THIS trial's
           transaction? Its Start record is the one no earlier trial
           logged. Decision present -> that outcome; Start torn off or
           no Decision -> presumed abort. *)
        let dlog = In_channel.with_open_bin
            (Filename.concat cdir "coord.dlog") In_channel.input_all
        in
        let records, _ = Decision_log.parse_all dlog in
        let trial_gid =
          List.fold_left
            (fun acc r ->
              match r with
              | Decision_log.Start { gid; _ }
                when not (List.mem gid !seen_gids) ->
                  Some gid
              | _ -> acc)
            None records
        in
        (match trial_gid with
        | Some gid -> seen_gids := gid :: !seen_gids
        | None -> ());
        let expect_commit =
          match trial_gid with
          | None -> false
          | Some gid ->
              List.exists
                (function
                  | Decision_log.Decision { gid = g; commit } ->
                      g = gid && commit
                  | _ -> false)
                records
        in
        (* Restart, converge, check all-or-nothing matches the log. *)
        let coord, th, _res, cport = start_coord ~shards:!addrs cdir in
        await_resolved coord;
        let c = connect cport in
        List.iter
          (fun id ->
            Alcotest.(check int)
              (Printf.sprintf "trial %d id %d (site %d)" trial id site)
              (if expect_commit then 1 else 0)
              (query_id c id))
          ids;
        if expect_commit then committed := ids @ !committed;
        Client.close c;
        Coordinator.request_shutdown coord;
        Thread.join th
      done;
      (* The cluster that survived the whole sweep proves itself. *)
      let coord, th, _res, cport = start_coord ~shards:!addrs cdir in
      await_resolved coord;
      let c = connect cport in
      Alcotest.(check int)
        "fanout equals committed rows"
        (List.length !committed) (count_all c);
      let digest =
        match call c Protocol.Digest with
        | Protocol.Digest_r j -> j
        | r -> Alcotest.fail ("digest: " ^ Protocol.response_kind r)
      in
      (match call c (Protocol.Verify { tables = []; digests = [ digest ] }) with
      | Protocol.Verify_r { vs_ok; _ } ->
          Alcotest.(check bool) "verify after sweep" true vs_ok
      | r -> Alcotest.fail ("verify: " ^ Protocol.response_kind r));
      Client.close c;
      Coordinator.request_shutdown coord;
      Thread.join th)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "partition function" `Quick test_map_partition;
          Alcotest.test_case "json codec" `Quick test_map_codec;
        ] );
      ( "decision log",
        [
          Alcotest.test_case "roundtrip" `Quick test_dlog_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_dlog_torn_tail;
          Alcotest.test_case "mid-file damage refused" `Quick
            test_dlog_mid_file_damage;
        ] );
      ( "wire hygiene",
        [
          Alcotest.test_case "junk answered" `Quick test_coord_junk;
          Alcotest.test_case "oversized header answered" `Quick
            test_coord_oversized;
          Alcotest.test_case "spent deadline refused" `Quick
            test_coord_spent_deadline;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "routing and 2pc end-to-end" `Quick
            test_cluster_e2e;
          Alcotest.test_case "tampered shard fails aggregate verify" `Quick
            test_tamper_detected;
          Alcotest.test_case "wrong_shard refresh race" `Quick
            test_wrong_shard_refresh;
          Alcotest.test_case "epoch persistence" `Quick test_epoch_persistence;
          Alcotest.test_case "deadline spent mid-prepare" `Quick
            test_deadline_mid_prepare;
        ] );
      ( "crash matrix",
        [
          Alcotest.test_case "coordinator dies before decision" `Quick
            test_crash_before_decision;
          Alcotest.test_case "coordinator dies after decision" `Quick
            test_crash_after_decision;
          Alcotest.test_case "participant dies prepared" `Quick
            test_participant_crash;
          Alcotest.test_case "randomized seeded sweep" `Quick
            test_randomized_matrix;
        ] );
    ]
