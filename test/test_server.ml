(* The ledger server against real localhost TCP connections.

   Each fixture binds port 0 on a fresh temp directory, runs the accept
   loop in a background thread, and drives it with the same Wire.Client
   the CLI uses — plus raw Frame/Protocol sockets where the point is to
   misbehave (wrong protocol version, junk bytes, request before hello).
   Shutdown semantics are checked end-to-end: what a drained server
   leaves in --dir must reopen cleanly and reflect only committed
   transactions. *)

module Server = Ledger_server.Server
module Client = Wire.Client
module Frame = Wire.Frame
module Protocol = Wire.Protocol
open Sql_ledger

(* Writes into sockets the server has already closed must surface as
   EPIPE errors, not kill the test binary. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* GROUP_COMMIT_WINDOW_MS overrides the group-commit window for the whole
   suite ("0" = no linger: the commit leader publishes what is queued at
   once; anything positive = linger up to that long to coalesce), so CI
   can run these sessions in both modes without a second test binary. *)
let base_config =
  match Sys.getenv_opt "GROUP_COMMIT_WINDOW_MS" with
  | None -> Server.default_config
  | Some ms -> (
      match float_of_string_opt ms with
      | Some v when v >= 0.0 ->
          { Server.default_config with group_commit_window = v /. 1000.0 }
      | _ -> Server.default_config)

let with_server ?(tweak = fun c -> c) f =
  let dir = Filename.temp_dir "sqlledger-test-server" "" in
  let config = tweak { base_config with port = 0; dir } in
  let srv =
    match Server.start ~config () with
    | Ok s -> s
    | Error e -> Alcotest.fail (Server.start_error_to_string e)
  in
  let th = Server.run_async srv in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv th)
    (fun () -> f ~dir ~port:(Server.port srv) srv)

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

let expect_error code what = function
  | Protocol.Error_r { code = c; _ } when c = code -> ()
  | Protocol.Error_r { code = c; message; _ } ->
      Alcotest.fail
        (Printf.sprintf "%s: expected %s error, got %s (%s)" what
           (Protocol.error_code_to_string code)
           (Protocol.error_code_to_string c)
           message)
  | resp ->
      Alcotest.fail
        (Printf.sprintf "%s: expected %s error, got %s" what
           (Protocol.error_code_to_string code)
           (Protocol.response_kind resp))

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
           Printf.sprintf "INSERT INTO accounts VALUES ('%s', %d)" name balance;
       })

let count_rows client =
  match call client (Protocol.Query { sql = "SELECT * FROM accounts" }) with
  | Protocol.Rows_r { rows; _ } -> List.length rows
  | resp ->
      Alcotest.fail ("count query returned " ^ Protocol.response_kind resp)

(* Raw socket for protocol-level misbehaviour; performs no handshake. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Bound the test, not the server: a hung server reads as EAGAIN here
     instead of a hung test run. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Frame.of_fd fd

let raw_call conn req =
  Frame.send conn (Protocol.encode_request ~id:1 req);
  match Frame.recv conn with
  | Frame.Frame payload -> (
      match Protocol.decode_response payload with
      | Ok (_, resp) -> resp
      | Error e -> Alcotest.fail ("malformed response: " ^ e))
  | other ->
      Alcotest.fail
        ("expected a response frame, got "
        ^
        match other with
        | Frame.Eof -> "eof"
        | Frame.Truncated -> "truncated"
        | Frame.Junk _ -> "junk"
        | Frame.Oversized _ -> "oversized"
        | Frame.Frame _ -> assert false)

(* ------------------------------------------------------------------ *)

(* Thirty-two clients say hello at once to a server that has served
   nothing yet, and every handshake must succeed. It runs first in this
   executable so that these are the process's first sessions: a lazily
   initialised global forced by each new session thread would race
   here and kill some of them. *)
let test_first_hellos () =
  with_server (fun ~dir:_ ~port _srv ->
      let go = Atomic.make false in
      let results = Array.make 32 (Error "not run") in
      let hello i =
        while not (Atomic.get go) do
          Thread.yield ()
        done;
        results.(i) <-
          (match
             Client.connect ~hello_timeout_s:10.0 ~host:"127.0.0.1" ~port ()
           with
          | Ok c ->
              Client.close c;
              Ok ()
          | Error e -> Error (Client.connect_error_to_string e))
      in
      let threads = List.init 32 (Thread.create hello) in
      Atomic.set go true;
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "hello %d failed: %s" i e)
        results)

let test_e2e_flow () =
  with_server (fun ~dir:_ ~port _srv ->
      let c = connect port in
      Alcotest.(check bool) "welcome names the server" true
        (Client.server c <> "?");
      create_accounts c;
      expect_ok "insert" (insert c "Nick" 50);
      expect_ok "insert" (insert c "John" 500);
      (match call c (Protocol.Query { sql = "SELECT * FROM accounts" }) with
      | Protocol.Rows_r { columns; rows } ->
          Alcotest.(check (list string)) "columns" [ "name"; "balance" ] columns;
          Alcotest.(check int) "rows" 2 (List.length rows)
      | r -> Alcotest.fail ("query returned " ^ Protocol.response_kind r));
      (* An explicit transaction, to learn a txn id for the receipt. *)
      let txn_id =
        expect_ok "begin" (call c Protocol.Begin);
        expect_ok "insert in txn" (insert c "Mary" 200);
        match call c Protocol.Commit with
        | Protocol.Txn_r { txn_id = Some id } -> id
        | r -> Alcotest.fail ("commit returned " ^ Protocol.response_kind r)
      in
      (* Digest first: receipts need the transaction's block closed. *)
      let digest_json =
        match call c Protocol.Digest with
        | Protocol.Digest_r j -> j
        | r -> Alcotest.fail ("digest returned " ^ Protocol.response_kind r)
      in
      (match call c (Protocol.Receipt { txn_id }) with
      | Protocol.Receipt_r j -> (
          match Receipt.of_json j with
          | Ok r ->
              Alcotest.(check int) "receipt is for our txn" txn_id
                r.Receipt.entry.Types.txn_id
          | Error e -> Alcotest.fail ("receipt does not parse: " ^ e))
      | r -> Alcotest.fail ("receipt returned " ^ Protocol.response_kind r));
      (match
         call c (Protocol.Verify { tables = []; digests = [ digest_json ] })
       with
      | Protocol.Verify_r s ->
          Alcotest.(check bool) "verify ok" true s.Protocol.vs_ok;
          Alcotest.(check bool) "checked rows" true (s.Protocol.vs_versions > 0)
      | r -> Alcotest.fail ("verify returned " ^ Protocol.response_kind r));
      Client.close c)

let digest_of client =
  match call client Protocol.Digest with
  | Protocol.Digest_r j -> j
  | r -> Alcotest.fail ("digest returned " ^ Protocol.response_kind r)

(* Every auto-commit is answered with its transaction id, in either
   commit mode, so a client can ask for the receipt of its own write. *)
let test_exec_txn_id () =
  with_server (fun ~dir:_ ~port _srv ->
      let c = connect port in
      create_accounts c;
      let txn_id =
        match insert c "Nick" 50 with
        | Protocol.Affected_r { txn_id = Some id; _ } -> id
        | r -> Alcotest.fail ("insert answered without a txn_id: " ^ Protocol.response_kind r)
      in
      ignore (digest_of c : Sjson.t);
      (match call c (Protocol.Receipt { txn_id }) with
      | Protocol.Receipt_r j -> (
          match Receipt.of_json j with
          | Ok r ->
              Alcotest.(check int) "receipt is for the insert" txn_id
                r.Receipt.entry.Types.txn_id
          | Error e -> Alcotest.fail ("receipt does not parse: " ^ e))
      | r -> Alcotest.fail ("receipt returned " ^ Protocol.response_kind r));
      Client.close c)

let test_concurrent_sessions () =
  with_server (fun ~dir:_ ~port _srv ->
      let c0 = connect port in
      create_accounts c0;
      let clients = 4 and per_client = 20 in
      let failures = Atomic.make 0 in
      let worker i =
        let c = connect port in
        for k = 1 to per_client do
          match insert c (Printf.sprintf "user-%d-%d" i k) (100 + k) with
          | Protocol.Error_r _ -> Atomic.incr failures
          | _ -> ()
        done;
        Client.close c
      in
      let threads = List.init clients (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no failed inserts" 0 (Atomic.get failures);
      Alcotest.(check int) "all rows landed" (clients * per_client)
        (count_rows c0);
      (* The ledger is coherent after the stampede. *)
      let digest_json =
        match call c0 Protocol.Digest with
        | Protocol.Digest_r j -> j
        | r -> Alcotest.fail ("digest returned " ^ Protocol.response_kind r)
      in
      (match
         call c0 (Protocol.Verify { tables = []; digests = [ digest_json ] })
       with
      | Protocol.Verify_r s ->
          Alcotest.(check bool) "verify ok" true s.Protocol.vs_ok
      | r -> Alcotest.fail ("verify returned " ^ Protocol.response_kind r));
      Client.close c0)

let test_txn_sessions () =
  with_server (fun ~dir:_ ~port _srv ->
      let a = connect port in
      create_accounts a;
      expect_ok "seed" (insert a "Seed" 1);
      (* Transaction state errors. *)
      expect_error Protocol.Txn_state "commit w/o begin" (call a Protocol.Commit);
      expect_error Protocol.Txn_state "rollback w/o begin"
        (call a Protocol.Rollback);
      expect_ok "begin" (call a Protocol.Begin);
      expect_error Protocol.Txn_state "double begin" (call a Protocol.Begin);
      (* Rolled-back work vanishes... *)
      expect_ok "insert in txn" (insert a "Ghost" 13);
      (match call a Protocol.Rollback with
      | Protocol.Txn_r { txn_id = None } -> ()
      | r -> Alcotest.fail ("rollback returned " ^ Protocol.response_kind r));
      Alcotest.(check int) "rollback leaves one row" 1 (count_rows a);
      (* ...while a second session's committed writes become visible. *)
      let b = connect port in
      expect_ok "begin b" (call b Protocol.Begin);
      expect_ok "insert b" (insert b "Durable" 7);
      expect_ok "commit b" (call b Protocol.Commit);
      Client.close b;
      Alcotest.(check int) "commit visible across sessions" 2 (count_rows a);
      (* A statement failure inside a transaction must not kill it:
         the savepoint undoes the statement, the txn commits clean. *)
      expect_ok "begin again" (call a Protocol.Begin);
      expect_error Protocol.Exec_error "duplicate key rejected"
        (insert a "Durable" 7);
      expect_ok "good insert after failed one" (insert a "Third" 3);
      expect_ok "commit survives" (call a Protocol.Commit);
      Alcotest.(check int) "only the good insert landed" 3 (count_rows a);
      Client.close a)

let test_idle_timeout () =
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout = 0.4 })
    (fun ~dir:_ ~port _srv ->
      let a = connect port in
      create_accounts a;
      expect_ok "begin" (call a Protocol.Begin);
      expect_ok "insert in txn" (insert a "Limbo" 99);
      (* Go quiet past the idle limit: the server must close the session
         and roll the transaction back, releasing the write lock — or
         this second client's query would block forever. *)
      Thread.delay 1.2;
      let b = connect port in
      Alcotest.(check int) "idle txn rolled back" 0 (count_rows b);
      (match Client.call a Protocol.Ping with
      | Error _ -> ()
      | Ok (Protocol.Error_r _) -> ()
      | Ok r ->
          Alcotest.fail
            ("idle session still answers: " ^ Protocol.response_kind r));
      Client.close b;
      Client.close a)

let test_graceful_shutdown_mid_txn () =
  let dir = Filename.temp_dir "sqlledger-test-server" "" in
  let config = { base_config with port = 0; dir } in
  let srv =
    match Server.start ~config () with
    | Ok s -> s
    | Error e -> Alcotest.fail (Server.start_error_to_string e)
  in
  let th = Server.run_async srv in
  let port = Server.port srv in
  let c = connect port in
  create_accounts c;
  expect_ok "committed insert" (insert c "Kept" 11);
  expect_ok "begin" (call c Protocol.Begin);
  expect_ok "uncommitted insert" (insert c "Lost" 22);
  (* Drain with the transaction still open: teardown must roll it back
     before the WAL is fsynced. *)
  Server.shutdown srv th;
  (match Client.call c Protocol.Ping with
  | Error _ | Ok (Protocol.Error_r _) -> ()
  | Ok r ->
      Alcotest.fail ("server answered after drain: " ^ Protocol.response_kind r));
  (* What reached --dir reopens cleanly and holds only committed data. *)
  (match Durable.open_dir ~dir ~name:"served" () with
  | Error e -> Alcotest.fail ("reopen failed: " ^ e)
  | Ok durable ->
      let db = Durable.db durable in
      let rel = Database.query db "SELECT * FROM accounts" in
      Alcotest.(check int) "only the committed row survived" 1
        (List.length rel.Sqlexec.Rel.rows);
      Alcotest.(check bool) "reopened ledger verifies" true
        (Verifier.ok (Verifier.verify db ~digests:[])))

(* A publish that fails breaks the log: the failing commit is refused,
   and so is every later writer on every path, while readers keep the
   last durable state. What the drained server leaves reopens to exactly
   the acked rows and verifies against the digest issued before the
   failure. [failing] picks the publish that fails: a queued auto-commit,
   an explicit COMMIT (which the client then tries to roll back), or the
   commit decision of a prepared transaction (which holds the writer lock
   until it is decided). Later calls carry a deadline, so a writer left
   waiting for the lock fails the test instead of hanging it. *)
let test_failed_publish ~failing () =
  let refused what resp =
    if not (Protocol.response_is_error resp) then
      Alcotest.failf "%s was acked after the log broke" what
  in
  let call_within client req =
    match Client.call ~deadline_s:5.0 client req with
    | Ok resp -> resp
    | Error e -> Alcotest.fail ("no answer after the log broke: " ^ e)
  in
  let dir = Filename.temp_dir "sqlledger-test-server" "" in
  let config = { base_config with port = 0; dir } in
  let srv =
    match Server.start ~config () with
    | Ok s -> s
    | Error e -> Alcotest.fail (Server.start_error_to_string e)
  in
  let th = Server.run_async srv in
  let port = Server.port srv in
  let c = connect port in
  create_accounts c;
  expect_ok "acked insert" (insert c "Kept" 1);
  let digest = digest_of c in
  expect_ok "acked insert after the digest" (insert c "Also" 2);
  Fun.protect ~finally:Fault.reset (fun () ->
      match failing with
      | `Auto_commit ->
          Fault.set "wal.batch_append" Fault.Fail;
          refused "the failing auto-commit" (insert c "Doomed" 3)
      | `Commit ->
          expect_ok "begin" (call c Protocol.Begin);
          expect_ok "insert in txn" (insert c "Doomed" 3);
          Fault.set "wal.batch_append" Fault.Fail;
          refused "the failing commit" (call c Protocol.Commit);
          refused "a rollback after the failed commit"
            (call c Protocol.Rollback)
      | `Decision ->
          let decide = Protocol.Decide { gid = "g1"; commit = true } in
          expect_ok "begin" (call c Protocol.Begin);
          expect_ok "insert in txn" (insert c "Doomed" 3);
          expect_ok "prepare" (call c (Protocol.Prepare { gid = "g1" }));
          Fault.set "wal.batch_append" Fault.Fail;
          refused "the failing decision" (call c decide);
          refused "a re-sent decision" (call_within c decide));
  Client.close c;
  let d = connect port in
  refused "a later auto-commit"
    (call_within d
       (Protocol.Exec { sql = "INSERT INTO accounts VALUES ('Later', 4)" }));
  refused "begin" (call_within d Protocol.Begin);
  refused "checkpoint" (call_within d Protocol.Checkpoint);
  refused "digest" (call_within d Protocol.Digest);
  Alcotest.(check int) "reads serve exactly the acked rows" 2 (count_rows d);
  Client.close d;
  Server.shutdown srv th;
  match Durable.open_dir ~dir ~name:"served" () with
  | Error e -> Alcotest.fail ("reopen failed: " ^ e)
  | Ok durable ->
      let db = Durable.db durable in
      let names =
        List.map
          (fun row -> row.(0))
          (Database.query db "SELECT name FROM accounts").Sqlexec.Rel.rows
        |> List.sort compare
      in
      Alcotest.(check (list string)) "the reopened table holds the acked rows"
        [ "Also"; "Kept" ]
        (List.map Relation.Value.to_string names);
      let digest =
        match Digest.of_json digest with
        | Ok d -> d
        | Error e -> Alcotest.fail ("digest does not parse: " ^ e)
      in
      Alcotest.(check bool) "verifies against the digest before the failure"
        true
        (Verifier.ok (Verifier.verify db ~digests:[ digest ]))

let test_hello_required () =
  with_server (fun ~dir:_ ~port _srv ->
      let conn = raw_connect port in
      (match raw_call conn Protocol.Ping with
      | Protocol.Error_r { code = Protocol.Bad_request; message; _ } ->
          Alcotest.(check bool) "says hello is required" true
            (String.length message > 0)
      | r ->
          Alcotest.fail ("pre-hello ping returned " ^ Protocol.response_kind r));
      (* The server hangs up after rejecting the opener. *)
      (match Frame.recv conn with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "connection must close after a rejected opener");
      Frame.close conn)

let test_version_mismatch () =
  with_server (fun ~dir:_ ~port _srv ->
      let conn = raw_connect port in
      (match
         raw_call conn (Protocol.Hello { version = 999; client = "future"; principal = None; auth = None })
       with
      | Protocol.Error_r { code = Protocol.Version_mismatch; _ } -> ()
      | r ->
          Alcotest.fail ("v999 hello returned " ^ Protocol.response_kind r));
      (match Frame.recv conn with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "connection must close after version mismatch");
      Frame.close conn)

let test_junk_desync () =
  with_server (fun ~dir:_ ~port _srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let conn = Frame.of_fd fd in
      let junk = "\x00\x01\x02\x03garbage" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      (match Frame.recv conn with
      | Frame.Frame payload -> (
          match Protocol.decode_response payload with
          | Ok (_, Protocol.Error_r { code = Protocol.Bad_request; _ }) -> ()
          | Ok (_, r) ->
              Alcotest.fail ("junk answered with " ^ Protocol.response_kind r)
          | Error e -> Alcotest.fail ("malformed error response: " ^ e))
      | _ -> Alcotest.fail "junk must be answered with a typed error");
      (match Frame.recv conn with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "connection must close after desync");
      Frame.close conn)

let test_busy_limit () =
  with_server
    ~tweak:(fun c -> { c with Server.max_connections = 1 })
    (fun ~dir:_ ~port _srv ->
      let a = connect port in
      (match Client.connect ~host:"127.0.0.1" ~port () with
      | Error (Client.Handshake msg) ->
          Alcotest.(check bool) "mentions the connection limit" true
            (String.length msg > 0)
      | Error e ->
          Alcotest.fail
            ("over-limit connect: " ^ Client.connect_error_to_string e)
      | Ok c ->
          Client.close c;
          Alcotest.fail "server accepted a connection over its limit");
      Client.close a;
      (* The slot frees once the first session ends. *)
      let rec retry n =
        match Client.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> Client.close c
        | Error _ when n > 0 ->
            Thread.delay 0.2;
            retry (n - 1)
        | Error e -> Alcotest.fail (Client.connect_error_to_string e)
      in
      retry 25)

let test_connection_refused () =
  (* Grab a port the OS says is free, release it, then connect to it. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close sock;
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Error (Client.Refused msg) ->
      Alcotest.(check bool) "names the refused endpoint" true
        (String.length msg > 0)
  | Error e ->
      Alcotest.fail ("expected Refused, got " ^ Client.connect_error_to_string e)
  | Ok c ->
      Client.close c;
      Alcotest.fail "connected to a dead port"

let test_port_in_use () =
  with_server (fun ~dir:_ ~port _srv ->
      let dir2 = Filename.temp_dir "sqlledger-test-server" "" in
      match Server.start ~config:{ Server.default_config with port; dir = dir2 } ()
      with
      | Error (Server.Port_in_use msg) ->
          Alcotest.(check bool) "names the busy address" true
            (String.length msg > 0)
      | Error (Server.Startup msg) ->
          Alcotest.fail ("expected Port_in_use, got Startup: " ^ msg)
      | Ok srv2 ->
          Server.shutdown srv2 (Server.run_async srv2);
          Alcotest.fail "two servers bound the same port")

(* ------------------------------------------------------------------ *)
(* Overload, deadlines, and hostile pacing *)

(* Pull one named counter out of a Stats_r payload; absent = 0. *)
let counter_of_stats client name =
  match call client Protocol.Stats with
  | Protocol.Stats_r lines ->
      let prefix = Printf.sprintf "sqlledger_counter{name=%S} " name in
      List.fold_left
        (fun acc line ->
          if String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
          then
            int_of_string
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
          else acc)
        0 lines
  | resp -> Alcotest.fail ("stats returned " ^ Protocol.response_kind resp)

let test_overload_shed () =
  with_server
    ~tweak:(fun c ->
      {
        c with
        Server.max_inflight = 1;
        max_queue_depth = 1;
        max_connections = 32;
        group_commit_window = 0.002;
      })
    (fun ~dir:_ ~port _srv ->
      let setup = connect port in
      create_accounts setup;
      let writers = 6 and per_writer = 25 in
      let ok = Atomic.make 0
      and shed = Atomic.make 0
      and hintless = Atomic.make 0
      and other = Atomic.make 0 in
      let storm w =
        let c = connect port in
        for i = 0 to per_writer - 1 do
          match insert c (Printf.sprintf "w%d-%d" w i) i with
          | Protocol.Error_r
              { code = Protocol.Overloaded; retry_after_ms; _ } ->
              Atomic.incr shed;
              if retry_after_ms = None then Atomic.incr hintless
          | Protocol.Error_r _ -> Atomic.incr other
          | _ -> Atomic.incr ok
        done;
        Client.close c
      in
      let threads = List.init writers (fun w -> Thread.create storm w) in
      List.iter Thread.join threads;
      (* Shed refusals must be typed and carry a backoff hint... *)
      Alcotest.(check int) "no untyped refusals" 0 (Atomic.get other);
      Alcotest.(check int) "every shed carries retry_after_ms" 0
        (Atomic.get hintless);
      Alcotest.(check bool) "overload actually shed something" true
        (Atomic.get shed > 0);
      (* ...and a shed insert must never be half-applied: exactly the
         acknowledged rows exist, nothing more. *)
      Alcotest.(check int) "rows = acknowledged inserts" (Atomic.get ok)
        (count_rows setup);
      Alcotest.(check bool) "server counted its sheds" true
        (counter_of_stats setup "server.shed" >= Atomic.get shed);
      (match call setup (Protocol.Verify { tables = []; digests = [] }) with
      | Protocol.Verify_r v ->
          Alcotest.(check bool) "ledger verifies after the storm" true
            v.Protocol.vs_ok
      | resp ->
          Alcotest.fail ("verify returned " ^ Protocol.response_kind resp));
      Client.close setup)

let test_deadline_refusal () =
  with_server (fun ~dir:_ ~port _srv ->
      let a = connect port in
      create_accounts a;
      expect_ok "begin" (call a Protocol.Begin);
      (* [a]'s open transaction holds the write lock. [b]'s insert
         arrives with a 50ms budget but can only run once [a] lets go
         300ms later — the server must refuse it *after* acquiring the
         lock, with the typed code and without touching the ledger. *)
      let b = raw_connect port in
      (match raw_call b (Protocol.Hello { version = Protocol.version; client = "late"; principal = None; auth = None })
       with
      | Protocol.Welcome _ -> ()
      | r -> Alcotest.fail ("hello returned " ^ Protocol.response_kind r));
      Frame.send b
        (Protocol.encode_request ~id:2 ~deadline_ms:50
           (Protocol.Exec { sql = "INSERT INTO accounts VALUES ('late', 1)" }));
      Thread.delay 0.3;
      expect_ok "rollback" (call a Protocol.Rollback);
      (match Frame.recv b with
      | Frame.Frame payload -> (
          match Protocol.decode_response payload with
          | Ok (2, resp) ->
              expect_error Protocol.Deadline_exceeded "expired insert" resp
          | Ok (id, _) -> Alcotest.fail (Printf.sprintf "response id %d" id)
          | Error e -> Alcotest.fail ("malformed response: " ^ e))
      | _ -> Alcotest.fail "expected a typed deadline refusal");
      Alcotest.(check int) "refused insert left no row" 0 (count_rows a);
      Alcotest.(check bool) "server counted the refusal" true
        (counter_of_stats a "server.deadline_exceeded" >= 1);
      Frame.close b;
      Client.close a)

(* A peer that opens a frame and then feeds it one byte every 150ms
   must be torn down by the total-frame deadline, not allowed to pin a
   session thread forever. *)
let test_slow_loris () =
  with_server
    ~tweak:(fun c -> { c with Server.request_timeout = 0.4 })
    (fun ~dir:_ ~port _srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let conn = Frame.of_fd fd in
      let header = Frame.header_bytes 64 in
      (try
         for i = 0 to 5 do
           ignore (Unix.write_substring fd header i 1);
           Thread.delay 0.15
         done
       with Unix.Unix_error _ -> (* server already hung up on us *) ());
      (match Frame.recv conn with
      | Frame.Eof -> ()
      | Frame.Frame _ -> Alcotest.fail "server answered a slow-loris header"
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      Frame.close conn)

(* Same bound mid-payload: a handshaked session that stalls inside a
   frame body is torn once request_timeout elapses. *)
let test_mid_frame_stall () =
  with_server
    ~tweak:(fun c -> { c with Server.request_timeout = 0.4 })
    (fun ~dir:_ ~port _srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let conn = Frame.of_fd fd in
      (match
         raw_call conn
           (Protocol.Hello { version = Protocol.version; client = "staller"; principal = None; auth = None })
       with
      | Protocol.Welcome _ -> ()
      | r -> Alcotest.fail ("hello returned " ^ Protocol.response_kind r));
      let payload = Protocol.encode_request ~id:2 Protocol.Ping in
      let frame = Frame.header_bytes (String.length payload) ^ payload in
      (* Full header plus half the payload, then silence. *)
      let half = String.length frame / 2 in
      ignore (Unix.write_substring fd frame 0 half);
      (match Frame.recv conn with
      | Frame.Eof -> ()
      | Frame.Frame _ -> Alcotest.fail "server answered a half-sent frame"
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      Frame.close conn)

let test_dribbled_request_tolerated () =
  with_server
    ~tweak:(fun c -> { c with Server.request_timeout = 3.0 })
    (fun ~dir:_ ~port _srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let conn = Frame.of_fd fd in
      let payload =
        Protocol.encode_request ~id:1
          (Protocol.Hello { version = Protocol.version; client = "dribbler"; principal = None; auth = None })
      in
      let frame = Frame.header_bytes (String.length payload) ^ payload in
      (* Two bytes every 10ms: hostile pacing, but within the frame
         deadline — the server must simply wait it out and answer. *)
      let i = ref 0 in
      while !i < String.length frame do
        let n = min 2 (String.length frame - !i) in
        ignore (Unix.write_substring fd frame !i n);
        i := !i + n;
        Thread.delay 0.01
      done;
      (match Frame.recv conn with
      | Frame.Frame resp -> (
          match Protocol.decode_response resp with
          | Ok (_, Protocol.Welcome _) -> ()
          | Ok (_, r) ->
              Alcotest.fail ("dribbled hello returned " ^ Protocol.response_kind r)
          | Error e -> Alcotest.fail ("malformed response: " ^ e))
      | _ -> Alcotest.fail "server must answer a slow-but-live client");
      Frame.close conn)

(* --- authenticated principals --- *)

let with_auth_server f =
  with_server
    ~tweak:(fun c -> { c with Server.auth_secret = Some "server-shared-secret" })
    f

let connect_as port principal =
  match
    Client.connect ~host:"127.0.0.1" ~port ~principal
      ~secret:"server-shared-secret" ()
  with
  | Ok c -> c
  | Error e -> Alcotest.fail (Client.connect_error_to_string e)

let test_auth_principals_recorded () =
  with_auth_server (fun ~dir:_ ~port _srv ->
      let alice = connect_as port "alice" in
      let bob = connect_as port "bob" in
      create_accounts alice;
      expect_ok "alice insert" (insert alice "Nick" 50);
      expect_ok "bob insert" (insert bob "Mary" 200);
      expect_ok "alice again" (insert alice "John" 500);
      (* The transactions system table must attribute each commit to the
         authenticated wire principal, not a shared service account. *)
      (match
         call alice
           (Protocol.Query
              {
                sql =
                  "SELECT username FROM database_ledger_transactions \
                   ORDER BY txn_id";
              })
       with
      | Protocol.Rows_r { rows; _ } ->
          let users =
            List.filter_map
              (function
                | [ Relation.Value.String u ] when u <> "server" -> Some u
                | _ -> None)
              rows
          in
          Alcotest.(check (list string)) "per-commit principals"
            [ "alice"; "bob"; "alice" ]
            (List.filter (fun u -> u = "alice" || u = "bob") users)
      | resp -> Alcotest.fail ("query returned " ^ Protocol.response_kind resp));
      (* The provenance view sees the same principals per row version. *)
      (match
         call bob
           (Protocol.Query
              {
                sql =
                  "SELECT principal_name FROM accounts_ledger \
                   WHERE operation = 'INSERT' ORDER BY txn_id";
              })
       with
      | Protocol.Rows_r { rows; _ } ->
          Alcotest.(check (list string)) "view principals"
            [ "alice"; "bob"; "alice" ]
            (List.map
               (function
                 | [ Relation.Value.String u ] -> u
                 | _ -> Alcotest.fail "principal_name")
               rows)
      | resp -> Alcotest.fail ("view query returned " ^ Protocol.response_kind resp));
      Client.close alice;
      Client.close bob)

let test_auth_rejections () =
  with_auth_server (fun ~dir:_ ~port _srv ->
      (* Wrong secret: typed Auth error, not a generic handshake failure. *)
      (match
         Client.connect ~host:"127.0.0.1" ~port ~principal:"mallory"
           ~secret:"wrong-secret" ()
       with
      | Error (Client.Auth _) -> ()
      | Error e ->
          Alcotest.fail
            ("expected Auth, got " ^ Client.connect_error_to_string e)
      | Ok _ -> Alcotest.fail "server accepted a forged principal tag");
      (* Principal claimed with no tag at all: also refused. *)
      (match
         Client.connect ~host:"127.0.0.1" ~port ~principal:"mallory" ()
       with
      | Error (Client.Auth _) -> ()
      | Error e ->
          Alcotest.fail
            ("expected Auth, got " ^ Client.connect_error_to_string e)
      | Ok _ -> Alcotest.fail "server accepted an untagged principal");
      (* Anonymous connections still work when auth is enabled: they just
         get no principal identity. *)
      let anon = connect port in
      (match call anon Protocol.Ping with
      | Protocol.Pong -> ()
      | resp -> Alcotest.fail ("ping returned " ^ Protocol.response_kind resp));
      Client.close anon)

(* --- online migration --- *)

let create_plain client name =
  expect_ok "create-plain"
    (call client
       (Protocol.Create_table
          {
            name;
            columns = [ ("k", "int"); ("v", "varchar(40)") ];
            key = [ "k" ]; ledger = false
          }))

let test_migrate_resume () =
  with_server (fun ~dir ~port _srv ->
      let c = connect port in
      create_plain c "staging";
      expect_ok "create target"
        (call c
           (Protocol.Create_table
              {
                name = "tgt";
                columns = [ ("k", "int"); ("v", "varchar(40)") ];
                key = [ "k" ]; ledger = true
              }));
      for i = 1 to 23 do
        expect_ok "seed"
          (call c
             (Protocol.Exec
                {
                  sql =
                    Printf.sprintf "INSERT INTO staging VALUES (%d, 'row%d')" i i;
                }))
      done;
      let cursor_path = Filename.concat dir "migrate.cursor.json" in
      (* First run dies after 2 batches — simulated by driving the wire
         request directly and persisting the cursor like the driver does. *)
      let cur = ref (Migrate.Cursor.start ~source:"staging" ~target:"tgt") in
      for _ = 1 to 2 do
        match
          call c
            (Protocol.Migrate
               {
                 source = "staging";
                 target = "tgt";
                 after_key = !cur.Migrate.Cursor.last_key;
                 limit = 5;
               })
        with
        | Protocol.Migrate_r { copied; last_key; finished = _ } ->
            cur :=
              {
                !cur with
                Migrate.Cursor.last_key;
                copied = !cur.Migrate.Cursor.copied + copied;
              };
            Migrate.Cursor.save ~path:cursor_path !cur
        | resp ->
            Alcotest.fail ("migrate returned " ^ Protocol.response_kind resp)
      done;
      Alcotest.(check int) "partial copy persisted" 10
        !cur.Migrate.Cursor.copied;
      (* OLTP on other ledger tables keeps running mid-migration. *)
      create_accounts c;
      expect_ok "live OLTP write" (insert c "Nick" 50);
      (* Resume from the cursor file with a fresh driver run. *)
      (match
         Migrate.Driver.run ~batch:5 ~cursor_path ~client:c ~source:"staging"
           ~target:"tgt" ()
       with
      | Error e -> Alcotest.fail ("resume failed: " ^ e)
      | Ok s ->
          Alcotest.(check int) "resumed, not restarted" 10
            s.Migrate.Driver.resumed_at;
          Alcotest.(check int) "copied the remainder" 13
            s.Migrate.Driver.rows_copied;
          Alcotest.(check int) "target complete" 23 s.Migrate.Driver.rows_total;
          Alcotest.(check bool) "differential passed" true
            s.Migrate.Driver.verified;
          Alcotest.(check bool) "digest anchored" true
            (s.Migrate.Driver.digest <> None));
      (* All 23 staged rows made it, exactly once. *)
      (match call c (Protocol.Query { sql = "SELECT * FROM tgt" }) with
      | Protocol.Rows_r { rows; _ } ->
          Alcotest.(check int) "target rows" 23 (List.length rows)
      | resp -> Alcotest.fail ("count returned " ^ Protocol.response_kind resp));
      (* Re-running the whole migration is a no-op: every key exists. *)
      (match
         Migrate.Driver.run ~batch:7 ~client:c ~source:"staging" ~target:"tgt" ()
       with
      | Error e -> Alcotest.fail ("idempotent rerun failed: " ^ e)
      | Ok s ->
          Alcotest.(check int) "no duplicate copies" 0
            s.Migrate.Driver.rows_copied);
      (* A target row with no source counterpart must fail the
         differential check loudly, not be rubber-stamped. *)
      expect_ok "divergent write"
        (call c (Protocol.Exec { sql = "INSERT INTO tgt VALUES (99, 'stray')" }));
      (match
         Migrate.Driver.run ~batch:7 ~client:c ~source:"staging" ~target:"tgt" ()
       with
      | Error e ->
          Alcotest.(check bool) "names the differential check" true
            (let needle = "differential" and msg = e in
             let nl = String.length needle and ml = String.length msg in
             let rec at i =
               i + nl <= ml && (String.sub msg i nl = needle || at (i + 1))
             in
             at 0)
      | Ok _ -> Alcotest.fail "divergent target passed the differential check");
      Client.close c)

let test_migrate_refuses_bad_tables () =
  with_server (fun ~dir:_ ~port _srv ->
      let c = connect port in
      create_plain c "staging";
      create_accounts c;
      (* Source must be plain, target must be a ledger table. *)
      expect_error Protocol.Exec_error "ledger source"
        (call c
           (Protocol.Migrate
              { source = "accounts"; target = "accounts"; after_key = [];
                limit = 10 }));
      expect_error Protocol.Exec_error "plain target"
        (call c
           (Protocol.Migrate
              { source = "staging"; target = "staging"; after_key = [];
                limit = 10 }));
      expect_error Protocol.Exec_error "unknown source"
        (call c
           (Protocol.Migrate
              { source = "nope"; target = "accounts"; after_key = [];
                limit = 10 }));
      Client.close c)

let () =
  Alcotest.run "server"
    [
      ( "sessions",
        [
          Alcotest.test_case "32 concurrent first hellos" `Quick
            test_first_hellos;
          Alcotest.test_case "end-to-end ledger flow" `Quick test_e2e_flow;
          Alcotest.test_case "concurrent sessions" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "transactions span requests" `Quick
            test_txn_sessions;
          Alcotest.test_case "exec returns its txn_id" `Quick test_exec_txn_id;
        ] );
      ( "failed publish",
        [
          Alcotest.test_case "stops writers (auto-commit)" `Quick
            (test_failed_publish ~failing:`Auto_commit);
          Alcotest.test_case "stops writers (explicit txn)" `Quick
            (test_failed_publish ~failing:`Commit);
          Alcotest.test_case "stops writers (2PC decision)" `Quick
            (test_failed_publish ~failing:`Decision);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "idle timeout rolls back" `Quick test_idle_timeout;
          Alcotest.test_case "graceful shutdown mid-txn" `Quick
            test_graceful_shutdown_mid_txn;
          Alcotest.test_case "busy limit" `Quick test_busy_limit;
          Alcotest.test_case "port in use" `Quick test_port_in_use;
          Alcotest.test_case "connection refused" `Quick
            test_connection_refused;
        ] );
      ( "protocol hygiene",
        [
          Alcotest.test_case "hello required" `Quick test_hello_required;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "junk desync" `Quick test_junk_desync;
        ] );
      ( "overload and pacing",
        [
          Alcotest.test_case "overload sheds typed-only" `Quick
            test_overload_shed;
          Alcotest.test_case "expired deadline refused post-lock" `Quick
            test_deadline_refusal;
          Alcotest.test_case "slow-loris header torn" `Quick test_slow_loris;
          Alcotest.test_case "mid-frame stall torn" `Quick test_mid_frame_stall;
          Alcotest.test_case "dribbled request tolerated" `Quick
            test_dribbled_request_tolerated;
        ] );
      ( "principals",
        [
          Alcotest.test_case "recorded per commit" `Quick
            test_auth_principals_recorded;
          Alcotest.test_case "rejections" `Quick test_auth_rejections;
        ] );
      ( "migration",
        [
          Alcotest.test_case "crash-resume from cursor" `Quick
            test_migrate_resume;
          Alcotest.test_case "refuses bad tables" `Quick
            test_migrate_refuses_bad_tables;
        ] );
    ]
