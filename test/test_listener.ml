(* Wire.Listener, the session runtime behind serve, the replica read port
   and coord, driven with a stub handler over real localhost sockets:
   the busy reject, the idle timeout, typed replies to junk and oversized
   frames, [internal] for a handler exception, and the catch-all that
   frees a session's slot whatever escapes it. *)

module Listener = Wire.Listener
module Frame = Wire.Frame
module Protocol = Wire.Protocol

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Which part of a session the stub breaks. *)
type fault = Healthy | In_setup | In_hand_off | In_cleanup

let config =
  {
    Listener.failpoints = Listener.failpoints "stub";
    host = "127.0.0.1";
    port = 0;
    max_connections = 4;
    max_frame = 1024;
    idle_timeout = 0.0;
    request_timeout = 5.0;
  }

(* The stub answers ping, quits on quit, raises on [exec "boom"] and
   hands the session off on [subscribe]. [closed] counts clean-ups. *)
let stub ?(fault = Healthy) closed =
  let boom () = failwith "stub fault" in
  {
    Listener.open_session =
      (fun sid -> if fault = In_setup then boom () else sid);
    handle =
      (fun _ ~deadline:_ ~map_epoch:_ req ->
        match req with
        | Protocol.Ping -> (Protocol.Pong, `Keep)
        | Protocol.Quit -> (Protocol.Bye, `Close)
        | Protocol.Exec { sql = "boom" } -> boom ()
        | Protocol.Subscribe _ -> (Protocol.Ok_r, `Hand_off ())
        | _ -> (Protocol.Ok_r, `Keep));
    hand_off = (fun _ () _ -> if fault = In_hand_off then boom ());
    close_session =
      (fun _ ->
        Atomic.incr closed;
        if fault = In_cleanup then boom ());
    observe = (fun _ _ ~us:_ -> ());
  }

let with_listener ?(config = config) ?fault f =
  let l =
    match Listener.bind config with
    | Ok l -> l
    | Error e -> Alcotest.fail (Listener.start_error_to_string e)
  in
  let closed = Atomic.make 0 in
  let th =
    Thread.create
      (fun () -> Listener.serve l (stub ?fault closed) ~after_drain:ignore)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Listener.request_stop l;
      Thread.join th)
    (fun () -> f l closed)

let connect l =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Listener.port l));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Frame.of_fd fd

let recv_response conn =
  match Frame.recv conn with
  | Frame.Frame payload -> (
      match Protocol.decode_response payload with
      | Ok (_, resp) -> resp
      | Error e -> Alcotest.fail ("malformed response: " ^ e))
  | _ -> Alcotest.fail "expected a response frame"

let call conn req =
  Frame.send conn (Protocol.encode_request ~id:1 req);
  recv_response conn

let pong conn = call conn Protocol.Ping = Protocol.Pong

let expect_code what code = function
  | Protocol.Error_r { code = c; _ } when c = code -> ()
  | r -> Alcotest.fail (what ^ " answered with " ^ Protocol.response_kind r)

let expect_eof what conn =
  match Frame.recv conn with
  | Frame.Eof -> ()
  | _ -> Alcotest.fail (what ^ ": the connection must close")

(* Poll [cond] for up to five seconds. *)
let eventually what cond =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.fail what
    else begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 100

let test_busy_reject () =
  with_listener ~config:{ config with max_connections = 1 } (fun l _ ->
      let a = connect l in
      Alcotest.(check bool) "first session served" true (pong a);
      let b = connect l in
      expect_code "over-limit connection" Protocol.Busy (recv_response b);
      expect_eof "busy reject" b;
      Frame.close b;
      Alcotest.(check int) "rejection counted" 1 (Listener.counts l).rejected;
      Frame.close a;
      eventually "the slot frees once the session ends" (fun () ->
          (Listener.counts l).active = 0);
      let c = connect l in
      Alcotest.(check bool) "next session served" true (pong c);
      Frame.close c)

let test_idle_timeout () =
  with_listener ~config:{ config with idle_timeout = 0.4 } (fun l closed ->
      let a = connect l in
      Alcotest.(check bool) "served" true (pong a);
      expect_eof "idle session" a;
      Frame.close a;
      eventually "clean-up ran" (fun () -> Atomic.get closed = 1))

let test_junk () =
  with_listener (fun l _ ->
      let a = connect l in
      Frame.send a "";
      let junk = "\x00\x01\x02\x03garbage" in
      ignore (Unix.write_substring a.Frame.fd junk 0 (String.length junk));
      (* The empty frame above is a well-formed header with no payload:
         undecodable, answered, and the session reads on. *)
      expect_code "empty payload" Protocol.Bad_request (recv_response a);
      expect_code "junk" Protocol.Bad_request (recv_response a);
      expect_eof "junk" a;
      Frame.close a)

let test_oversized () =
  with_listener (fun l _ ->
      let a = connect l in
      Frame.send a (String.make (config.max_frame + 1) 'x');
      expect_code "oversized frame" Protocol.Too_large (recv_response a);
      expect_eof "oversized frame" a;
      Frame.close a)

let test_handler_exception () =
  with_listener (fun l _ ->
      let a = connect l in
      expect_code "raising handler" Protocol.Internal
        (call a (Protocol.Exec { sql = "boom" }));
      Alcotest.(check bool) "session survives" true (pong a);
      Alcotest.(check bool) "quit" true (call a Protocol.Quit = Protocol.Bye);
      expect_eof "quit" a;
      Frame.close a)

(* A session that raises outside a request still closes its socket and
   frees its slot: with one slot, the next client gets in. *)
let test_escaped_exception fault trigger () =
  with_listener ~config:{ config with max_connections = 1 } ~fault (fun l _ ->
      let a = connect l in
      trigger a;
      expect_eof "failed session" a;
      Frame.close a;
      eventually "the slot frees" (fun () -> (Listener.counts l).active = 0);
      let b = connect l in
      Frame.send b (Protocol.encode_request ~id:1 Protocol.Ping);
      (match Frame.recv b with
      | Frame.Frame payload -> (
          match Protocol.decode_response payload with
          | Ok (_, Protocol.Pong) -> ()
          | Ok (_, r) ->
              Alcotest.fail
                ("second client answered " ^ Protocol.response_kind r)
          | Error e -> Alcotest.fail e)
      (* A failing set-up fails the second session too, but hangs up
         without the busy reject a leaked slot would produce. *)
      | Frame.Eof when fault = In_setup -> ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) when fault = In_setup
        ->
          ()
      | _ -> Alcotest.fail "second client got no reply");
      Frame.close b)

let send_subscribe a =
  ignore
    (call a (Protocol.Subscribe { replica_id = "r"; from_lsn = 0 })
      : Protocol.response)

let () =
  Alcotest.run "listener"
    [
      ( "sessions",
        [
          Alcotest.test_case "busy reject" `Quick test_busy_reject;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "junk answered" `Quick test_junk;
          Alcotest.test_case "oversized answered" `Quick test_oversized;
          Alcotest.test_case "handler exception" `Quick test_handler_exception;
        ] );
      ( "catch-all",
        [
          Alcotest.test_case "raise in set-up" `Quick
            (test_escaped_exception In_setup ignore);
          Alcotest.test_case "raise in hand-off" `Quick
            (test_escaped_exception In_hand_off send_subscribe);
          Alcotest.test_case "raise in clean-up" `Quick
            (test_escaped_exception In_cleanup (fun a ->
                 Alcotest.(check bool)
                   "quit" true
                   (call a Protocol.Quit = Protocol.Bye)));
        ] );
    ]
