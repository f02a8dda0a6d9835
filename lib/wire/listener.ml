(* The session runtime shared by every SLW1 daemon (see listener.mli).
   A session's slot in [sessions] is taken under [sm] before its thread
   starts and released by that thread as its very last step, so a drain
   that joins the whole table waits for every socket to be closed. *)

type failpoints = {
  name : string;
  accept : string;
  read : string;
  write : string;
}

let failpoints name =
  let fp =
    {
      name;
      accept = name ^ ".accept";
      read = name ^ ".read";
      write = name ^ ".write";
    }
  in
  List.iter Fault.register [ fp.accept; fp.read; fp.write ];
  fp

type config = {
  failpoints : failpoints;
  host : string;
  port : int;
  max_connections : int;
  max_frame : int;
  idle_timeout : float;
  request_timeout : float;
}

type start_error = Port_in_use of string | Startup of string

let start_error_to_string = function Port_in_use m | Startup m -> m

type 'h action = [ `Keep | `Close | `Hand_off of 'h ]

type ('s, 'h) handler = {
  open_session : int -> 's;
  handle :
    's ->
    deadline:float option ->
    map_epoch:int option ->
    Protocol.request ->
    Protocol.response * 'h action;
  hand_off : 's -> 'h -> Frame.conn option -> unit;
  close_session : 's -> unit;
  observe : Protocol.request -> Protocol.response -> us:float -> unit;
}

type counts = { opened : int; active : int; rejected : int }

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  actual_port : int;
  rcvtimeo : bool;  (* set SO_RCVTIMEO on each session socket *)
  stop : bool Atomic.t;
  crashed : exn option Atomic.t;
  sessions : (int, Thread.t) Hashtbl.t;
  sm : Mutex.t;
  mutable accepted : int;  (* also the last session id handed out *)
  mutable refused : int;
}

let port t = t.actual_port
let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let crash t e =
  Atomic.set t.crashed (Some e);
  Atomic.set t.stop true

let counts t =
  Mutex.protect t.sm (fun () ->
      {
        opened = t.accepted;
        active = Hashtbl.length t.sessions;
        rejected = t.refused;
      })

let bind cfg =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  let addr = Printf.sprintf "%s:%d" cfg.host cfg.port in
  let fail e =
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    Error e
  in
  match
    Unix.bind lsock
      (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port))
  with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      fail (Port_in_use (addr ^ ": address already in use"))
  | exception Unix.Unix_error (e, _, _) ->
      fail (Startup ("cannot bind " ^ addr ^ ": " ^ Unix.error_message e))
  | exception Failure e -> fail (Startup ("cannot bind " ^ addr ^ ": " ^ e))
  | () ->
      Unix.listen lsock 64;
      let actual_port =
        match Unix.getsockname lsock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      (* Probe SO_RCVTIMEO once, here, not from racing session threads.
         It is only a kernel-side backstop for [Frame.recv]'s whole-frame
         deadline (it is per read, so a dribbling peer resets it); on the
         listen socket it merely bounds an accept [select] found ready. *)
      let rcvtimeo =
        cfg.request_timeout > 0.0
        &&
        match Unix.setsockopt_float lsock Unix.SO_RCVTIMEO cfg.request_timeout with
        | () -> true
        | exception Unix.Unix_error _ ->
            prerr_endline
              "sqlledger: SO_RCVTIMEO is not supported here; mid-frame \
               stalls are bounded by the select-based frame deadline instead";
            false
      in
      Ok
        {
          cfg;
          lsock;
          actual_port;
          rcvtimeo;
          stop = Atomic.make false;
          crashed = Atomic.make None;
          sessions = Hashtbl.create 16;
          sm = Mutex.create ();
          accepted = 0;
          refused = 0;
        }

(* ------------------------------------------------------------------ *)
(* Sessions *)

(* [true] when the reply went out; a torn write ends only this session,
   an injected crash ends the daemon. *)
let send t conn ~id resp =
  let point = t.cfg.failpoints.write in
  match Frame.send ~point conn (Protocol.encode_response ~id resp) with
  | () -> true
  | exception Fault.Injected_error _ -> false
  | exception (Fault.Injected_crash _ as e) ->
      crash t e;
      false
  | exception (Sys_error _ | Unix.Unix_error _) -> false

(* Answer one frame; [true] to keep reading. *)
let request t h s conn payload =
  match Protocol.decode_request payload with
  | Error msg ->
      send t conn ~id:0 (Protocol.error Protocol.Bad_request "%s" msg)
  | Ok (id, deadline_ms, map_epoch, req) -> (
      let t0 = Unix.gettimeofday () in
      (* The envelope's budget runs on *our* clock from the decode: only
         durations travel on the wire, never timestamps. *)
      let deadline =
        Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.)) deadline_ms
      in
      match h.handle s ~deadline ~map_epoch req with
      | exception (Fault.Injected_crash _ as e) ->
          crash t e;
          false
      | exception e ->
          let resp =
            Protocol.error Protocol.Internal "%s" (Printexc.to_string e)
          in
          h.observe req resp ~us:((Unix.gettimeofday () -. t0) *. 1e6);
          send t conn ~id resp
      | resp, action -> (
          h.observe req resp ~us:((Unix.gettimeofday () -. t0) *. 1e6);
          let sent = send t conn ~id resp in
          match action with
          | `Keep -> sent
          | `Close -> false
          | `Hand_off x ->
              h.hand_off s x (if sent then Some conn else None);
              false))

(* Poll in short slices so a drain or the idle timeout is noticed. *)
let session_loop t h s conn =
  let read_timeout =
    if t.cfg.request_timeout > 0.0 then Some t.cfg.request_timeout else None
  in
  let slice = 0.2 in
  let idle = ref 0.0 in
  let reading = ref true in
  while !reading && not (Atomic.get t.stop) do
    if Frame.poll conn slice then begin
      idle := 0.0;
      reading :=
        match
          Frame.recv ~point:t.cfg.failpoints.read ~max_frame:t.cfg.max_frame
            ?read_timeout conn
        with
        | Frame.Frame payload -> request t h s conn payload
        | Frame.Eof | Frame.Truncated -> false
        | Frame.Junk bytes ->
            ignore
              (send t conn ~id:0
                 (Protocol.error Protocol.Bad_request
                    "stream desynchronised (junk %S)" bytes));
            false
        | Frame.Oversized { size; limit } ->
            ignore
              (send t conn ~id:0
                 (Protocol.error Protocol.Too_large
                    "frame of %d bytes exceeds limit %d" size limit));
            false
        | exception (Fault.Injected_crash _ as e) ->
            crash t e;
            false
        | exception (Fault.Injected_error _ | Unix.Unix_error _) -> false
    end
    else begin
      idle := !idle +. slice;
      if t.cfg.idle_timeout > 0.0 && !idle >= t.cfg.idle_timeout then
        reading := false
    end
  done

let thread_failed who e =
  prerr_endline
    (Printf.sprintf "sqlledger: %s thread failed: %s" who (Printexc.to_string e))

(* A session thread. Whatever escapes set-up, the requests, a hand-off or
   clean-up is reported, and the socket and the slot are released
   regardless, so a dead session never leaks its fd or its slot. *)
let run_session t h sid fd =
  let conn = Frame.of_fd fd in
  (try
     if t.rcvtimeo then
       (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.request_timeout
        with Unix.Unix_error _ -> ());
     let s = h.open_session sid in
     Fun.protect
       ~finally:(fun () -> h.close_session s)
       (fun () -> session_loop t h s conn)
   with
  | (Fault.Injected_crash _ as e)
  | Fun.Finally_raised (Fault.Injected_crash _ as e) ->
      crash t e
  | e ->
      prerr_endline
        (Printf.sprintf "sqlledger: %s session %d failed: %s"
           t.cfg.failpoints.name sid (Printexc.to_string e)));
  Frame.close conn;
  Mutex.protect t.sm (fun () -> Hashtbl.remove t.sessions sid)

let spawn t h fd =
  let admitted =
    Mutex.protect t.sm (fun () ->
        let free = Hashtbl.length t.sessions < t.cfg.max_connections in
        if free then begin
          t.accepted <- t.accepted + 1;
          let sid = t.accepted in
          Hashtbl.add t.sessions sid
            (Thread.create (fun () -> run_session t h sid fd) ())
        end
        else t.refused <- t.refused + 1;
        free)
  in
  if not admitted then begin
    let conn = Frame.of_fd fd in
    (try
       Frame.send conn
         (Protocol.encode_response ~id:0
            (Protocol.error Protocol.Busy "%s at its %d-connection limit"
               t.cfg.failpoints.name t.cfg.max_connections))
     with Sys_error _ | Unix.Unix_error _ -> ());
    Frame.close conn
  end

(* ------------------------------------------------------------------ *)
(* Accept loop and drain *)

let serve ?(tick = ignore) ~after_drain t h =
  while not (Atomic.get t.stop) do
    tick ();
    match Unix.select [ t.lsock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Fault.trip t.cfg.failpoints.accept with
        | exception Fault.Injected_error _ -> (
            (* A torn accept: take the connection and drop it. *)
            match Unix.accept t.lsock with
            | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ())
        | exception (Fault.Injected_crash _ as e) -> crash t e
        | () -> (
            match Unix.accept t.lsock with
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
                ()
            | fd, _ -> spawn t h fd))
  done;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  List.iter Thread.join
    (Mutex.protect t.sm (fun () ->
         Hashtbl.fold (fun _ th acc -> th :: acc) t.sessions []));
  after_drain ();
  match Atomic.get t.crashed with Some e -> raise e | None -> ()
