(* Blocking TCP client for the ledger wire protocol.

   Shared by `sqlledger client` (one-shot and REPL), `bench serve`, and
   the server tests. [connect] performs the hello handshake and
   classifies the failures the CLI must distinguish: connection refused,
   protocol-version mismatch, and everything else.

   Overload-aware calling conventions (see DESIGN.md "Overload and
   chaos"):

   - [call ?deadline_s] stamps the request envelope with the remaining
     budget (the server refuses to start work past it) and bounds the
     wait for the response bytes with the same budget, so a stalled
     server or link cannot hold the caller hostage.
   - [call_retry] wraps [call] in capped-exponential retry with full
     jitter. Transport failures are retried (with a reconnect) only for
     idempotent requests; the typed [Overloaded]/[Deadline_exceeded]
     errors are retried for *any* request, because the server guarantees
     it shed them before doing any work — and [Overloaded]'s
     retry-after hint is honoured as a floor on the sleep.
   - [connect_retry] applies the same backoff to connection establishment
     (a restarting primary refuses connections for a moment; a fleet of
     clients must not thundering-herd it). *)

type t = {
  mutable conn : Frame.conn;
  mutable next_id : int;
  mutable server : string;
  mutable database : string;
  host : string;
  port : int;
  client_name : string;
  principal : string option;  (* authenticated identity for the session *)
  secret : string option;  (* shared-secret contents backing the claim *)
  mutable retries : int;  (* attempts beyond the first, all reasons *)
  rng : int64 ref;  (* splitmix64 state for retry jitter *)
}

type connect_error =
  | Refused of string  (** nothing listening / unreachable *)
  | Mismatch of string  (** server speaks another protocol version *)
  | Auth of string  (** server rejected the principal claim *)
  | Handshake of string  (** rejected hello (busy, junk reply, ...) *)

let connect_error_to_string = function
  | Refused m | Mismatch m | Auth m | Handshake m -> m

let server t = t.server
let database t = t.database
let retries t = t.retries

let close t =
  (try Frame.send t.conn (Protocol.encode_request ~id:t.next_id Protocol.Quit)
   with Sys_error _ | Unix.Unix_error _ -> ());
  Frame.close t.conn

(* ------------------------------------------------------------------ *)
(* Jitter *)

(* splitmix64, self-contained so the wire library stays dependency-light.
   Seeded from the pid + clock by default; a caller that needs a
   reproducible schedule passes [?seed] to the retry entry points. *)
let mix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform in [0, 1): the state advances by one fixed increment per draw
   (splitmix64's stream), the output is the mixed state. *)
let next_unit rng =
  rng := Int64.add !rng 0x9E3779B97F4A7C15L;
  let v = mix64 !rng in
  Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.0

let default_seed () =
  (Unix.getpid () * 1_000_003)
  lxor int_of_float (Unix.gettimeofday () *. 1e6)

(* Full jitter over a capped-exponential ceiling: sleep anywhere in
   [0, min(max, min * 2^attempt)], never below [floor] (the server's
   retry-after hint). Uniformly spreading the whole interval is what
   desynchronises a convoy of clients that all got shed at once. *)
let backoff_sleep rng ~attempt ~backoff_min ~backoff_max ~floor =
  let cap = Float.min backoff_max (backoff_min *. (2. ** float_of_int attempt)) in
  let d = Float.max floor (next_unit rng *. cap) in
  if d > 0. then Thread.delay d

(* ------------------------------------------------------------------ *)
(* One exchange *)

let deadline_ms_of seconds = max 1 (int_of_float (ceil (seconds *. 1000.)))

(* One request/response exchange. Transport and framing failures come
   back as [Error]; a server [Error_r] is a successful exchange and is
   returned as [Ok] for the caller to interpret. [?deadline_s] is the
   caller's remaining budget: it rides the envelope so the server can
   refuse stale work, and it bounds the local wait for the response. *)
let call ?deadline_s ?map_epoch t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  let deadline_ms = Option.map deadline_ms_of deadline_s in
  let deadline_at = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  match
    Frame.send t.conn (Protocol.encode_request ~id ?deadline_ms ?map_epoch req)
  with
  | exception Sys_error e -> Error ("send failed: " ^ e)
  | exception Unix.Unix_error (err, _, _) ->
      Error ("send failed: " ^ Unix.error_message err)
  | () -> (
      (* The whole response, first byte included, within the budget. *)
      let read_timeout =
        Option.map (fun at -> at -. Unix.gettimeofday ()) deadline_at
      in
      match Frame.recv ?read_timeout t.conn with
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
          Error "deadline exceeded waiting for the response"
      | exception Unix.Unix_error (err, _, _) ->
          Error ("receive failed: " ^ Unix.error_message err)
      | Frame.Eof -> Error "server closed the connection"
      | Frame.Truncated -> Error "connection torn mid-frame"
      | Frame.Junk b -> Error ("stream desynchronised (junk " ^ String.escaped b ^ ")")
      | Frame.Oversized { size; limit } ->
          Error (Printf.sprintf "response frame too large (%d > %d)" size limit)
      | Frame.Frame payload -> (
          match Protocol.decode_response payload with
          | Error e -> Error ("malformed response: " ^ e)
          | Ok (rid, resp) ->
              if rid <> id then
                Error
                  (Printf.sprintf "response id %d does not match request id %d"
                     rid id)
              else Ok resp))

(* ------------------------------------------------------------------ *)
(* Connecting *)

let dial ~host ~port =
  let addr =
    try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | { Unix.h_addr_list; _ } -> Unix.ADDR_INET (h_addr_list.(0), port))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Refused
           (Printf.sprintf "cannot connect to %s:%d: %s" host port
              (Unix.error_message err)))
  | () -> Ok fd

(* The handshake is always deadline-bounded: a healthy server answers
   Hello immediately, so an unanswered one means a dead or byte-eating
   link — without a bound, every caller (including connect_retry, whose
   budget is only consulted between attempts) would block forever on a
   held connection. *)
let default_hello_timeout = 30.0

let handshake ?(deadline_s = default_hello_timeout) t =
  let fail e =
    Frame.close t.conn;
    Error e
  in
  let auth =
    match (t.principal, t.secret) with
    | Some p, Some s -> Some (Protocol.principal_tag ~secret:s p)
    | Some p, None ->
        (* No secret: send the bare claim anyway; the server's reject
           names the real problem instead of a silent anonymous session. *)
        ignore p;
        None
    | None, _ -> None
  in
  match
    call ~deadline_s t
      (Protocol.Hello
         {
           version = Protocol.version;
           client = t.client_name;
           principal = t.principal;
           auth;
         })
  with
  | Error e -> fail (Handshake ("handshake failed: " ^ e))
  | Ok (Protocol.Welcome { version; server; database }) ->
      if version <> Protocol.version then
        fail
          (Mismatch
             (Printf.sprintf "protocol version mismatch: client %d, server %d"
                Protocol.version version))
      else begin
        t.server <- server;
        t.database <- database;
        Ok t
      end
  | Ok (Protocol.Error_r { code = Protocol.Version_mismatch; message; _ }) ->
      fail (Mismatch message)
  | Ok (Protocol.Error_r { code = Protocol.Auth_failed; message; _ }) ->
      fail (Auth message)
  | Ok (Protocol.Error_r { message; _ }) ->
      fail (Handshake ("server rejected connection: " ^ message))
  | Ok _ -> fail (Handshake "unexpected reply to hello")

let connect ?(client = "sqlledger") ?principal ?secret ?seed
    ?(hello_timeout_s = default_hello_timeout) ~host ~port () =
  match dial ~host ~port with
  | Error e -> Error e
  | Ok fd ->
      handshake ~deadline_s:hello_timeout_s
        {
          conn = Frame.of_fd fd;
          next_id = 1;
          server = "?";
          database = "?";
          host;
          port;
          client_name = client;
          principal;
          secret;
          retries = 0;
          rng =
            ref
              (Int64.of_int
                 (match seed with Some s -> s | None -> default_seed ()));
        }

(* Jittered capped-exponential retry around connection establishment.
   [Mismatch] is never retried (the peer will not change protocols), nor
   is [Auth] (the credentials will not improve on their own); refusals
   and busy/overloaded handshakes are, until the attempts or the
   deadline budget run out. *)
let connect_retry ?(client = "sqlledger") ?principal ?secret ?seed
    ?(max_attempts = 5) ?(backoff_min = 0.05) ?(backoff_max = 2.0) ?deadline_s
    ~host ~port () =
  let deadline_at = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  let rng =
    (* One jitter stream across the whole attempt sequence; the connected
       [t] inherits it so call_retry continues where connect left off. *)
    ref (Int64.of_int (match seed with Some s -> s | None -> default_seed ()))
  in
  let rec go attempt =
    let hello_timeout_s =
      (* Each attempt's handshake is bounded by whichever is tighter:
         the default hello timeout or what is left of the caller's
         budget (floored so a nearly-spent budget still sends one
         quick probe rather than an instant failure). *)
      match deadline_at with
      | None -> default_hello_timeout
      | Some at ->
          Float.min default_hello_timeout
            (Float.max 0.05 (at -. Unix.gettimeofday ()))
    in
    match
      connect ~client ?principal ?secret ~seed:(Int64.to_int !rng)
        ~hello_timeout_s ~host ~port ()
    with
    | Ok t ->
        t.rng := !rng;
        Ok t
    | Error ((Mismatch _ | Auth _) as e) -> Error e
    | Error e ->
        let out_of_budget =
          match deadline_at with
          | Some at -> Unix.gettimeofday () >= at
          | None -> false
        in
        if attempt + 1 >= max_attempts || out_of_budget then Error e
        else begin
          backoff_sleep rng ~attempt ~backoff_min ~backoff_max ~floor:0.;
          go (attempt + 1)
        end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Retrying calls *)

(* Requests that are safe to re-send after a transport failure, where the
   client cannot know whether the server executed the lost exchange:
   pure reads plus the handshake. Writes are excluded — a torn
   connection after an INSERT leaves its outcome unknown, and resending
   could double-apply. (Typed [Overloaded]/[Deadline_exceeded] replies
   are a different matter: the server guarantees it did no work, so
   those are retried for every request kind.) *)
let is_idempotent = function
  | Protocol.Hello _ | Protocol.Ping | Protocol.Query _ | Protocol.Receipt _
  | Protocol.Verify _ | Protocol.Stats
  (* A migrate batch skips target keys that already exist, so replaying
     a batch whose reply was lost re-inserts nothing. *)
  | Protocol.Migrate _ ->
      true
  | _ -> false

let reconnect t =
  Frame.close t.conn;
  match dial ~host:t.host ~port:t.port with
  | Error e -> Error (connect_error_to_string e)
  | Ok fd -> (
      t.conn <- Frame.of_fd fd;
      match handshake t with
      | Ok _ -> Ok ()
      | Error e -> Error (connect_error_to_string e))

(* [?map_epoch] supplies the shard-map epoch to stamp on each attempt
   (re-read per attempt, so a refresh between attempts takes effect);
   [?on_wrong_shard] is called when the server refuses the routing as
   stale (passing the server's current epoch from the error) and should
   refetch the shard map, returning [true] to retry with the fresh
   routing or [false] to surface the error. [wrong_shard] is always
   refused before any work, so the retry is safe for every request
   kind — like [Overloaded], unlike transport errors. *)
let call_retry ?deadline_s ?(max_attempts = 5) ?(backoff_min = 0.01)
    ?(backoff_max = 1.0) ?map_epoch ?on_wrong_shard t req =
  let deadline_at = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s in
  let remaining () =
    Option.map (fun at -> at -. Unix.gettimeofday ()) deadline_at
  in
  let out_of_budget () =
    match remaining () with Some r -> r <= 0. | None -> false
  in
  let rec go attempt =
    let epoch_now =
      match map_epoch with Some get -> get () | None -> None
    in
    let result = call ?deadline_s:(remaining ()) ?map_epoch:epoch_now t req in
    let retry ~floor ~reconnect:needs_conn =
      if attempt + 1 >= max_attempts || out_of_budget () then result
      else begin
        t.retries <- t.retries + 1;
        backoff_sleep t.rng ~attempt ~backoff_min ~backoff_max ~floor;
        if needs_conn then
          match reconnect t with
          | Ok () -> go (attempt + 1)
          | Error _ ->
              if attempt + 2 >= max_attempts || out_of_budget () then result
              else go (attempt + 1)
        else go (attempt + 1)
      end
    in
    match result with
    | Ok (Protocol.Error_r { code = Protocol.Overloaded; retry_after_ms; _ }) ->
        let floor =
          match retry_after_ms with
          | Some ms -> float_of_int ms /. 1000.
          | None -> 0.
        in
        retry ~floor ~reconnect:false
    | Ok (Protocol.Error_r { code = Protocol.Deadline_exceeded; _ }) ->
        (* Refused unexecuted: safe to retry while budget remains. *)
        retry ~floor:0. ~reconnect:false
    | Ok
        (Protocol.Error_r
           { code = Protocol.Wrong_shard; map_epoch = server_epoch; _ }) -> (
        (* The routing was stale, nothing executed. Refresh the map
           through the caller's hook, then retry with the new epoch. *)
        match on_wrong_shard with
        | Some refresh when refresh ~server_epoch ->
            retry ~floor:0. ~reconnect:false
        | _ -> result)
    | Error _ when is_idempotent req -> retry ~floor:0. ~reconnect:true
    | other -> other
  in
  go 0
