(** The one session runtime behind every SLW1 daemon: [serve], the
    replica read port and [coord].

    It binds, accepts (through an injectable failpoint), refuses
    connections past [max_connections] with a typed [busy] reply, and
    runs one thread per session. A session polls in 0.2 s slices, so an
    idle timeout or a drain is noticed promptly, and reads each frame
    under a whole-frame deadline ([request_timeout]; SO_RCVTIMEO, probed
    once at bind, is a kernel-side backstop). It decodes the envelope and
    answers junk, oversized and undecodable frames with typed errors and
    a handler exception with [internal]. Whatever escapes a session, its
    socket is closed and its slot freed. A drain joins every session. *)

type failpoints = {
  name : string;  (** the daemon, as named in its busy reply *)
  accept : string;
  read : string;
  write : string;
}

val failpoints : string -> failpoints
(** ["<name>.accept"], ["<name>.read"] and ["<name>.write"], registered.
    Called once per daemon, at module load, so [sqlledger failpoints]
    lists them. An injected error tears one connection; an injected
    crash stops the daemon, as a real crash would. *)

type config = {
  failpoints : failpoints;
  host : string;
  port : int;  (** 0 picks a free port; see {!port} *)
  max_connections : int;
  max_frame : int;
  idle_timeout : float;  (** seconds between requests; 0 = unlimited *)
  request_timeout : float;  (** seconds for one whole frame; 0 = unlimited *)
}

type start_error = Port_in_use of string | Startup of string

val start_error_to_string : start_error -> string

type t

val bind : config -> (t, start_error) result
val port : t -> int

type 'h action = [ `Keep | `Close | `Hand_off of 'h ]
(** After the reply: read on, hang up, or run {!handler.hand_off}. *)

type ('s, 'h) handler = {
  open_session : int -> 's;  (** per-session state, given the session id *)
  handle :
    's ->
    deadline:float option ->
    map_epoch:int option ->
    Protocol.request ->
    Protocol.response * 'h action;
      (** [deadline] is absolute: the envelope's budget counted from the
          request's decode *)
  hand_off : 's -> 'h -> Frame.conn option -> unit;
      (** takes over the session thread after a [`Hand_off] reply;
          [None] when that reply could not be sent *)
  close_session : 's -> unit;  (** clean-up, however the session ended *)
  observe : Protocol.request -> Protocol.response -> us:float -> unit;
      (** once per handled request, timed from its decode to its send *)
}

val serve :
  ?tick:(unit -> unit) -> after_drain:(unit -> unit) -> t -> ('s, 'h) handler -> unit
(** The accept loop, until {!request_stop}; then drain, run
    [after_drain] and re-raise a crash recorded by {!crash}. [tick] runs
    on the accept thread at least every 0.2 s. *)

val request_stop : t -> unit
(** Async-signal-safe: only sets an atomic. *)

val stopping : t -> bool

val crash : t -> exn -> unit
(** Record a fault-injected crash and stop. *)

val thread_failed : string -> exn -> unit
(** [thread_failed who e] prints [sqlledger: <who> thread failed: <e>] on
    stderr: what escapes a background thread's body is reported, never
    dropped. *)

type counts = { opened : int; active : int; rejected : int }

val counts : t -> counts
