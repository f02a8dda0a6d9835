(** The shard coordinator: an SLW1 front-end that routes statements over
    a {!Shard_map}, runs cross-shard writes under two-phase commit with a
    durable {!Decision_log}, and publishes/verifies
    {!Trusted_store.Aggregate_digest} documents covering every shard. *)

type config = {
  host : string;
  port : int;
  dir : string;  (** coordinator state: shard map, schemas, decision log *)
  name : string;
  max_connections : int;
  idle_timeout : float;
  request_timeout : float;
  auth_secret : string option;
      (** shared-secret contents (same file as every shard): verifies
          client principal claims at hello and re-authenticates the
          verified name on the coordinator's own shard connections *)
}

val default_config : config

type t

type start_error = Wire.Listener.start_error =
  | Port_in_use of string
  | Startup of string

val start_error_to_string : start_error -> string

val start :
  ?config:config -> ?shards:(string * int) list -> unit -> (t, start_error) result
(** Recover coordinator state from [config.dir] (shard map, schema
    registry, decision log — presumed-aborting any transaction whose
    decision never hit the log; [Startup] if the log is damaged mid-file)
    and bind the listen socket. [shards]
    seeds the map on first start; passing a different topology later
    bumps the map epoch. *)

val port : t -> int
val map : t -> Shard_map.t

val bump_epoch : t -> int
(** Force a new map generation (what a topology change does), returning
    it. Requests stamped with the old epoch are then refused with
    [wrong_shard]. *)

val pending_decisions : t -> (string * int list * bool) list
(** Undelivered 2PC decisions: (gid, shards still owed, commit?). *)

val run : t -> unit
(** Serve clients through {!Wire.Listener} (failpoints [coord.accept],
    [coord.read], [coord.write]) until {!request_shutdown}; then close
    the decision log, re-raising a failpoint-injected crash as a real
    coordinator death would. *)

val request_shutdown : t -> unit

val point_before_decision : string
(** Failpoint tripped after every PREPARE is collected but before the
    decision record is logged. *)

val point_after_decision : string
(** Failpoint tripped after the decision record is durable but before
    any participant learns it. *)
