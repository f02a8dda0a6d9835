(** The coordinator's append-only 2PC decision log.

    CRC-framed records, torn-tail-truncated on load; mid-file damage is
    refused. [Start] with no
    [Decision] recovers as presumed abort; [Decision] with no [End]
    re-sends the outcome until every participant acks. Appends route
    through the ["coord.dlog"] failpoint. *)

type record =
  | Start of { gid : string; participants : int list }
  | Decision of { gid : string; commit : bool }
  | End of { gid : string }

type t

val point : string
(** The failpoint name guarding appends. *)

exception Corrupt of string

val load : path:string -> record list * t
(** Parse the surviving records (truncating any torn tail in place) and
    open the log for appending. A damaged record followed by another
    non-blank line raises [Corrupt], naming the byte offset, and leaves
    the file untouched. *)

val append : t -> record -> unit
(** [Start] and [Decision] are fsynced before returning; [End] is only
    flushed. *)

val close : t -> unit

(**/**)

val parse_all : string -> record list * int
(** Records decoded from a raw byte string plus the clean-prefix length —
    exposed for torn-tail tests. *)
