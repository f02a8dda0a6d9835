(** Append-only write-ahead log with monotonically increasing LSNs.

    The log lives in memory and can additionally be mirrored to a file (one
    record per line), which is what crash-recovery replays. On-disk records
    are {!Fault.Crc_frame} frames: [#crc32 len lsn payload] for one record,
    [@crc32 len first_lsn count ...] for a batch, so that recovery can tell
    a torn tail (crash mid-append) from corruption in the middle of the
    file.

    Only {!append_batch} fsyncs: it is the durability point of every
    transaction. A file-backed log follows the fsyncgate rule: the first
    write or fsync that raises breaks the log, and every later {!append},
    {!append_batch} or {!sync} re-raises that first exception. *)

type t

type lsn = int

val create : ?path:string -> ?append:bool -> ?first_lsn:lsn -> unit -> t
(** When [path] is given, every append is written through and flushed to the
    file (truncating any existing file, unless [append] is set — then new
    records are written after the existing contents, which the caller is
    expected to have validated and whose numbering [first_lsn] must
    continue; the replica's durable copy reopens this way). [first_lsn]
    (default 1) is the LSN the next append receives — compaction passes the
    continuation of the previous log's numbering so LSNs stay globally
    monotonic across truncations. *)

val append : t -> Log_record.t -> lsn
(** Write and flush one [#] frame, without an fsync; returns its LSN. The
    next {!append_batch} or {!sync} makes it durable. Writes go through the
    ["wal.append"] failpoint. *)

val append_batch : t -> Log_record.t list -> lsn list
(** Append the records as one [@] frame
    ([@crc len first_lsn count plen payload ...]) and fsync once. Because
    the frame is one checksummed line, a crash mid-append tears the whole
    batch: recovery replays either all of it or none of it, never a
    prefix. Returns the records' consecutive LSNs. Writes go through the
    ["wal.batch_append"] failpoint, the fsync through ["wal.batch_sync"].
    [append_batch t []] writes nothing, but still raises on a broken
    log. *)

val broken : t -> exn option
(** The exception that broke the log, if a write or fsync has failed. *)

val last_lsn : t -> lsn
(** [first_lsn - 1] when empty (0 for a fresh log). *)

val advance_to : t -> lsn -> unit
(** Ensure the next append's LSN is strictly greater than the argument.
    Recovery calls this after replaying records so re-attached logs never
    reuse an LSN already on disk. *)

val records : t -> (lsn * Log_record.t) list
(** All records, in LSN order. *)

val records_from : t -> lsn -> (lsn * Log_record.t) list
(** Records with LSN strictly greater than the argument. Costs O(matching
    records): this is the primary's per-replica tail read. *)

val first_available : t -> lsn option
(** LSN of the oldest record still held in memory ([None] when empty). A
    log re-attached after compaction or recovery starts past LSN 1, so a
    subscriber asking for history before this point must be fed a snapshot
    instead of a stream. *)

val sync : t -> unit
(** Flush and fsync the backing file (no-op for in-memory logs): the
    barrier of the server's drain and of the replica's applied batches.
    Commits are made durable by {!append_batch}. *)

val close : t -> unit

type loaded = {
  l_records : (lsn * Log_record.t) list;
  l_clean : int;
      (** byte length of the clean prefix: the records' frames, without a
          dropped torn tail *)
}

val load_ex : string -> (loaded, string) result
(** Read a log file back. A frame that fails to decode is a *torn tail* if
    nothing but blank space follows its line — it is dropped, and
    [l_clean] stops short of it. A bad frame followed by further data is
    mid-file corruption: [Error] with the failing record's position, its
    byte offset and the last good LSN. LSNs must strictly increase. *)

val load : string -> ((lsn * Log_record.t) list, string) result
(** [load_ex] without the clean-prefix length. *)

(** Incremental tailing of a live log file. A cursor remembers how many
    bytes it has consumed, so each {!Tail.poll} reads and decodes only the
    records appended since the previous poll — O(new), where re-loading
    the whole file per poll (the old [Replica.feed_from_file] behaviour)
    was O(file). *)
module Tail : sig
  type cursor

  val create : ?after:lsn -> string -> cursor
  (** Cursor at the start of the file; records with LSN at or below
      [after] (default 0) are parsed but not redelivered, so a restarted
      tailer resumes from its durable position. *)

  val poll : cursor -> ((lsn * Log_record.t) list, string) result
  (** New complete records since the last poll, in LSN order. A final
      line missing its newline (still being written, or torn by a crash)
      is left for the next poll. Errors when a complete line fails to
      decode or the file shrank below the cursor — the file no longer
      matches the cursor's history and the caller must resynchronise. *)

  val path : cursor -> string

  val position : cursor -> lsn
  (** LSN of the last record delivered (or the initial [after]). *)
end
