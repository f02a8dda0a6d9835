(** Whole-database snapshots as JSON files.

    A snapshot is the substrate for the paper's backup-based workflows: the
    "earlier backups of the database" that §3.7's recovery from tampering
    assumes, and the restore operations of §3.6. A snapshot captures every
    table (ledger and regular, including history tables and system tables),
    the Database Ledger state, and the allocator counters; loading it yields
    an independent database equal to the original.

    The format is self-describing JSON wrapped in a checksummed container
    (a [SQLLEDGER-SNAPSHOT v2] header carrying a CRC-32 and byte length),
    so a reader can reject a torn or bit-flipped file before parsing it.
    The checksum is an *availability* device only — it is what lets crash
    recovery fall back to an older generation. It is no substitute for
    verification: a restored snapshot must still be verified against
    trusted digests, exactly as the paper requires of restored backups.

    Saves are crash-safe: the container is written to [path].tmp, fsynced,
    and renamed over [path], with the previous generation retained as
    [path].prev until the new one is durable. *)

val save : Database.t -> Sjson.t
(** Serialise the full database state. The snapshot records the WAL position
    at which it was taken ([wal_lsn]) so that {!Wal_replay} can resume the
    log from that point. *)

val wal_lsn : Sjson.t -> int
(** WAL position recorded in a snapshot (0 when absent). *)

val save_to_file : Database.t -> path:string -> unit
(** Atomically write the checksummed container (tmp + fsync + rename,
    keeping [path].prev). Writes are routed through the ["snapshot.*"]
    failpoints. *)

val read_file : string -> (Sjson.t, string) result
(** Read a snapshot file back, verifying the container's length and
    checksum with {!Fault.Crc_frame.check}. [Error] on a torn, truncated,
    or corrupted file, or one without the container — the caller can then
    fall back to another generation. *)

val load :
  ?clock:(unit -> float) -> ?wal_path:string -> Sjson.t ->
  (Database.t, string) result
(** Reconstruct a database. [clock] defaults to the wall clock; [wal_path]
    attaches a fresh file-backed WAL (truncating) so the loaded database
    continues durably. *)

val load_from_file :
  ?clock:(unit -> float) -> ?wal_path:string -> path:string -> unit ->
  (Database.t, string) result
