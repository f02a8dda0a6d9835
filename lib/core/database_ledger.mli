(** The Database Ledger (paper §2.2, §3.3): a blockchain over transaction
    entries, physically stored in two system tables.

    Commit entries are first appended to an in-memory queue (mirrored by the
    COMMIT WAL record, §3.3.2) and flushed to the
    "database_ledger_transactions" system table at checkpoints. A block
    closes when it reaches [block_size] transactions or when a digest is
    generated, whichever comes first; closing computes the Merkle root over
    the block's entry hashes and chains it to the previous block's hash.

    A transaction gets its block and ordinal at commit, and its COMMIT
    record carries them. Every commit, prepare, decision and block close
    reaches the WAL through {!publish}: one frame and one fsync. *)

type t

val create :
  ?block_size:int ->
  ?wal_path:string ->
  ?signing_seed:string ->
  ?commit_cost_us:float ->
  database_id:string ->
  db_create_time:float ->
  unit ->
  t
(** [block_size] defaults to 100_000 (the paper's block size).
    [signing_seed], when given, enables per-block Lamport signatures for
    receipts (§5.1). [commit_cost_us] (default 0) simulates the durable
    commit latency of a production engine — the paper measures ~125 us for
    SQL Server's commit path (§4.1.2) — so throughput comparisons can be
    calibrated against a realistic baseline. *)

val block_size : t -> int
val database_id : t -> string
val db_create_time : t -> float
val wal : t -> Aries.Wal.t

val attach_wal : t -> string -> unit
(** Close the current log and start a fresh file-backed one (truncating).
    Callers must persist a snapshot first — the old log's history is gone. *)

val next_txn_id : t -> int
(** Allocate a fresh transaction id. Nothing is logged: a transaction
    reaches the WAL only when it commits or prepares. Raises the log's
    failure when the WAL is broken — no transaction may begin on it. *)

val publish : t -> Aries.Log_record.t list -> unit
(** The durability point of every commit, prepare, decision and block
    close: append the records as one {!Aries.Wal.append_batch} frame
    under one fsync. A commit is acknowledged only after this returns.
    Raises the log's first failure on a broken WAL; the in-memory effects
    already staged cannot be unwound, so the caller serves nothing
    written after the failure. *)

val stage_commit :
  t ->
  txn_id:int ->
  commit_ts:float ->
  user:string ->
  table_roots:(int * string) list ->
  Types.txn_entry * Aries.Log_record.t list
(** The validate-and-stage half of a commit: every in-memory effect
    happens now — ordinal assignment, queue push, block close when the
    block fills — and the WAL records (COMMIT, then BLOCK_CLOSE when the
    block filled) are returned for {!publish}, alone or in a commit
    leader's batch. The records must reach the log in order before
    anything else is appended. *)

val accumulate_batch : t -> Types.txn_entry list -> unit
(** Feed a published batch into the block accumulator: computes the
    entries' ledger hashes — the Merkle leaves of a future block close —
    in one pass so closing the block does not recompute them. Safe to call
    from the commit leader without the engine's writer lock; purely a
    cache, misses recompute. *)

val checkpoint : t -> unit
(** Log a CHECKPOINT record and flush queued entries to the transactions
    system table. *)

val close_current_block : t -> unit
(** Force-close the current block if it contains transactions, publishing
    its BLOCK_CLOSE. Raises on a broken log, even for an empty block. *)

val generate_digest : t -> time:float -> Digest.t option
(** Close the current block (if non-empty) and return a digest of the
    latest block; [None] when no transaction was ever committed. Raises
    on a broken log. *)

val entry_hash : Types.txn_entry -> string
(** Raw 32-byte hash of a transaction entry — LEDGERHASH over (txn_id,
    block_id, ordinal, commit_ts, user, table_roots JSON), exactly what the
    verification queries recompute. *)

val block_hash : Types.block -> string
(** Raw hash of a block — LEDGERHASH over (block_id, prev_hash hex,
    txn_root hex, txn_count, closed_ts). *)

val blocks : t -> Types.block list
(** Closed blocks in block-id order, read back from the system table. *)

val find_block : t -> block_id:int -> Types.block option
(** Point lookup of a closed block by id. *)

val entries : t -> Types.txn_entry list
(** All transaction entries (flushed ∪ queued), in (block, ordinal) order. *)

val entries_of_block : t -> block_id:int -> Types.txn_entry list

val find_entry : t -> txn_id:int -> Types.txn_entry option

val queue_length : t -> int
val last_commit_ts : t -> float
val current_block_id : t -> int

val block_signature :
  t -> block_id:int -> (Ledger_crypto.Lamport.public_key * Ledger_crypto.Lamport.signature) option
(** Signature over the block's hash under the block's one-time key; [None]
    when the ledger has no signing seed or the block is not closed.
    Recomputes on every call — the uncached reference path. *)

(** {1 Receipt service caches (§5.1 at production rate)}

    A closed block is immutable, so its materialized Merkle tree,
    ordinal-indexed entries and one-time signature are computed once and
    shared by every receipt issued for the block. Blocks closed by the
    commit path at receipt scale (≤ 4096 entries) are cached eagerly at
    close, from the entry hashes the group-commit leader already warmed;
    anything else materializes lazily on the first receipt request. The
    cache is bounded (FIFO over whole blocks) and shared across
    record-copy snapshots, so receipts served from a published snapshot
    or a replica hit the same trees. *)

val block_proofs : t -> block_id:int -> (Types.block * Merkle.Tree.t) option
(** The cached block header and materialized Merkle tree over the block's
    entry hashes; builds and caches on a miss. [None] when the block is
    not closed. *)

val locate_txn : t -> txn_id:int -> Types.txn_entry option
(** {!find_entry} through the receipt cache's txn → block index; a miss
    falls back to the full scan. *)

val cached_block_signature :
  t -> block_id:int -> (Ledger_crypto.Lamport.public_key * Ledger_crypto.Lamport.signature) option
(** {!block_signature} amortized over the block: one signing operation,
    memoized in the block's proof bundle. Byte-identical results. *)

(** {1 System-table access (verification reads these through SQL)} *)

val transactions_table_columns : string list
val blocks_table_columns : string list

val transactions_rows : t -> Relation.Row.t list
(** Rows of "database_ledger_transactions" (flushed ∪ queued). *)

val blocks_rows : t -> Relation.Row.t list

(** {1 Raw tamper surface} *)

val raw_blocks_table : t -> Storage.Table_store.t
val raw_transactions_table : t -> Storage.Table_store.t
(** Direct access for the tamper toolkit; queued entries are not reachable
    here, matching the reality that an attacker edits storage, not the
    process's memory. *)

val with_create_time : t -> float -> t
(** Same ledger, different database create time — used when a restore
    starts a new incarnation (§3.6). *)

val snapshot : t -> t
(** O(1) frozen view for lock-free readers: COW captures of the system
    tables plus the scalar chain state. Shares the WAL handle (snapshot
    readers never touch it) and the mutex-guarded entry-hash memo cache.
    Read-only. *)

val unsafe_copy : t -> t
(** Deep copy for database backups. The copy gets a fresh in-memory WAL (a
    backup does not carry the live log). *)

(** {1 Replay support (used by {!Wal_replay})} *)

val replay_commit : t -> Types.txn_entry -> unit
(** Re-enqueue a committed entry during log replay without re-logging. *)

val note_txn_id : t -> int -> unit
(** Advance the transaction-id allocator past a replayed id. *)

val replay_block_close : t -> unit
(** Close the current block during replay without re-logging. *)

(** {1 Snapshot support} *)

val to_snapshot : t -> Sjson.t
(** Full internal state as JSON (includes the signing seed if any: snapshots
    are backups, not public artifacts). *)

val of_snapshot : ?wal_path:string -> Sjson.t -> (t, string) result
(** [wal_path] attaches a fresh file-backed log (truncating). *)

(** {1 Recovery} *)

val recover :
  ?block_size:int ->
  ?wal_path:string ->
  ?signing_seed:string ->
  database_id:string ->
  db_create_time:float ->
  analysis:Aries.Recovery.analysis ->
  flushed:Relation.Row.t list ->
  blocks:Relation.Row.t list ->
  unit ->
  t
(** Rebuild the ledger after a crash: [flushed]/[blocks] are the surviving
    system-table rows; [analysis] supplies the commits whose entries were
    still queued (paper §3.3.2, analysis phase). *)
