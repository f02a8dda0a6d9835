(** Transactions over ledger tables (paper §3.2).

    Every DML operation stamps the affected row versions with the
    transaction id and a per-transaction operation sequence number, hashes
    them, and appends the hashes to a per-table streaming Merkle tree. On
    commit the tree roots are recorded as the transaction's entry in the
    Database Ledger. Savepoints snapshot the O(log N) Merkle state
    (§3.2.1), the sequence counter and the undo position, enabling partial
    rollbacks.

    The engine executes transactions one at a time (changes apply in place
    with an undo log); concurrency control is out of scope for this
    reproduction and orthogonal to the ledger design.

    A transaction writes nothing to the WAL until it commits or prepares.
    Then its records — BEGIN, DATA when it wrote, and COMMIT (plus
    BLOCK_CLOSE when the block fills) or PREPARE — go out as one batch
    through {!Database_ledger.publish}: one frame and one fsync. *)

type t

type savepoint

val id : t -> int
val user : t -> string
val is_active : t -> bool

val begin_txn : ledger:Database_ledger.t -> user:string -> clock:(unit -> float) -> t
(** Raises the log's failure on a broken WAL ({!Database_ledger.next_txn_id}). *)

(** {1 DML on ledger tables} *)

val insert : t -> Ledger_table.t -> Relation.Row.t -> unit
(** Insert a user row. Raises {!Types.Ledger_error} when the transaction is
    not active, [Invalid_argument]/[Storage.Table_store.Duplicate_key] on
    bad rows. *)

val update : t -> Ledger_table.t -> key:Relation.Row.t -> Relation.Row.t -> unit
(** Replace the row with the given primary key by a new user row (the old
    version moves to history; the new row may change the key). Hashes the
    version before and after, in that order. *)

val delete : t -> Ledger_table.t -> key:Relation.Row.t -> unit

(** {1 DML on regular (non-ledger) tables} *)

val plain_insert : t -> Storage.Table_store.t -> Relation.Row.t -> unit
val plain_update : t -> Storage.Table_store.t -> Relation.Row.t -> unit
val plain_delete : t -> Storage.Table_store.t -> key:Relation.Row.t -> unit

(** {1 Savepoints and rollback} *)

val savepoint : t -> savepoint
val rollback_to : t -> savepoint -> unit
(** Undo every change made after the savepoint and restore the Merkle
    state. A savepoint may be rolled back to repeatedly; rolling back to an
    outer savepoint invalidates inner ones. *)

val rollback : t -> unit
(** Abort: undo everything. Logs nothing, unless the transaction is
    prepared: then its ABORT is published. *)

val commit : t -> Types.txn_entry
(** {!stage_commit}, then {!Database_ledger.publish} of its records:
    returns the transaction's ledger entry once it is durable. *)

val stage_commit : t -> Types.txn_entry * Aries.Log_record.t list
(** The validate-and-stage half of {!commit}: computes the table roots,
    performs every in-memory ledger effect, marks the transaction
    committed, and returns the entry together with the WAL records
    (BEGIN, DATA when the transaction wrote, COMMIT, and a BLOCK_CLOSE
    when the block filled) for a commit leader to publish in its batch.
    The records must reach the log, in order, before any other record is
    appended; a publish failure cannot be rolled back, and the log it
    broke refuses everything after it. *)

(** {1 Two-phase commit (participant side)} *)

val prepare : t -> gid:string -> (int * string) list
(** Vote yes in a two-phase commit: publish the transaction's BEGIN,
    logical redo and a PREPARE marker as one batch, and freeze the
    transaction — further DML raises until a decision. The in-memory
    effects stay in place, so the caller must keep holding the write lock
    across the in-doubt window. Returns the per-table Merkle roots
    recorded in the marker. Raises {!Types.Ledger_error} on inactive
    transactions. *)

val prepared_gid : t -> string option
(** The global transaction id this transaction is prepared under, if any. *)

val decide_commit : t -> Types.txn_entry
(** The coordinator decided commit: publish the COMMIT record (which is
    the durable decision marker) with the ledger entry, like {!commit}.
    Raises {!Types.Ledger_error} unless the transaction is prepared. *)

(** Aborting a prepared transaction is {!rollback}: its published ABORT
    record is the durable abort-decision marker. *)

val table_root : t -> Ledger_table.t -> string
(** Current Merkle root of this transaction's updates to the given table
    (before commit); [Merkle.Streaming.empty_root] when untouched. *)

val operation_count : t -> int
(** Sequence numbers consumed so far. *)
