(** Top-level SQL Ledger database.

    Owns the table registry (ledger and regular tables), the Database
    Ledger, digest generation, DDL with ledgered metadata history (§3.5 /
    Figure 6), SQL query access, and backup/restore for the recovery
    scenarios of §3.6–3.7. *)

type t

type table_kind = [ `Append_only | `Updateable | `Regular ]

val create :
  ?block_size:int ->
  ?wal_path:string ->
  ?signing_seed:string ->
  ?commit_cost_us:float ->
  ?clock:(unit -> float) ->
  name:string ->
  unit ->
  t
(** [block_size] defaults to 100_000 (paper default). [clock] defaults to
    the wall clock; tests inject a deterministic one. [signing_seed]
    enables block signing for receipts. *)

val name : t -> string
val database_id : t -> string
val create_time : t -> float
val now : t -> float
val ledger : t -> Database_ledger.t

(** {1 DDL} *)

val create_ledger_table :
  t ->
  ?kind:[ `Append_only | `Updateable ] ->
  name:string ->
  columns:Relation.Column.t list ->
  key:string list ->
  unit ->
  Ledger_table.t
(** Create a ledger table ([`Updateable] by default); the creation event is
    itself recorded in the ledgered metadata tables. Raises
    {!Types.Ledger_error} on duplicate names, [Invalid_argument] on bad
    schemas. *)

val create_regular_table :
  t ->
  name:string ->
  columns:Relation.Column.t list ->
  key:string list ->
  unit ->
  Storage.Table_store.t

val drop_table : t -> name:string -> unit
(** Logical drop (§3.5.2): the table is renamed out of the user namespace
    ("MS_DroppedTable_<name>_<id>") but its data stays verifiable. *)

val add_column : t -> table:string -> Relation.Column.t -> unit
(** §3.5.1: the column must be nullable; existing row hashes are unaffected
    because NULLs are skipped by the serialization format. *)

val drop_column : t -> table:string -> column:string -> unit
(** §3.5.2: hides the column; data remains stored and hashed. *)

val alter_column_type :
  t -> table:string -> column:string -> Relation.Datatype.t ->
  convert:(Relation.Value.t -> Relation.Value.t) -> unit
(** §3.5.3: implemented as drop + re-add + ledgered repopulation of every
    current row with [convert]. *)

val create_index : t -> table:string -> name:string -> columns:string list -> unit
val drop_index : t -> table:string -> name:string -> unit

(** {1 Lookup} *)

val ledger_table : t -> string -> Ledger_table.t
(** Raises {!Types.Ledger_error} when absent (case-insensitive lookup). *)

val find_ledger_table : t -> string -> Ledger_table.t option
val regular_table : t -> string -> Storage.Table_store.t
val ledger_tables : t -> Ledger_table.t list
(** All ledger tables including logically dropped ones and the two metadata
    system tables. *)

val user_ledger_tables : t -> Ledger_table.t list
(** Excluding dropped and system metadata tables. *)

(** {1 Transactions} *)

val begin_txn : t -> user:string -> Txn.t

val with_txn : t -> user:string -> (Txn.t -> 'a) -> 'a * Types.txn_entry
(** Run, then commit; rolls back and re-raises on exception. *)

(** {1 Digests, checkpoints, recovery} *)

val generate_digest : t -> Digest.t option
val checkpoint : t -> unit

val snapshot : t -> t
(** O(tables) frozen view for lock-free readers: shares the copy-on-write
    B+tree roots of every table plus the ledger's chain state. The result
    is an ordinary [t], so the whole read surface ([query], [catalog],
    {!Verifier.verify}, {!Receipt.generate}) works on it unchanged — but it
    must never be handed to a write path. Capture while holding the writer
    side of the server lock (or as the sole mutator). *)

val backup : t -> t
(** Transactionally consistent deep copy (the paper's database copy /
    backup, §3.7). The copy shares no mutable state with the original. *)

val restore : t -> create_time:float -> t
(** Restore from a backup as a new incarnation: fresh create time (§3.6),
    same database id. *)

(** {1 SQL access} *)

val catalog : t -> Sqlexec.Executor.catalog
(** Exposes, per ledger table [T]: [T] (visible columns), [T__history],
    [T__versions] (txn_id, seq, operation, row_hash, then visible columns)
    and [T__ledger_view] (Figure 2); regular tables by name; and the system
    tables [database_ledger_transactions] and [database_ledger_blocks]. *)

val query : t -> string -> Sqlexec.Rel.t
(** Parse and run a SQL query against {!catalog}. *)

val record_truncation :
  t -> horizon_block:int -> horizon_hash:string -> max_txn:int -> unit
(** Record a ledger-truncation event (§5.2) in the ledgered metadata table
    so that the truncation itself is audited and the verifier can anchor the
    first surviving block. *)

val truncation_horizons : t -> (int * string * int) list
(** Recorded truncation events: (horizon block id, horizon block hash (raw),
    max truncated transaction id). *)

(** {1 Replay support (used by {!Wal_replay})} *)

val table_by_id :
  t -> int -> [ `L of Ledger_table.t | `R of Storage.Table_store.t ] option

val apply_structural_ddl : t -> Sjson.t -> (unit, string) result
(** Re-apply a logged DDL record structurally: no re-logging, no metadata
    transaction (those were logged as data in the original run). *)

val refresh_counters : t -> unit
(** Recompute the table-id and metadata-event allocators from current
    contents (end of replay). *)

(** {1 Snapshot support (used by {!Snapshot})} *)

type raw_state = {
  raw_name : string;
  raw_created : float;
  raw_next_table_id : int;
  raw_next_meta_event : int;
  raw_tables : [ `L of Ledger_table.t | `R of Storage.Table_store.t ] list;
  raw_ledger : Database_ledger.t;
}

val expose : t -> raw_state
val assemble : clock:(unit -> float) -> raw_state -> t
(** Raises {!Types.Ledger_error} when the metadata system tables are
    missing from [raw_tables]. *)

(** {1 Metadata (Figure 6)} *)

val tables_meta : t -> Ledger_table.t
val columns_meta : t -> Ledger_table.t
