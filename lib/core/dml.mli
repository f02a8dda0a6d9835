(** SQL DML over ledger (and regular) tables.

    Routes INSERT / UPDATE / DELETE statements through ledgered
    transactions, so data modified via SQL text gets exactly the same
    history capture and hashing as the programmatic {!Txn} API — ledger
    protection "without any application changes" (§2.1). *)

type result =
  | Rows of Sqlexec.Rel.t   (** a SELECT's result set *)
  | Affected of int         (** rows touched by a DML statement *)

val execute : ?txn:Txn.t -> Database.t -> user:string -> string -> result
(** Parse and run one statement. DML statements execute in their own
    transaction (one commit per statement, rolled back on error) unless
    [?txn] supplies an open transaction, in which case the statement's
    writes join it and a savepoint keeps a failing statement atomic
    without aborting the transaction (the server's session-level
    BEGIN/COMMIT path). Raises {!Sqlexec.Parser.Parse_error},
    {!Sqlexec.Executor.Exec_error} or {!Types.Ledger_error}. *)

val execute_statement :
  ?txn:Txn.t -> Database.t -> user:string -> Sqlexec.Ast.statement -> result
(** Pre-parsed variant. *)

type staged = {
  staged_entry : Types.txn_entry;  (** the committed transaction's entry *)
  staged_records : Aries.Log_record.t list;
      (** its WAL records, in log order *)
}

val execute_statement_staged :
  Database.t ->
  user:string ->
  Sqlexec.Ast.statement ->
  result * staged option
(** Group commit: run an auto-commit statement but stop before the WAL
    publish. Every in-memory effect is applied (the statement's
    transaction is committed in the engine) and the WAL records are
    returned for a commit leader to publish in one batch; [None] when the
    statement has nothing to persist (SELECT). The caller must hold the
    engine's writer lock across the call and enqueue the records for
    publication before releasing it, so that batch order equals execution
    order; once staged, a publish failure breaks the log and nothing after
    it may be served. On error the transaction is rolled back (logging
    nothing) and the exception re-raised. *)

val pp_result : Format.formatter -> result -> unit
