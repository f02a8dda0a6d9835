(* Group commit (paper §3.3.2: commits batch into the Database Ledger's
   blocks; GlassDB-style shared persistence epochs).

   Writer sessions stage their transaction under the engine's exclusive
   lock (`Dml.execute_statement_staged`), enqueue the staged WAL records
   here *before releasing the lock*, then release it and wait. The first
   waiter that finds no active leader becomes the leader: it sleeps a
   short coalescing window (none at window 0), drains the queue FIFO,
   publishes every staged record as one batch-atomic WAL frame under a
   single fsync (`Database_ledger.publish`, the engine's one durability
   point), feeds the batch's entries to the ledger's block accumulator
   (`Database_ledger.accumulate_batch`), and only then wakes the batch's
   waiters. The expensive part of commit — the durability
   barrier — thus runs *outside* the engine lock, overlapped with the
   execution of the next batch, and its cost is shared by every commit in
   the batch.

   Invariants this module relies on (and the server upholds):

   - Tickets are enqueued while holding the engine's writer lock, so
     queue order is execution order; the leader preserves it, so WAL
     order equals execution order (replay applies DATA records in log
     order — reordering two transactions' writes would corrupt replay).

   - The WAL is single-writer. The leader appends without holding the
     engine lock, so every other code path that writes WAL records
     (explicit BEGIN...COMMIT sessions, DDL, checkpoints, digests, 2PC
     decisions) must call [flush] after acquiring the writer lock and
     before its first append. While the caller holds the writer lock no
     new ticket can arrive, so after [flush] the log is quiescent until
     the lock is released.

   - The leader is also the snapshot publisher: each ticket carries a
     COW [Database.snapshot] captured at enqueue (under the writer
     lock), and after the batch's fsync the leader hands the newest
     ticket's snapshot to [on_publish] — the dispatch layer's atomic
     swap of the served read view. Readers therefore observe only
     durable state, and always their own acked writes.

   - A publish failure breaks the log (`Aries.Wal`'s fsyncgate rule): the
     staged commits are already applied in the engine and cannot be
     unwound, so the failed batch's waiters get the exception, and every
     later batch — and every later writer on any path — gets the same one
     from the log, so no later commit can leave an acknowledged-ordinal
     gap on disk. No snapshot is installed after the failure. *)

type state = Pending | Done | Failed of exn

type ticket = {
  t_entry : Sql_ledger.Types.txn_entry;
  t_records : Aries.Log_record.t list;
  t_snapshot : Sql_ledger.Database.t;
      (* COW capture taken at enqueue, under the writer lock, so it holds
         this commit's staged effects and everything that staged before
         it — exactly what becomes durable when this batch publishes *)
  mutable t_state : state;
}

type t = {
  window : float;  (* max seconds the leader coalesces before flushing *)
  ledger : Sql_ledger.Database_ledger.t;
  metrics : Metrics.t;
  on_publish : Sql_ledger.Database.t -> unit;
      (* called by the leader after each durable batch with the newest
         ticket's snapshot: the dispatch layer swaps it in as the served
         read view, so readers only ever observe fsynced state *)
  m : Mutex.t;
  c : Condition.t;  (* broadcast on any state change *)
  mutable pending : ticket list;  (* newest first *)
  mutable n_pending : int;  (* length of [pending], kept for O(1) depth *)
  mutable leading : bool;
}

let create ?(on_publish = fun _ -> ()) ~window ~ledger ~metrics () =
  {
    window;
    ledger;
    metrics;
    on_publish;
    m = Mutex.create ();
    c = Condition.create ();
    pending = [];
    n_pending = 0;
    leading = false;
  }

let window t = t.window

(* Lock-free-ish depth probe for admission control: a torn read costs an
   admission decision one ticket of accuracy, nothing more. *)
let depth t = t.n_pending

(* Caller must hold the engine's writer lock: ordering relies on it, and
   so does the snapshot — captured under the lock, it cannot contain a
   later commit's half-staged effects. *)
let enqueue t ~entry ~records ~snapshot =
  let ticket =
    {
      t_entry = entry;
      t_records = records;
      t_snapshot = snapshot;
      t_state = Pending;
    }
  in
  let depth_now =
    Mutex.protect t.m (fun () ->
        t.pending <- ticket :: t.pending;
        t.n_pending <- t.n_pending + 1;
        t.n_pending)
  in
  Metrics.high_water t.metrics "commit.queue_depth" depth_now;
  ticket

(* Leader-side coalescing: sleep in short slices, cutting the batch as
   soon as arrivals stall; the window is a hard deadline that bounds
   both batch size and the first waiter's latency when writers keep
   arriving back-to-back.
   Cutting *before* the whole convoy has staged is deliberate: the
   batch's fsync then overlaps the remaining writers' execution, which
   is where group commit's throughput comes from — a full-convoy cut
   would serialise fsync behind execution again. Called without
   [t.m]. *)
let wait_window t =
  let slice = t.window /. 4.0 in
  let deadline = Unix.gettimeofday () +. t.window in
  let pending_count () =
    Mutex.lock t.m;
    let n = t.n_pending in
    Mutex.unlock t.m;
    n
  in
  let rec go last_n =
    Thread.delay slice;
    let n = pending_count () in
    if n > last_n && Unix.gettimeofday () < deadline then go n
  in
  go (pending_count ())

(* Publish everything pending (at least one ticket) as one batch. Called
   with [t.m] held and [t.leading] set; releases the mutex around the I/O
   and re-acquires it before returning. *)
let publish t =
  let batch = List.rev t.pending and newest = List.hd t.pending in
  t.pending <- [];
  t.n_pending <- 0;
  Mutex.unlock t.m;
  let result =
    try
      let t0 = Unix.gettimeofday () in
      Sql_ledger.Database_ledger.publish t.ledger
        (List.concat_map (fun k -> k.t_records) batch);
      Sql_ledger.Database_ledger.accumulate_batch t.ledger
        (List.map (fun k -> k.t_entry) batch);
      let us = (Unix.gettimeofday () -. t0) *. 1e6 in
      Metrics.record t.metrics ~kind:"commit.flush_latency" ~error:false
        ~us;
      Metrics.record t.metrics ~kind:"commit.batch_size" ~error:false
        ~us:(float_of_int (List.length batch));
      (* The whole batch is durable: publish the newest ticket's
         snapshot (it contains every commit in the batch) as the
         served read view. Leaders are serialized by [t.leading] and
         writers under the engine lock serialize against them through
         [flush], so installs are ordered. Publishing before the waiters wake
         means a session that gets its ack always finds its own
         write in the next snapshot it reads (read-your-writes). *)
      t.on_publish newest.t_snapshot;
      Ok ()
    with e -> Error e
  in
  Mutex.lock t.m;
  let state = match result with Ok () -> Done | Error e -> Failed e in
  List.iter (fun k -> k.t_state <- state) batch
(* No broadcast here: both callers clear [leading] and broadcast once,
   still under [t.m], so each batch costs one wakeup storm, not two. *)

(* Wait until the ticket's batch is durable. The first waiter with no
   active leader elects itself leader and publishes; everyone else sleeps
   until woken. Raises the publish failure, if any. *)
let await t ticket =
  Mutex.lock t.m;
  let rec loop () =
    match ticket.t_state with
    | Done -> Mutex.unlock t.m
    | Failed e ->
        Mutex.unlock t.m;
        raise e
    | Pending ->
        if t.leading then begin
          Condition.wait t.c t.m;
          loop ()
        end
        else begin
          t.leading <- true;
          if t.window > 0.0 then begin
            Mutex.unlock t.m;
            wait_window t;
            Mutex.lock t.m
          end;
          if t.pending <> [] then publish t;
          t.leading <- false;
          Condition.broadcast t.c;
          loop ()
        end
  in
  loop ()

(* Drain the queue completely, publishing without a coalescing window.
   Callers hold the engine's writer lock (so no new ticket can arrive) or
   have joined every session (server drain); either way the queue is
   empty and idle when this returns, and the caller may write the WAL
   until its exclusion ends. Never raises: a failed
   batch resolves its own tickets, and the caller's own WAL write will
   surface the broken log. *)
let flush t =
  Mutex.lock t.m;
  let rec loop () =
    if t.leading then begin
      Condition.wait t.c t.m;
      loop ()
    end
    else if t.pending <> [] then begin
      t.leading <- true;
      publish t;
      t.leading <- false;
      Condition.broadcast t.c;
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.m
