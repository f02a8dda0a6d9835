open Relation
module Table_store = Storage.Table_store
module Hex = Ledger_crypto.Hex
module Lamport = Ledger_crypto.Lamport

(* Receipt service memoization (§5.1 at production rate). A closed block
   is immutable, so its materialized Merkle tree, ordinal-indexed entry
   array and one-time block signature can be computed once and shared by
   every receipt issued for the block: N receipts from one block reuse
   the common subtree hashes, and one Lamport signing operation covers
   them all. *)
type block_proofs = {
  bp_block : Types.block;
  bp_tree : Merkle.Tree.t;
  bp_entries : Types.txn_entry array;  (* in (block, ordinal) order *)
  mutable bp_signature :
    (Lamport.public_key * Lamport.signature) option option;
      (* outer [None] = not yet computed *)
}

(* Bounded: a FIFO over resident block ids evicts whole blocks — tree,
   entries and the txn -> block index rows that point at them — so the
   cache holds the hot tail of the chain, not its entire history. *)
type receipt_cache = {
  rc_mu : Mutex.t;
  rc_blocks : (int, block_proofs) Hashtbl.t;
  rc_order : int Queue.t;
  rc_txns : (int, int * int) Hashtbl.t;
      (* txn_id -> (resident closed block, position in its [bp_entries]) *)
  rc_capacity : int;
}

let receipt_cache_capacity = 128

(* Blocks up to this size get their receipt tree built inline at block
   close (the leaves are already warm in [hash_cache], so the tree costs
   one extra hash per entry); larger blocks keep the parallel root-only
   aggregation on the close path and materialize the tree lazily on the
   first receipt request instead. *)
let receipt_tree_inline_max = 4096

let fresh_receipt_cache () =
  {
    rc_mu = Mutex.create ();
    rc_blocks = Hashtbl.create 64;
    rc_order = Queue.create ();
    rc_txns = Hashtbl.create 256;
    rc_capacity = receipt_cache_capacity;
  }

type t = {
  db_block_size : int;
  db_id : string;
  db_created : float;
  mutable db_wal : Aries.Wal.t;
  txn_table : Table_store.t;
  blocks_table : Table_store.t;
  mutable queue : Types.txn_entry list;  (* newest first; not yet flushed *)
  mutable next_txn : int;
  mutable current_block : int;
  mutable current_count : int;  (* transactions assigned to current block *)
  mutable last_block_hash : string;  (* hash of the last closed block *)
  mutable last_commit : float;
  signing_seed : string option;
  commit_cost_us : float;
  (* Group commit: entry hashes computed batch-at-a-time by the commit
     leader ([accumulate_batch]) and consumed when a block closes. Guarded
     by [hash_mu] because the leader runs outside the engine's writer
     lock. Purely a memo: a miss recomputes the hash. *)
  hash_cache : (int, string) Hashtbl.t;
  hash_mu : Mutex.t;
  (* Shared across record-copy snapshots like [hash_cache]: closed blocks
     never change, so a tree built through any snapshot serves them all.
     Guarded by [rc_mu]. *)
  receipt_cache : receipt_cache;
}

let transactions_table_columns =
  [ "txn_id"; "block_id"; "ordinal"; "commit_ts"; "username"; "table_roots" ]

let blocks_table_columns =
  [ "block_id"; "prev_hash"; "txn_root"; "txn_count"; "closed_ts" ]

let txn_table_schema =
  Schema.make
    [
      Column.make "txn_id" Datatype.Bigint;
      Column.make "block_id" Datatype.Bigint;
      Column.make "ordinal" Datatype.Bigint;
      Column.make "commit_ts" Datatype.Float;
      Column.make "username" (Datatype.Varchar 128);
      Column.make "table_roots" (Datatype.Varchar 65536);
    ]

let blocks_table_schema =
  Schema.make
    [
      Column.make "block_id" Datatype.Bigint;
      Column.make "prev_hash" (Datatype.Varchar 64);
      Column.make "txn_root" (Datatype.Varchar 64);
      Column.make "txn_count" Datatype.Bigint;
      Column.make "closed_ts" Datatype.Float;
    ]

let make_tables () =
  ( Table_store.create ~name:"database_ledger_transactions" ~table_id:(-1)
      ~schema:txn_table_schema ~key_ordinals:[ 0 ],
    Table_store.create ~name:"database_ledger_blocks" ~table_id:(-2)
      ~schema:blocks_table_schema ~key_ordinals:[ 0 ] )

let create ?(block_size = 100_000) ?wal_path ?signing_seed
    ?(commit_cost_us = 0.0) ~database_id ~db_create_time () =
  if block_size < 1 then invalid_arg "Database_ledger.create: block_size";
  let txn_table, blocks_table = make_tables () in
  {
    db_block_size = block_size;
    db_id = database_id;
    db_created = db_create_time;
    db_wal = Aries.Wal.create ?path:wal_path ();
    txn_table;
    blocks_table;
    queue = [];
    next_txn = 1;
    current_block = 0;
    current_count = 0;
    last_block_hash = "";
    last_commit = 0.;
    signing_seed;
    commit_cost_us;
    hash_cache = Hashtbl.create 64;
    hash_mu = Mutex.create ();
    receipt_cache = fresh_receipt_cache ();
  }

let attach_wal t path =
  (* Truncating the file must not restart the numbering: LSNs stay globally
     monotonic so a snapshot's recorded position lines up against whatever
     log file is found next to it after a crash. *)
  let first_lsn = Aries.Wal.last_lsn t.db_wal + 1 in
  Aries.Wal.close t.db_wal;
  t.db_wal <- Aries.Wal.create ~path ~first_lsn ()

let block_size t = t.db_block_size
let database_id t = t.db_id
let db_create_time t = t.db_created
let wal t = t.db_wal
let queue_length t = List.length t.queue
let last_commit_ts t = t.last_commit
let current_block_id t = t.current_block

(* ------------------------------------------------------------------ *)
(* Hashing: shared with the SQL verification path via Builtins.ledgerhash. *)

let ledgerhash_raw values =
  match Sqlexec.Builtins.ledgerhash values with
  | Value.String hex -> Hex.decode hex
  | _ -> assert false

let entry_hash (e : Types.txn_entry) =
  ledgerhash_raw
    [
      Value.Int e.txn_id;
      Value.Int e.block_id;
      Value.Int e.ordinal;
      Value.Float e.commit_ts;
      Value.String e.user;
      Value.String (Types.table_roots_to_string e.table_roots);
    ]

let cached_entry_hash t (e : Types.txn_entry) =
  let memo =
    Mutex.protect t.hash_mu (fun () -> Hashtbl.find_opt t.hash_cache e.txn_id)
  in
  match memo with Some h -> h | None -> entry_hash e

(* The commit leader feeds a published batch into the block accumulator:
   the batch entries' ledger hashes — the Merkle leaves a block close
   aggregates — are computed in one pass here, off the writer lock,
   instead of one-by-one when the block closes. *)
let accumulate_batch t batch_entries =
  let hashed =
    List.map
      (fun (e : Types.txn_entry) -> (e.txn_id, entry_hash e))
      batch_entries
  in
  Mutex.protect t.hash_mu (fun () ->
      List.iter (fun (id, h) -> Hashtbl.replace t.hash_cache id h) hashed)

let block_hash (b : Types.block) =
  ledgerhash_raw
    [
      Value.Int b.block_id;
      Value.String (Hex.encode b.prev_hash);
      Value.String (Hex.encode b.txn_root);
      Value.Int b.txn_count;
      Value.Float b.closed_ts;
    ]

(* ------------------------------------------------------------------ *)
(* Row <-> record conversions for the system tables *)

let entry_to_row (e : Types.txn_entry) : Row.t =
  [|
    Value.Int e.txn_id;
    Value.Int e.block_id;
    Value.Int e.ordinal;
    Value.Float e.commit_ts;
    Value.String e.user;
    Value.String (Types.table_roots_to_string e.table_roots);
  |]

let entry_of_row (row : Row.t) : Types.txn_entry =
  match row with
  | [|
      Value.Int txn_id;
      Value.Int block_id;
      Value.Int ordinal;
      Value.Float commit_ts;
      Value.String user;
      Value.String roots;
    |] ->
      let table_roots =
        match Types.table_roots_of_string roots with
        | Ok r -> r
        | Error e -> Types.errorf "corrupt table_roots column: %s" e
      in
      { txn_id; block_id; ordinal; commit_ts; user; table_roots }
  | _ -> Types.errorf "corrupt database_ledger_transactions row"

let block_to_row (b : Types.block) : Row.t =
  [|
    Value.Int b.block_id;
    Value.String (Hex.encode b.prev_hash);
    Value.String (Hex.encode b.txn_root);
    Value.Int b.txn_count;
    Value.Float b.closed_ts;
  |]

let block_of_row (row : Row.t) : Types.block =
  match row with
  | [|
      Value.Int block_id;
      Value.String prev_hash;
      Value.String txn_root;
      Value.Int txn_count;
      Value.Float closed_ts;
    |] ->
      {
        block_id;
        prev_hash = (if prev_hash = "" then "" else Hex.decode prev_hash);
        txn_root = Hex.decode txn_root;
        txn_count;
        closed_ts;
      }
  | _ -> Types.errorf "corrupt database_ledger_blocks row"

(* ------------------------------------------------------------------ *)

(* No transaction may begin on a broken log: its commit could never
   become durable, and the engine state it would read already holds
   effects that may not have. *)
let next_txn_id t =
  Option.iter raise (Aries.Wal.broken t.db_wal);
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

(* The one durability point of the engine: a transaction's records (or a
   commit leader's batch of them, or a block close, or a decision) reach
   the log as one frame under one fsync, and nothing is acknowledged
   before this returns. *)
let publish t records =
  ignore (Aries.Wal.append_batch t.db_wal records : Aries.Wal.lsn list);
  if t.commit_cost_us > 0.0 then begin
    (* Busy-wait stand-in for a production engine's durable log flush. *)
    let deadline = Unix.gettimeofday () +. (t.commit_cost_us *. 1e-6) in
    while Unix.gettimeofday () < deadline do
      ()
    done
  end

let entries t =
  let flushed = List.map entry_of_row (Table_store.scan t.txn_table) in
  let all = flushed @ List.rev t.queue in
  List.sort
    (fun (a : Types.txn_entry) (b : Types.txn_entry) ->
      compare (a.block_id, a.ordinal) (b.block_id, b.ordinal))
    all

let entries_of_block t ~block_id =
  List.filter (fun (e : Types.txn_entry) -> e.block_id = block_id) (entries t)

let find_entry t ~txn_id =
  List.find_opt (fun (e : Types.txn_entry) -> e.txn_id = txn_id) (entries t)

let blocks t =
  List.map block_of_row (Table_store.scan t.blocks_table)
  |> List.sort (fun (a : Types.block) b -> compare a.block_id b.block_id)

let find_block t ~block_id =
  match Table_store.find t.blocks_table ~key:[| Value.Int block_id |] with
  | Some row -> Some (block_of_row row)
  | None -> None

(* Install a block's proof bundle, evicting the oldest resident blocks
   (and their txn-index rows) past capacity. First install wins when two
   snapshots race to build the same block. *)
let install_block_proofs t bp =
  let rc = t.receipt_cache in
  let block_id = bp.bp_block.block_id in
  Mutex.protect rc.rc_mu (fun () ->
      match Hashtbl.find_opt rc.rc_blocks block_id with
      | Some existing -> existing
      | None ->
          Hashtbl.replace rc.rc_blocks block_id bp;
          Queue.push block_id rc.rc_order;
          Array.iteri
            (fun i (e : Types.txn_entry) ->
              Hashtbl.replace rc.rc_txns e.txn_id (block_id, i))
            bp.bp_entries;
          while Queue.length rc.rc_order > rc.rc_capacity do
            let old = Queue.pop rc.rc_order in
            match Hashtbl.find_opt rc.rc_blocks old with
            | None -> ()
            | Some obp ->
                Array.iter
                  (fun (e : Types.txn_entry) ->
                    Hashtbl.remove rc.rc_txns e.txn_id)
                  obp.bp_entries;
                Hashtbl.remove rc.rc_blocks old
          done;
          bp)

(* Cached proof bundle for a closed block; builds and installs it on a
   miss. [None] when the block is not closed (or does not exist). *)
let block_proofs_bundle t ~block_id =
  let rc = t.receipt_cache in
  let cached =
    Mutex.protect rc.rc_mu (fun () -> Hashtbl.find_opt rc.rc_blocks block_id)
  in
  match cached with
  | Some bp -> Some bp
  | None -> (
      match find_block t ~block_id with
      | None -> None
      | Some block ->
          let entries = Array.of_list (entries_of_block t ~block_id) in
          let tree =
            Merkle.Tree.of_leaves
              (List.map entry_hash (Array.to_list entries))
          in
          Some
            (install_block_proofs t
               {
                 bp_block = block;
                 bp_tree = tree;
                 bp_entries = entries;
                 bp_signature = None;
               }))

let block_proofs t ~block_id =
  match block_proofs_bundle t ~block_id with
  | Some bp -> Some (bp.bp_block, bp.bp_tree)
  | None -> None

(* Entry lookup through the receipt cache's txn index: a hit is two hash
   lookups and an array read. A miss falls back to the full (flushed ∪
   queued) scan — after which the first receipt for the entry's block
   warms the index for its whole block. *)
let locate_txn t ~txn_id =
  let rc = t.receipt_cache in
  let hit =
    Mutex.protect rc.rc_mu (fun () ->
        match Hashtbl.find_opt rc.rc_txns txn_id with
        | None -> None
        | Some (block_id, pos) ->
            Option.map
              (fun bp -> bp.bp_entries.(pos))
              (Hashtbl.find_opt rc.rc_blocks block_id))
  in
  match hit with Some _ as e -> e | None -> find_entry t ~txn_id

(* The in-memory half of a block close, shared by the commit, digest and
   replay paths. *)
let do_close_block t =
  if t.current_count > 0 then begin
    let block_id = t.current_block in
    let block_entries = entries_of_block t ~block_id in
    (* Asynchronous and single-threaded in the paper; here it runs inline,
       but the root over up to block_size (100K) entry hashes aggregates
       across domains when the block is large enough to pay for it. Entry
       hashes already accumulated by a commit leader are reused. Blocks at
       receipt scale also materialize their Merkle tree here, so receipts
       issued against the block share the subtree hashes just computed. *)
    let leaves = List.map (cached_entry_hash t) block_entries in
    let txn_count = List.length block_entries in
    let receipt_tree =
      if txn_count <= receipt_tree_inline_max then
        Some (Merkle.Tree.of_leaves leaves)
      else None
    in
    let txn_root =
      match receipt_tree with
      | Some tree -> Merkle.Tree.root tree
      | None -> Merkle.Parallel.root leaves
    in
    let closed_ts = t.last_commit in
    let block : Types.block =
      {
        block_id;
        prev_hash = t.last_block_hash;
        txn_root;
        txn_count;
        closed_ts;
      }
    in
    Table_store.insert t.blocks_table (block_to_row block);
    (match receipt_tree with
    | Some tree ->
        ignore
          (install_block_proofs t
             {
               bp_block = block;
               bp_tree = tree;
               bp_entries = Array.of_list block_entries;
               bp_signature = None;
             }
            : block_proofs)
    | None -> ());
    Mutex.protect t.hash_mu (fun () ->
        List.iter
          (fun (e : Types.txn_entry) -> Hashtbl.remove t.hash_cache e.txn_id)
          block_entries);
    t.last_block_hash <- block_hash block;
    t.current_block <- block_id + 1;
    t.current_count <- 0
  end

(* A block close's in-memory half now, its BLOCK_CLOSE record returned
   for the caller to publish. *)
let stage_block_close t =
  if t.current_count > 0 then begin
    let record =
      Aries.Log_record.Block_close
        { block_id = t.current_block; closed_ts = t.last_commit }
    in
    do_close_block t;
    [ record ]
  end
  else []

(* Durable before any digest anchors it: a lost BLOCK_CLOSE would reopen
   the block, and the digest would stop verifying. On a broken log this
   raises even when the block is empty. *)
let close_current_block t = publish t (stage_block_close t)

(* Validate-and-stage half of a commit: every in-memory effect happens
   now — ordinal assignment, queue push, block close when the block
   fills — and the WAL records come back for [publish]. They must reach
   the log, in order, before any other record is appended; until then
   the commit is acknowledged to nobody. *)
let stage_commit t ~txn_id ~commit_ts ~user ~table_roots =
  let entry : Types.txn_entry =
    {
      txn_id;
      block_id = t.current_block;
      ordinal = t.current_count;
      commit_ts;
      user;
      table_roots = List.sort (fun (a, _) (b, _) -> compare a b) table_roots;
    }
  in
  t.current_count <- t.current_count + 1;
  t.last_commit <- commit_ts;
  t.queue <- entry :: t.queue;
  let commit_record =
    Aries.Log_record.Commit
      {
        txn_id;
        commit_ts;
        user;
        block_id = entry.block_id;
        ordinal = entry.ordinal;
        table_roots = entry.table_roots;
      }
  in
  let close_records =
    if t.current_count >= t.db_block_size then stage_block_close t else []
  in
  (entry, commit_record :: close_records)

(* Replay support: enqueue a committed entry exactly as the original run
   did, without re-logging. *)
let replay_commit t (entry : Types.txn_entry) =
  t.queue <- entry :: t.queue;
  t.last_commit <- Float.max t.last_commit entry.commit_ts;
  t.current_block <- max t.current_block entry.block_id;
  if entry.block_id = t.current_block then
    t.current_count <- max t.current_count (entry.ordinal + 1);
  t.next_txn <- max t.next_txn (entry.txn_id + 1)

let note_txn_id t txn_id = t.next_txn <- max t.next_txn (txn_id + 1)

let replay_block_close t =
  (* Same computation as close_current_block, but without logging. *)
  do_close_block t

(* A checkpoint's in-memory half, shared with replay: flush the queue
   into the transactions table. *)
let replay_checkpoint t =
  List.iter
    (fun e -> Table_store.insert t.txn_table (entry_to_row e))
    (List.rev t.queue);
  t.queue <- []

let checkpoint t =
  (* The record first: on a broken log nothing is flushed to the table. *)
  publish t
    [ Aries.Log_record.Checkpoint { flushed_upto_lsn = Aries.Wal.last_lsn t.db_wal } ];
  replay_checkpoint t

let generate_digest t ~time =
  close_current_block t;
  match List.rev (blocks t) with
  | [] -> None
  | latest :: _ ->
      Some
        {
          Digest.database_id = t.db_id;
          db_create_time = t.db_created;
          block_id = latest.block_id;
          block_hash = block_hash latest;
          digest_time = time;
          last_commit_ts = latest.closed_ts;
        }

let block_signature t ~block_id =
  match t.signing_seed with
  | None -> None
  | Some seed ->
      find_block t ~block_id
      |> Option.map (fun b ->
             let sk, pk =
               Lamport.generate
                 ~seed:(seed ^ ":block:" ^ string_of_int block_id)
             in
             (pk, Lamport.sign sk (block_hash b)))

(* Amortized variant: one key derivation + signing operation per block,
   memoized in the block's proof bundle and reused by every receipt for
   the block. Deterministic (seeded key, fixed block hash), so the result
   is byte-identical to {!block_signature}. *)
let cached_block_signature t ~block_id =
  match t.signing_seed with
  | None -> None
  | Some _ -> (
      match block_proofs_bundle t ~block_id with
      | None -> None
      | Some bp -> (
          let rc = t.receipt_cache in
          let memo = Mutex.protect rc.rc_mu (fun () -> bp.bp_signature) in
          match memo with
          | Some s -> s
          | None ->
              let s = block_signature t ~block_id in
              Mutex.protect rc.rc_mu (fun () -> bp.bp_signature <- Some s);
              s))

let transactions_rows t =
  List.map entry_to_row (entries t)

let blocks_rows t = Table_store.scan t.blocks_table

let raw_blocks_table t = t.blocks_table
let raw_transactions_table t = t.txn_table

let with_create_time t created = { t with db_created = created }

(* O(1) frozen view for lock-free readers. Captures the COW ledger tables
   plus the scalar block-chain state (queue, current block, last hash) by
   record copy. Shares the WAL handle — snapshot readers never touch it —
   and the entry-hash memo cache, which is mutex-guarded and keyed by
   txn id, so leader-side warming is visible (and correct) on both sides. *)
let snapshot t =
  {
    t with
    txn_table = Table_store.snapshot t.txn_table;
    blocks_table = Table_store.snapshot t.blocks_table;
  }

let unsafe_copy t =
  {
    t with
    db_wal = Aries.Wal.create ();
    txn_table = Table_store.deep_copy t.txn_table;
    blocks_table = Table_store.deep_copy t.blocks_table;
    hash_cache = Hashtbl.create 64;
    hash_mu = Mutex.create ();
    receipt_cache = fresh_receipt_cache ();
  }

let entry_to_json (e : Types.txn_entry) =
  Sjson.Obj
    [
      ("txn_id", Sjson.Int e.txn_id);
      ("block_id", Sjson.Int e.block_id);
      ("ordinal", Sjson.Int e.ordinal);
      ("commit_ts", Sjson.Float e.commit_ts);
      ("user", Sjson.String e.user);
      ("table_roots", Types.table_roots_to_json e.table_roots);
    ]

let entry_of_json json : Types.txn_entry =
  let num name =
    match Sjson.member name json with
    | Sjson.Float f -> f
    | Sjson.Int i -> float_of_int i
    | _ -> failwith name
  in
  {
    txn_id = Sjson.get_int (Sjson.member "txn_id" json);
    block_id = Sjson.get_int (Sjson.member "block_id" json);
    ordinal = Sjson.get_int (Sjson.member "ordinal" json);
    commit_ts = num "commit_ts";
    user = Sjson.get_string (Sjson.member "user" json);
    table_roots =
      (match
         Types.table_roots_of_string
           (Sjson.to_string (Sjson.member "table_roots" json))
       with
      | Ok r -> r
      | Error e -> failwith e);
  }

let to_snapshot t =
  let rows_json rows =
    Sjson.List
      (List.map
         (fun row -> Sjson.List (List.map Value.to_json (Array.to_list row)))
         rows)
  in
  Sjson.Obj
    [
      ("block_size", Sjson.Int t.db_block_size);
      ("database_id", Sjson.String t.db_id);
      ("db_create_time", Sjson.Float t.db_created);
      ("next_txn", Sjson.Int t.next_txn);
      ("current_block", Sjson.Int t.current_block);
      ("current_count", Sjson.Int t.current_count);
      ("last_block_hash", Sjson.String (Hex.encode t.last_block_hash));
      ("last_commit", Sjson.Float t.last_commit);
      ( "signing_seed",
        match t.signing_seed with
        | Some seed -> Sjson.String seed
        | None -> Sjson.Null );
      ("commit_cost_us", Sjson.Float t.commit_cost_us);
      ("queue", Sjson.List (List.rev_map entry_to_json t.queue));
      ("flushed", rows_json (Table_store.scan t.txn_table));
      ("blocks", rows_json (Table_store.scan t.blocks_table));
    ]

let of_snapshot ?wal_path json =
  try
    let num name =
      match Sjson.member name json with
      | Sjson.Float f -> f
      | Sjson.Int i -> float_of_int i
      | _ -> failwith name
    in
    let txn_table, blocks_table = make_tables () in
    let load_rows name schema store =
      List.iter
        (fun row_json ->
          let cells = Sjson.get_list row_json in
          let row =
            Array.of_list
              (List.mapi
                 (fun i cell ->
                   let col : Column.t = Schema.column schema i in
                   match Value.of_json col.dtype cell with
                   | Some v -> v
                   | None -> failwith (name ^ ": bad value"))
                 cells)
          in
          Table_store.insert store row)
        (Sjson.get_list (Sjson.member name json))
    in
    load_rows "flushed" txn_table_schema txn_table;
    load_rows "blocks" blocks_table_schema blocks_table;
    let queue =
      Sjson.get_list (Sjson.member "queue" json)
      |> List.map entry_of_json |> List.rev
    in
    Ok
      {
        db_block_size = Sjson.get_int (Sjson.member "block_size" json);
        db_id = Sjson.get_string (Sjson.member "database_id" json);
        db_created = num "db_create_time";
        db_wal = Aries.Wal.create ?path:wal_path ();
        txn_table;
        blocks_table;
        queue;
        next_txn = Sjson.get_int (Sjson.member "next_txn" json);
        current_block = Sjson.get_int (Sjson.member "current_block" json);
        current_count = Sjson.get_int (Sjson.member "current_count" json);
        last_block_hash =
          Hex.decode (Sjson.get_string (Sjson.member "last_block_hash" json));
        last_commit = num "last_commit";
        signing_seed =
          (match Sjson.member "signing_seed" json with
          | Sjson.String s -> Some s
          | _ -> None);
        commit_cost_us = num "commit_cost_us";
        hash_cache = Hashtbl.create 64;
        hash_mu = Mutex.create ();
        receipt_cache = fresh_receipt_cache ();
      }
  with
  | Failure e | Invalid_argument e -> Error ("malformed ledger snapshot: " ^ e)
