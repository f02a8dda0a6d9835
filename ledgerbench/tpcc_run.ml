(* [tpcc]: the paper's TPC-C-like mix (§4.1.1), in-process, one
   transaction at a time, through [Workload.Tpcc]'s per-transaction
   functions on a durable directory. No wire, no SQL text, no threads:
   multi-row transactions, history tables and regular tables next to
   ledger ones, and a per-commit WAL append with fsync. *)

open Sql_ledger
module Tpcc = Workload.Tpcc
module Prng = Workload.Prng

(* Above [Tpcc.default_config], so that set-up is a load worth timing,
   and one warehouse, so that the state a reopen must save stays small
   next to the log it must replay. *)
let config ~ledgered =
  {
    Tpcc.warehouses = 1;
    districts_per_warehouse = 10;
    customers_per_district = 600;
    items = 5_000;
    ledgered;
  }

type kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "tpcc.new_order"
  | Payment -> "tpcc.payment"
  | Order_status -> "tpcc.order_status"
  | Delivery -> "tpcc.delivery"
  | Stock_level -> "tpcc.stock_level"

(* 45 % new-order, 43 % payment, 4 % each of the rest, dealt in an
   order of the seed's (see [Served.deal]). *)
let mix =
  [ (New_order, 45); (Payment, 43); (Order_status, 4); (Delivery, 4); (Stock_level, 4) ]

let kinds ~seed ~ops = Served.deal (Prng.create ((seed * 1_000_003) + 73)) mix ops

let call t prng = function
  | New_order -> Tpcc.new_order t ~prng
  | Payment -> Tpcc.payment t ~prng
  | Order_status -> Tpcc.order_status t ~prng
  | Delivery -> Tpcc.delivery t ~prng
  | Stock_level -> Tpcc.stock_level t ~prng

let setup ~root ~ledgered i =
  let dir = Filename.concat root (Printf.sprintf "setup-%d" i) in
  Host.timed (fun () ->
      let d =
        match Durable.open_dir ~dir ~name:"bench" () with
        | Ok d -> d
        | Error e -> failwith e
      in
      (dir, Tpcc.setup (Durable.db d) (config ~ledgered)))

(* Rows of a table, ledger or regular, as user-column arrays. *)
let user_rows db name =
  match Database.find_ledger_table db name with
  | Some lt -> List.map (Ledger_table.user_row lt) (Ledger_table.current_rows lt)
  | None -> Storage.Table_store.scan (Database.regular_table db name)

let int_at row i = match row.(i) with Relation.Value.Int v -> v | _ -> min_int
let float_at row i = match row.(i) with Relation.Value.Float v -> v | _ -> nan

(* TPC-C consistency conditions, and the row counts the calls made. *)
let check_invariants db ~new_orders ~payments =
  let check = Outcome.check in
  let districts = user_rows db "district" in
  List.iter
    (fun w ->
      let w_id = int_at w 0 and w_ytd = float_at w 3 in
      let d_sum =
        List.fold_left
          (fun s d -> if int_at d 0 = w_id then s +. float_at d 4 else s)
          0. districts
      in
      check
        (Float.abs (w_ytd -. d_sum) <= 1e-6 *. Float.max 1. (Float.abs w_ytd))
        (Printf.sprintf "warehouse %d: W_YTD %.4f = sum of D_YTD %.4f" w_id w_ytd
           d_sum))
    (user_rows db "warehouse");
  let orders = user_rows db "orders" in
  List.iter
    (fun d ->
      let w_id = int_at d 0 and d_id = int_at d 1 and next = int_at d 5 in
      let top =
        List.fold_left
          (fun m o -> if int_at o 0 = w_id && int_at o 1 = d_id then max m (int_at o 2) else m)
          0 orders
      in
      check (next - 1 = top)
        (Printf.sprintf "district %d/%d: D_NEXT_O_ID - 1 = %d, highest O_ID %d" w_id
           d_id (next - 1) top))
    districts;
  check
    (List.length orders = new_orders)
    (Printf.sprintf "orders rows %d = new-order calls %d" (List.length orders) new_orders);
  let history = List.length (user_rows db "history") in
  check (history = payments)
    (Printf.sprintf "history rows %d = payment calls %d" history payments)

let last_txn_id db =
  List.fold_left
    (fun m (e : Types.txn_entry) -> max m e.txn_id)
    0
    (Database_ledger.entries (Database.ledger db))

(* Per-commit WAL append, fsync included, measured by appending the
   image's own log again, one commit's records per batch, to a new file. *)
let reappend_log ~image ~workdir =
  match Aries.Wal.load (Durable.wal_path image) with
  | Error e -> failwith e
  | Ok records ->
      let w = Aries.Wal.create ~path:(Filename.concat workdir "reappend.wal") () in
      let flush batch =
        if batch <> [] then
          ignore
            (Trace.span "wal.append" (fun _ -> Aries.Wal.append_batch w (List.rev batch))
              : int list)
      in
      let rest =
        List.fold_left
          (fun batch (_, r) ->
            match r with
            | Aries.Log_record.Commit _ ->
                flush (r :: batch);
                []
            | _ -> r :: batch)
          [] records
      in
      flush rest;
      Aries.Wal.close w

(* Row hashing and primary-key lookups of the rows the mix wrote to the
   ledger tables; every lookup must find its row. *)
let hash_written db =
  let missed = ref 0 in
  List.iter
    (fun name ->
      match Database.find_ledger_table db name with
      | None -> ()
      | Some lt ->
          List.iter
            (fun row ->
              ignore
                (Trace.span "relation.row_hash" (fun _ -> Ledger_table.hash_created lt row)
                  : string);
              let key = Storage.Table_store.primary_key (Ledger_table.main lt) row in
              match Trace.span "btree.lookup" (fun _ -> Ledger_table.find lt ~key) with
              | Some _ -> ()
              | None -> incr missed)
            (Ledger_table.current_rows lt))
    [ "orders"; "new_order"; "order_line"; "history" ];
  Outcome.check (!missed = 0)
    (Printf.sprintf "%d written rows not found by their primary key" !missed)

(* Receipts are timed per call; like the served workloads' batches of 16,
   a sample is the mean over 16 consecutive calls, dated by the last. *)
let batch_means times =
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
        let batch = List.filteri (fun i _ -> i < 16) l in
        let at = List.fold_left (fun m (t, _) -> max m t) 0L batch in
        let sum = List.fold_left (fun s (_, us) -> s +. us) 0. batch in
        go ((at, sum /. float_of_int (List.length batch)) :: acc)
          (List.filteri (fun i _ -> i >= 16) l)
  in
  go [] times

let run ~root ~seed ~ops ~ledgered =
  let (dir, t), setup_s =
    Stats.repeat_median (setup ~root ~ledgered) ~discard:(fun (dir, _) -> Host.rm_rf dir)
  in
  let db = Tpcc.database t in
  let mid = Option.get (Database.generate_digest db) in
  let first_measured = last_txn_id db + 1 in
  let prng = Prng.create ((seed * 1_000_003) + 71) in
  let kinds = kinds ~seed ~ops in
  let commit = ref [] and read = ref [] and ends = ref [] in
  let new_orders = ref 0 and payments = ref 0 and failed = ref 0 in
  Gc.compact ();
  let t0 = Trace.now_ns () in
  let (), minor, major, top =
    Outcome.gc_around (fun () ->
        Array.iteri
          (fun i k ->
            let s0 = Trace.now_ns () in
            match Trace.span ~req:(i + 1) (kind_name k) (fun _ -> call t prng k) with
            | exception e ->
                incr failed;
                Printf.eprintf "%s failed: %s\n%!" (kind_name k) (Printexc.to_string e)
            | () -> (
                let s1 = Trace.now_ns () in
                let us = Int64.to_float (Int64.sub s1 s0) /. 1e3 in
                ends := s1 :: !ends;
                match k with
                | New_order ->
                    incr new_orders;
                    commit := (s1, us) :: !commit
                | Payment ->
                    incr payments;
                    commit := (s1, us) :: !commit
                | Delivery -> commit := (s1, us) :: !commit
                | Order_status | Stock_level -> read := (s1, us) :: !read))
          kinds)
  in
  let rss_mb = Host.peak_rss_mb () in
  let final = Option.get (Database.generate_digest db) in
  let ids =
    Database_ledger.entries (Database.ledger db)
    |> List.filter_map (fun (e : Types.txn_entry) ->
           if e.txn_id >= first_measured then Some e.txn_id else None)
    |> Array.of_list
  in
  let sample =
    List.map (fun i -> ids.(i)) (Served.sample_indices ~seed ~commits:(Array.length ids))
  in
  let seen = Hashtbl.create 4 in
  let issue () = Image.issue_spanned ~cached_at_close:false ~seen db sample in
  let issued = issue () in
  Outcome.check
    (List.length issued = List.length sample)
    (Printf.sprintf "%d of %d sampled receipts issued" (List.length issued)
       (List.length sample));
  if Trace.enabled () then hash_written db;
  (* The crash image: the directory as the last commit left it. The
     sample is issued again after each reopen, so that receipt times
     spread over the run's tail. *)
  let image = Filename.concat root "image" in
  Host.copy_tree dir image;
  let times = ref (List.map snd issued) in
  let between () = times := List.map snd (issue ()) @ !times in
  let result =
    Image.reopen_and_verify ~between ~reopens:2 ~image ~workdir:root ~digest:final
      ~check:Outcome.check ()
  in
  check_invariants result.db ~new_orders:!new_orders ~payments:!payments;
  Image.check_chain ~check:Outcome.check result.db ~older:mid ~newer:final;
  Image.check_receipts ~check:Outcome.check (List.map fst issued);
  let attack =
    if ledgered then
      Tamper.Update_row
        {
          table = "orders";
          key = Relation.Value.[| Int 1; Int 1; Int 1 |];
          column = "o_ol_cnt";
          value = Relation.Value.Int 99;
        }
    else Tamper.Fork_chain { block_id = 0 }
  in
  Image.check_tamper
    ?tables:(if ledgered then Some [ "orders" ] else None)
    ~check:Outcome.check result.db ~digest:final attack;
  if Trace.enabled () then begin
    Image.traced_reopen ~dir:(Image.fresh_copy ~image ~workdir:root 9);
    reappend_log ~image ~workdir:root
  end;
  let wal_bytes, wal_records, wal_commits = Outcome.wal_shape image in
  {
    Outcome.setup_s;
    attempted = ops;
    failed = !failed;
    start_ns = t0;
    op_ends = !ends;
    commits = !commit;
    read_us = !read;
    read_v_us = [];
    receipt_us = batch_means !times;
    image = result;
    wal_bytes;
    wal_records;
    wal_commits;
    rss_mb;
    held_bytes = 0;
    gc_minor_words = minor;
    gc_major = major;
    gc_top_heap_mb = top;
    layers = [];
  }
