(* The two workloads served over the wire: [oltp] and [receipts].

   The server runs inside this process, as `bench serve` runs it, and
   the load comes from at most two closed-loop connections (the host has
   two vCPUs). Every statement is generated from the seed before the
   measured phase starts, together with the value each read must return,
   so the benchmark's model of the table is exact: each connection owns
   the keys it writes. *)

open Sql_ledger
module P = Wire.Protocol
module Prng = Workload.Prng

let table = "kv"
let value_len = 24
let preload_rows = 20_000
let preload_batch = 500

(* [Select] reads the whole row, [Select_v] names the value column. *)
type kind = Update | Select | Select_v | Insert | Delete

type op = {
  kind : kind;
  key : int;
  sql : string;
  value : string;  (** the value written, or the value a read must return *)
}

type counts = { inserts : int; updates : int; deletes : int }

(* ------------------------------------------------------------------ *)
(* Inputs *)

let preload_values ~seed =
  let prng = Prng.create ((seed * 7919) + 1) in
  Array.init preload_rows (fun _ -> Prng.alnum_string prng value_len)

let preload_statements values =
  List.init (preload_rows / preload_batch) (fun b ->
      let rows =
        List.init preload_batch (fun i ->
            let k = (b * preload_batch) + i + 1 in
            Printf.sprintf "(%d, '%s')" k values.(k - 1))
      in
      Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " rows))

let update_sql k v = Printf.sprintf "UPDATE %s SET v = '%s' WHERE id = %d" table v k

(* On [oltp] one point read in four names its column. The engine serves
   only [SELECT *] from the primary key, so today each [SELECT v] scans
   the table: [oltp] carries that cost rather than avoiding it. *)
let read_op kind ~key ~value =
  let cols = if kind = Select then "*" else "v" in
  { kind; key; sql = Printf.sprintf "SELECT %s FROM %s WHERE id = %d" cols table key; value }

(* A growable set of ints with O(1) uniform pick and removal. *)
type live = { mutable keys : int array; mutable n : int }

let live_add l k =
  if l.n = Array.length l.keys then
    l.keys <- Array.append l.keys (Array.make (max 16 l.n) 0);
  l.keys.(l.n) <- k;
  l.n <- l.n + 1

let live_take l i =
  let k = l.keys.(i) in
  l.n <- l.n - 1;
  l.keys.(i) <- l.keys.(l.n);
  k

(* [n] operation kinds in the shares [mix] gives them (percentages
   summing to 100), each hundred shuffled in an order the seed fixes:
   every seed, and every stretch of a hundred operations, then runs the
   same number of each kind, and only their order and arguments
   differ. *)
let deal prng mix n =
  let kind_at r =
    let rec pick acc = function
      | [ (k, _) ] -> k
      | (k, share) :: rest -> if r < acc + share then k else pick (acc + share) rest
      | [] -> invalid_arg "deal: empty mix"
    in
    pick 0 mix
  in
  let kinds = Array.init n (fun i -> kind_at (i mod 100)) in
  for i = n - 1 downto 1 do
    let lo = i / 100 * 100 in
    let j = lo + Prng.int prng (i - lo + 1) in
    let x = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- x
  done;
  kinds

let oltp_mix = [ (Update, 60); (Select, 15); (Select_v, 5); (Insert, 15); (Delete, 5) ]

(* One [oltp] connection: it owns the preloaded keys of its parity and
   the keys it inserts. Mix: 60 % UPDATE, 20 % point SELECT (15 % of the
   row, 5 % of its value), 15 % INSERT, 5 % DELETE, every statement
   single-row. Returns the statements, the connection's final rows and
   its write counts. *)
let oltp_stream ~seed ~conn ~values ~ops =
  let prng = Prng.create ((seed * 1_000_003) + conn + 17) in
  let model = Hashtbl.create (preload_rows / 2 * 2) in
  let live = { keys = Array.make (preload_rows / 2) 0; n = 0 } in
  Array.iteri
    (fun i v ->
      let k = i + 1 in
      if k mod 2 = conn then begin
        Hashtbl.replace model k v;
        live_add live k
      end)
    values;
  let next = ref (preload_rows + 1 + conn) in
  let ins = ref 0 and upd = ref 0 and del = ref 0 in
  let stream =
    Array.map
      (fun kind ->
        match kind with
        | Update ->
            let k = live.keys.(Prng.int prng live.n) in
            let v = Prng.alnum_string prng value_len in
            Hashtbl.replace model k v;
            incr upd;
            { kind; key = k; sql = update_sql k v; value = v }
        | Select | Select_v ->
            let k = live.keys.(Prng.int prng live.n) in
            read_op kind ~key:k ~value:(Hashtbl.find model k)
        | Insert ->
            let k = !next in
            next := k + 2;
            let v = Prng.alnum_string prng value_len in
            Hashtbl.replace model k v;
            live_add live k;
            incr ins;
            {
              kind;
              key = k;
              sql = Printf.sprintf "INSERT INTO %s VALUES (%d, '%s')" table k v;
              value = v;
            }
        | Delete ->
            let k = live_take live (Prng.int prng live.n) in
            Hashtbl.remove model k;
            incr del;
            {
              kind;
              key = k;
              sql = Printf.sprintf "DELETE FROM %s WHERE id = %d" table k;
              value = "";
            })
      (deal prng oltp_mix ops)
  in
  (stream, model, { inserts = !ins; updates = !upd; deletes = !del })

(* The [receipts] writer: 80 % single-row UPDATE of a uniform key, 20 %
   point SELECT of the row it last wrote. Its reads are all [SELECT *]:
   blocks leave the receipt cache only after 128 x 32 commits, and a
   table scan in every twentieth statement would halve the writer's rate,
   so that none would leave it within a run. *)
let writer_stream ~seed ~values ~ops =
  let prng = Prng.create ((seed * 1_000_003) + 29) in
  let model = Hashtbl.create preload_rows in
  Array.iteri (fun i v -> Hashtbl.replace model (i + 1) v) values;
  let last = ref None and upd = ref 0 in
  let stream =
    Array.init ops (fun _ ->
        let r = Prng.int prng 100 in
        match !last with
        | Some k when r >= 80 ->
            read_op Select ~key:k ~value:(Hashtbl.find model k)
        | _ ->
            let k = 1 + Prng.int prng preload_rows in
            let v = Prng.alnum_string prng value_len in
            Hashtbl.replace model k v;
            last := Some k;
            incr upd;
            { kind = Update; key = k; sql = update_sql k v; value = v })
  in
  (stream, model, { inserts = 0; updates = !upd; deletes = 0 })

(* The receipt connection's plan, fixed by the seed. While the writer
   runs, it asks for each group [g] of 32 writer commits, [32g, 32g + 32),
   once the writer has committed two more groups, so both blocks the group
   can touch have closed. After the writer stops it sends one batch per
   nine groups, each of [miss_batch] commits whose blocks have left the
   128-block receipt cache: one random commit from each of distinct even
   groups at least [evicted_groups] groups older than the writer's last,
   so no two fall in one block and none finds its block re-cached by an
   earlier batch. Those batches wait for the writer: a receipt for an
   evicted block rehashes the block's entries, and the program's entry
   hashing shares one SHA-256 context among the threads of a domain, so
   doing it while the group-commit leader hashes a batch can corrupt both
   hashes. *)
let group = 32
let miss_batch = 2
let evicted_groups = 130

type plan = { groups : int; evicted : int list list }

let plan ~seed ~groups =
  let prng = Prng.create ((seed * 1_000_003) + 43) in
  let pool = Array.init (max 0 ((groups - evicted_groups) / 2)) (fun i -> 2 * i) in
  for i = Array.length pool - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  let batches = min (groups / 9) (Array.length pool / miss_batch) in
  {
    groups;
    evicted =
      List.init batches (fun b ->
          List.init miss_batch (fun k ->
              (group * pool.((b * miss_batch) + k)) + Prng.int prng group));
  }

(* The sample of commits whose receipts every workload fetches at the
   end, as indices into the commit order. *)
let sample_size = 1024

let sample_indices ~seed ~commits =
  let prng = Prng.create ((seed * 1_000_003) + 61) in
  List.init (min sample_size commits) (fun _ -> Prng.int prng commits)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Server and wire *)

type server = {
  srv : Ledger_server.Server.t;
  th : Thread.t;
  dir : string;
  dump : out_channel;
}

let start_server ~root ~name ~block_size ~signing_seed =
  let dir = Filename.concat root name in
  let config =
    {
      Ledger_server.Server.default_config with
      port = 0;
      dir;
      db_name = "bench";
      block_size = Some block_size;
      signing_seed;
    }
  in
  match Ledger_server.Server.start ~config () with
  | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
  | Ok srv ->
      let dump = open_out (Filename.concat root (name ^ ".metrics")) in
      let th = Ledger_server.Server.run_async ~dump_metrics_to:dump srv in
      { srv; th; dir; dump }

let stop_server s =
  Ledger_server.Server.shutdown s.srv s.th;
  close_out s.dump

let connect s =
  match
    Wire.Client.connect ~host:"127.0.0.1" ~port:(Ledger_server.Server.port s.srv) ()
  with
  | Ok c -> c
  | Error e -> failwith (Wire.Client.connect_error_to_string e)

let call_ok c req =
  match Wire.Client.call c req with
  | Ok (P.Error_r { message; _ }) -> failwith (P.request_kind req ^ ": " ^ message)
  | Ok r -> r
  | Error e -> failwith (P.request_kind req ^ ": " ^ e)

let create_table c =
  ignore
    (call_ok c
       (P.Create_table
          {
            name = table;
            columns = [ ("id", "int"); ("v", Printf.sprintf "varchar(%d)" value_len) ];
            key = [ "id" ];
            ledger = true;
          }))

(* Server start, schema and preload: the set-up a later change must not
   make slower. *)
let setup ~root ~name ~block_size ~signing_seed ~statements =
  Host.timed (fun () ->
      let s = start_server ~root ~name ~block_size ~signing_seed in
      let c = connect s in
      create_table c;
      List.iter (fun sql -> ignore (call_ok c (P.Exec { sql }))) statements;
      Wire.Client.close c;
      s)

(* The codec cost of one exchange, re-measured outside the call: encode
   and decode the request, then the response. *)
let codec_roundtrip req resp =
  ignore (P.decode_request (P.encode_request ~id:1 req));
  ignore (P.decode_response (P.encode_response ~id:1 resp))

type lat = {
  mutable commit : (int64 * float) list;  (** completion time, latency *)
  mutable read : (int64 * float) list;
  mutable read_v : float list;  (** the [Select_v] reads among [read] *)
  mutable ends : int64 list;  (** completion time of every success *)
}

let new_lat () = { commit = []; read = []; read_v = []; ends = [] }

type conn_result = {
  lat : lat;
  txn_ids : int array;  (** per statement; -1 for reads *)
  mutable failed : int;
  mutable wrong_reads : int;
}

(* Send one statement; its latency is the call alone, without the codec
   re-measurement a traced run adds inside the same span. *)
let send c ~req_id res i op =
  let read = op.kind = Select || op.kind = Select_v in
  let req = if read then P.Query { sql = op.sql } else P.Exec { sql = op.sql } in
  Trace.span ~req:req_id "client.request" (fun p ->
      let t0 = Trace.now_ns () in
      let r = Wire.Client.call c req in
      let t1 = Trace.now_ns () in
      let us = Int64.to_float (Int64.sub t1 t0) /. 1e3 in
      (match r with
      | Ok resp when Trace.enabled () ->
          Trace.span ~parent:p ~req:req_id "wire.codec" (fun _ ->
              codec_roundtrip req resp)
      | _ -> ());
      match (op.kind, r) with
      | (Select | Select_v), Ok (P.Rows_r { rows; _ }) ->
          res.lat.read <- (t1, us) :: res.lat.read;
          if op.kind = Select_v then res.lat.read_v <- us :: res.lat.read_v;
          res.lat.ends <- t1 :: res.lat.ends;
          let v = Relation.Value.String op.value in
          let row = if op.kind = Select then [ Relation.Value.Int op.key; v ] else [ v ] in
          if rows <> [ row ] then res.wrong_reads <- res.wrong_reads + 1
      | (Update | Insert | Delete), Ok (P.Affected_r { rows = 1; txn_id = Some id }) ->
          res.lat.commit <- (t1, us) :: res.lat.commit;
          res.lat.ends <- t1 :: res.lat.ends;
          res.txn_ids.(i) <- id
      | _ -> res.failed <- res.failed + 1)

let run_conn c ~req_base ops =
  let res =
    {
      lat = new_lat ();
      txn_ids = Array.make (Array.length ops) (-1);
      failed = 0;
      wrong_reads = 0;
    }
  in
  Array.iteri (fun i op -> send c ~req_id:(req_base + i) res i op) ops;
  res

(* ------------------------------------------------------------------ *)
(* Receipts over the wire *)

(* A receipt batch as it came off the wire. Parsing waits until after
   the measured phase: only the round trip is timed. The batch is held
   encoded, and a block's key and signature (about 48 KB) only from the
   first batch that carries them, in [seen]: one self-contained receipt
   per block is what the signature check needs. So the receipts held for
   the offline checks stay small next to the server's own memory. *)
type fetched = {
  stripped : string list;  (** receipts without their block's key *)
  keys : string list;  (** key and signature of each block not seen before *)
  pending : int;
  rtt_us : float;
  at : int64;  (** when the response arrived *)
  bytes : int;  (** re-encoded response size, traced runs only *)
}

let held_bytes fs =
  List.fold_left
    (fun n f -> List.fold_left (fun n s -> n + String.length s) n (f.stripped @ f.keys))
    0 fs

let fetch_receipts ~seen c ids =
  let t0 = Trace.now_ns () in
  let resp = Trace.span "client.receipts" (fun _ -> call_ok c (P.Receipts { txn_ids = ids })) in
  let at = Trace.now_ns () in
  let rtt_us = Int64.to_float (Int64.sub at t0) /. 1e3 in
  match resp with
  | P.Receipts_r { receipts; pending; block_keys } ->
      let bytes =
        if Trace.enabled () then String.length (P.encode_response ~id:1 resp) else 0
      in
      let first km =
        let block_id = Sjson.get_int (Sjson.member "block_id" km) in
        if Hashtbl.mem seen block_id then None
        else begin
          Hashtbl.replace seen block_id ();
          Some (Sjson.to_string km)
        end
      in
      {
        stripped = List.map Sjson.to_string receipts;
        keys = List.filter_map first block_keys;
        pending = List.length pending;
        rtt_us;
        at;
        bytes;
      }
  | _ -> failwith "receipts: unexpected response"

let per_receipt_us f = (f.at, f.rtt_us /. float_of_int (max 1 (List.length f.stripped)))

(* Every receipt without keys, plus one self-contained receipt per block
   that carries the block's key and signature. *)
let parse_fetched f =
  let parse j = match Receipt.of_json j with Ok r -> r | Error e -> failwith e in
  let plain =
    List.map
      (fun s ->
        let j = Sjson.of_string s in
        (j, parse j))
      f.stripped
  in
  let signed =
    List.filter_map
      (fun s ->
        let km = Sjson.of_string s in
        let block_id = Sjson.get_int (Sjson.member "block_id" km) in
        List.find_opt (fun (_, (r : Receipt.t)) -> r.block.block_id = block_id) plain
        |> Option.map (fun (j, _) ->
               parse (List.hd (Receipt.inflate_batch ~block_keys:[ km ] [ j ]))))
      f.keys
  in
  signed @ List.map snd plain

(* Batched fetch of [ids], [per] to a batch. *)
let fetch_sample ~seen c ids ~per =
  let rec batches acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | id :: rest ->
        if n = per then batches (List.rev cur :: acc) [ id ] 1 rest
        else batches acc (id :: cur) (n + 1) rest
  in
  List.map (fetch_receipts ~seen c) (batches [] [] 0 ids)

(* ------------------------------------------------------------------ *)
(* Checks on the reopened crash image *)

let check_rows db model =
  let t = Database.ledger_table db table in
  let rows = Ledger_table.current_rows t in
  let wrong =
    List.fold_left
      (fun n row ->
        match Ledger_table.user_row t row with
        | [| Relation.Value.Int k; Relation.Value.String v |]
          when Hashtbl.find_opt model k = Some v ->
            n
        | _ -> n + 1)
      0 rows
  in
  Outcome.check
    (wrong = 0 && List.length rows = Hashtbl.length model)
    (Printf.sprintf
       "crash image matches the model row for row (%d rows, model %d, %d differ)"
       (List.length rows) (Hashtbl.length model) wrong)

(* Row versions the verifier must count: one per preloaded or inserted
   row, two per update (the new version and the old one's deletion), one
   per delete, plus the metadata rows that record the table and its two
   columns. *)
let metadata_versions = 3

let expected_versions counts =
  preload_rows + metadata_versions
  + List.fold_left
      (fun n c -> n + c.inserts + (2 * c.updates) + c.deletes)
      0 counts

let tamper_attack model =
  let k = Hashtbl.fold (fun k _ acc -> min k acc) model max_int in
  Tamper.Update_row
    {
      table;
      key = [| Relation.Value.Int k |];
      column = "v";
      value = Relation.Value.String "tampered";
    }

(* ------------------------------------------------------------------ *)
(* Server-side counters, read over the wire *)

let stat lines ~name ~kind ~stat =
  let prefix =
    match stat with
    | None -> Printf.sprintf "%s{kind=%S}" name kind
    | Some s -> Printf.sprintf "%s{kind=%S,stat=%S}" name kind s
  in
  List.fold_left
    (fun acc line ->
      let n = String.length prefix in
      if String.length line > n && String.sub line 0 n = prefix then
        float_of_string (String.trim (String.sub line n (String.length line - n)))
      else acc)
    0. lines

let server_layers c =
  match call_ok c P.Stats with
  | P.Stats_r lines ->
      let avg kind = stat lines ~name:"sqlledger_request_latency_us" ~kind ~stat:(Some "avg") in
      let count kind = stat lines ~name:"sqlledger_requests_total" ~kind ~stat:None in
      [
        (* Every write the workloads send is an auto-commit [exec]. *)
        ("server.batch_size", count "exec" /. Float.max 1. (count "commit.batch_size"));
        ("server.flush_us", avg "commit.flush_latency");
        ("server.queue_wait_us", avg "server.queue_wait_us");
        ("server.write_lock_wait_us", avg "lock.write_wait_us");
      ]
  | _ -> failwith "stats: unexpected response"

(* ------------------------------------------------------------------ *)
(* The in-process replay of a traced run *)

let has_block_close (st : Dml.staged) =
  List.exists
    (function Aries.Log_record.Block_close _ -> true | _ -> false)
    st.staged_records

(* The server's write path, one writer at a time, through the public
   functions it calls and in its order: parse, stage, snapshot, WAL
   append (fsync included), accumulate. *)
type replayer = {
  rdb : Database.t;
  mutable view : Database.t;
  committed : live;  (** transaction ids, in commit order *)
}

let replay_open ~root ~block_size ~signing_seed ~statements =
  let dir = Filename.concat root "replay" in
  let d =
    match Durable.open_dir ~block_size ?signing_seed ~dir ~name:"bench" () with
    | Ok d -> d
    | Error e -> failwith e
  in
  let db = Durable.db d in
  ignore
    (Database.create_ledger_table db ~name:table
       ~columns:
         [
           Relation.Column.make "id" Relation.Datatype.Int;
           Relation.Column.make "v" (Relation.Datatype.Varchar value_len);
         ]
       ~key:[ "id" ] ()
      : Ledger_table.t);
  List.iter (fun sql -> ignore (Dml.execute db ~user:"replay" sql : Dml.result)) statements;
  { rdb = db; view = Database.snapshot db; committed = { keys = [||]; n = 0 } }

let replay_op r ~req op =
  let span name f = Trace.span ~req name f in
  match op.kind with
  | Select | Select_v ->
      span "replay.read" (fun p ->
          let st =
            Trace.span ~parent:p ~req "sqlexec.parse" (fun _ ->
                Sqlexec.Parser.parse_statement op.sql)
          in
          ignore
            (Trace.span ~parent:p ~req "sqlexec.point_select" (fun _ ->
                 Dml.execute_statement r.view ~user:"replay" st)
              : Dml.result);
          let t = Database.ledger_table r.view table in
          ignore
            (Trace.span ~parent:p ~req "btree.lookup" (fun _ ->
                 Ledger_table.find t ~key:[| Relation.Value.Int op.key |])
              : Relation.Row.t option))
  | Update | Insert | Delete ->
      span "replay.write" (fun p ->
          let st =
            Trace.span ~parent:p ~req "sqlexec.parse" (fun _ ->
                Sqlexec.Parser.parse_statement op.sql)
          in
          let t0 = Trace.now_ns () in
          let _, staged = Dml.execute_statement_staged r.rdb ~user:"replay" st in
          let t1 = Trace.now_ns () in
          Trace.alias ~parent:p ~req "core.stage" ~t0 ~t1;
          let st = Option.get staged in
          if has_block_close st then Trace.alias ~parent:p ~req "ledger.block_close" ~t0 ~t1;
          r.view <-
            Trace.span ~parent:p ~req "core.snapshot" (fun _ -> Database.snapshot r.rdb);
          let ledger = Database.ledger r.rdb in
          ignore
            (Trace.span ~parent:p ~req "wal.append" (fun _ ->
                 Aries.Wal.append_batch (Database_ledger.wal ledger) st.staged_records)
              : int list);
          Trace.span ~parent:p ~req "ledger.accumulate" (fun _ ->
              Database_ledger.accumulate_batch ledger [ st.staged_entry ]);
          live_add r.committed st.staged_entry.Types.txn_id;
          if op.kind <> Delete then begin
            let t = Database.ledger_table r.rdb table in
            match Ledger_table.find t ~key:[| Relation.Value.Int op.key |] with
            | Some row ->
                ignore
                  (Trace.span ~parent:p ~req "relation.row_hash" (fun _ ->
                       Ledger_table.hash_created t row)
                    : string)
            | None -> ()
          end)

(* ------------------------------------------------------------------ *)
(* Workloads *)

let setup_median ~root ~block_size ~signing_seed ~statements =
  Stats.repeat_median
    (fun i ->
      setup ~root ~name:(Printf.sprintf "setup-%d" i) ~block_size ~signing_seed
        ~statements)
    ~discard:(fun s ->
      stop_server s;
      Host.rm_rf s.dir)

let digest c =
  match call_ok c P.Digest with
  | P.Digest_r j -> (
      match Digest.of_json j with Ok d -> d | Error e -> failwith e)
  | _ -> failwith "digest: unexpected response"

(* The end every served workload shares: final digest, the receipt
   sample, the crash image, the reopens and the checks. [measured] are the
   receipt batches of the measured phase, if any: [receipt_us] comes from
   them. Otherwise it comes from the sample, fetched once before the
   image is copied and again after each reopen, while the server idles, so
   that its samples spread over the run's tail. [seen] holds the blocks
   whose key [measured] already carries. *)
let finish ~root ~seed ~s ~ctl ~mid ~commit_ids ~model ~counts ~measured ~seen =
  let layers = if Trace.enabled () then server_layers ctl else [] in
  let final = digest ctl in
  let ids =
    List.map (fun i -> commit_ids.(i))
      (sample_indices ~seed ~commits:(Array.length commit_ids))
  in
  let sample = fetch_sample ~seen ctl ids ~per:16 in
  Outcome.check
    (List.for_all (fun f -> f.pending = 0) sample)
    "no sampled receipt is pending after the final digest";
  let image = Filename.concat root "image" in
  Host.copy_tree s.dir image;
  let timed = ref (if measured = [] then sample else measured) in
  let between () =
    if measured = [] then timed := fetch_sample ~seen ctl ids ~per:16 @ !timed
  in
  let result =
    Image.reopen_and_verify ~between ~reopens:5 ~image ~workdir:root ~digest:final
      ~check:Outcome.check ()
  in
  Wire.Client.close ctl;
  stop_server s;
  check_rows result.db model;
  Outcome.check
    (result.versions = expected_versions counts)
    (Printf.sprintf "verifier counted %d row versions, the workload expects %d"
       result.versions (expected_versions counts));
  Image.check_chain ~check:Outcome.check result.db ~older:mid ~newer:final;
  let fetched = measured @ sample in
  Image.check_receipts ~check:Outcome.check (List.concat_map parse_fetched fetched);
  Image.check_tamper ~tables:[ table ] ~check:Outcome.check result.db ~digest:final
    (tamper_attack model);
  if Trace.enabled () then Image.traced_reopen ~dir:(Image.fresh_copy ~image ~workdir:root 9);
  let sum f = List.fold_left (fun n x -> n + f x) 0 fetched in
  ( result,
    List.map per_receipt_us !timed,
    ( "wire.bytes_per_receipt",
      float_of_int (sum (fun f -> f.bytes))
      /. float_of_int (max 1 (sum (fun f -> List.length f.stripped))) )
    :: layers,
    Outcome.wal_shape image )

let oltp ~root ~seed ~ops =
  let values = preload_values ~seed in
  let statements = preload_statements values in
  let streams =
    Array.init 2 (fun conn -> oltp_stream ~seed ~conn ~values ~ops:(ops / 2))
  in
  let s, setup_s =
    setup_median ~root ~block_size:100_000 ~signing_seed:None ~statements
  in
  let ctl = connect s in
  let mid = digest ctl in
  let conns = Array.map (fun _ -> connect s) streams in
  Gc.compact ();
  let t0 = Trace.now_ns () in
  let results, minor, major, top =
    Outcome.gc_around (fun () ->
        let out = Array.make 2 None in
        let threads =
          Array.mapi
            (fun i (stream, _, _) ->
              Thread.create
                (fun () -> out.(i) <- Some (run_conn conns.(i) ~req_base:(i * ops) stream))
                ())
            streams
        in
        Array.iter Thread.join threads;
        Array.map Option.get out)
  in
  let rss_mb = Host.peak_rss_mb () in
  Array.iter Wire.Client.close conns;
  let model = Hashtbl.create (preload_rows * 2) in
  Array.iter (fun (_, m, _) -> Hashtbl.iter (Hashtbl.replace model) m) streams;
  let commit_ids =
    Array.concat (Array.to_list (Array.map (fun r -> r.txn_ids) results))
    |> Array.to_list |> List.filter (fun i -> i >= 0) |> List.sort compare |> Array.of_list
  in
  let wrong = Array.fold_left (fun n r -> n + r.wrong_reads) 0 results in
  Outcome.check (wrong = 0) (Printf.sprintf "%d point reads returned a stale or wrong value" wrong);
  let result, receipt_us, layers, (wal_bytes, wal_records, wal_commits) =
    finish ~root ~seed ~s ~ctl ~mid ~commit_ids ~model
      ~counts:(Array.to_list (Array.map (fun (_, _, c) -> c) streams))
      ~measured:[] ~seen:(Hashtbl.create 4)
  in
  if Trace.enabled () then begin
    let r = replay_open ~root ~block_size:100_000 ~signing_seed:None ~statements in
    let a, _, _ = streams.(0) and b, _, _ = streams.(1) in
    Array.iteri
      (fun i op ->
        replay_op r ~req:i op;
        if i < Array.length b then replay_op r ~req:(ops + i) b.(i))
      a;
    ignore (Database.generate_digest r.rdb : Digest.t option);
    let ids =
      List.map (fun i -> r.committed.keys.(i))
        (sample_indices ~seed ~commits:r.committed.n)
    in
    ignore (Image.issue_spanned ~cached_at_close:false ~seen:(Hashtbl.create 4) r.rdb ids
      : (Receipt.t * (int64 * float)) list)
  end;
  {
    Outcome.setup_s;
    attempted = ops / 2 * 2;
    failed = Array.fold_left (fun n r -> n + r.failed) 0 results;
    start_ns = t0;
    op_ends = List.concat_map (fun r -> r.lat.ends) (Array.to_list results);
    commits = List.concat_map (fun r -> r.lat.commit) (Array.to_list results);
    read_us = List.concat_map (fun r -> r.lat.read) (Array.to_list results);
    read_v_us = List.concat_map (fun r -> r.lat.read_v) (Array.to_list results);
    receipt_us;
    image = result;
    wal_bytes;
    wal_records;
    wal_commits;
    rss_mb;
    held_bytes = 0;
    gc_minor_words = minor;
    gc_major = major;
    gc_top_heap_mb = top;
    layers;
  }

(* [receipts]: one writer and one receipt connection, blocks of 32,
   signed. The receipt connection follows [plan]; the receipts it gets
   are parsed now and verified offline after the measured phase. *)
let signing_seed = Some "ledgerbench-signing-seed"

type progress = {
  pm : Mutex.t;
  pc : Condition.t;
  ids : int array;  (** the writer's commits, in order *)
  mutable n : int;
  mutable writer_done : bool;
}

let run_receipt_conn c ~plan ~progress ~seen =
  let got = ref [] and ends = ref [] and batches = ref 0 and failed = ref 0 in
  let rec wait need =
    if progress.n >= need then true
    else if progress.writer_done then false
    else begin
      Condition.wait progress.pc progress.pm;
      wait need
    end
  in
  let ready need =
    Mutex.lock progress.pm;
    let ok = wait need in
    Mutex.unlock progress.pm;
    ok
  in
  let send ids =
    incr batches;
    match fetch_receipts ~seen c ids with
    | f when f.pending = 0 && List.length f.stripped = List.length ids ->
        ends := Trace.now_ns () :: !ends;
        got := f :: !got
    | _ -> incr failed
    | exception Failure _ -> incr failed
  in
  for g = 0 to plan.groups - 1 do
    if ready (group * (g + 2)) then
      send (List.init group (fun i -> progress.ids.((group * g) + i)))
  done;
  (* No count is ever reached: this returns once the writer has stopped. *)
  ignore (ready max_int : bool);
  List.iter (fun idx -> send (List.map (fun i -> progress.ids.(i)) idx)) plan.evicted;
  (List.rev !got, !ends, !batches, !failed)

let receipts ~root ~seed ~ops =
  let values = preload_values ~seed in
  let statements = preload_statements values in
  let stream, model, counts = writer_stream ~seed ~values ~ops in
  let plan = plan ~seed ~groups:((counts.updates / group) - 2) in
  let s, setup_s = setup_median ~root ~block_size:group ~signing_seed ~statements in
  let ctl = connect s in
  let mid = digest ctl in
  let writer = connect s and reader = connect s in
  let seen = Hashtbl.create 512 in
  let progress =
    {
      pm = Mutex.create ();
      pc = Condition.create ();
      ids = Array.make counts.updates (-1);
      n = 0;
      writer_done = false;
    }
  in
  Gc.compact ();
  let t0 = Trace.now_ns () in
  let (res, (fetched, receipt_ends, batches, rfailed)), minor, major, top =
    Outcome.gc_around (fun () ->
        let rres = ref None in
        let rth =
          Thread.create
            (fun () -> rres := Some (run_receipt_conn reader ~plan ~progress ~seen))
            ()
        in
        let res =
          {
            lat = new_lat ();
            txn_ids = Array.make (Array.length stream) (-1);
            failed = 0;
            wrong_reads = 0;
          }
        in
        Array.iteri
          (fun i op ->
            send writer ~req_id:i res i op;
            if res.txn_ids.(i) >= 0 then begin
              Mutex.lock progress.pm;
              progress.ids.(progress.n) <- res.txn_ids.(i);
              progress.n <- progress.n + 1;
              Condition.broadcast progress.pc;
              Mutex.unlock progress.pm
            end)
          stream;
        Mutex.lock progress.pm;
        progress.writer_done <- true;
        Condition.broadcast progress.pc;
        Mutex.unlock progress.pm;
        Thread.join rth;
        (res, Option.get !rres))
  in
  let rss_mb = Host.peak_rss_mb () and held_bytes = held_bytes fetched in
  Wire.Client.close writer;
  Wire.Client.close reader;
  Outcome.check (res.wrong_reads = 0)
    (Printf.sprintf "%d reads did not return the value their writer last wrote"
       res.wrong_reads);
  let commit_ids = Array.sub progress.ids 0 progress.n in
  let result, receipt_us, layers, (wal_bytes, wal_records, wal_commits) =
    finish ~root ~seed ~s ~ctl ~mid ~commit_ids ~model ~counts:[ counts ]
      ~measured:fetched ~seen
  in
  if Trace.enabled () then begin
    let r = replay_open ~root ~block_size:group ~signing_seed ~statements in
    let seen = Hashtbl.create 256 and next_group = ref 0 in
    let issue ?evicted ~cached_at_close ids =
      ignore
        (Image.issue_spanned ?evicted ~cached_at_close ~seen r.rdb ids
          : (Receipt.t * (int64 * float)) list)
    in
    let committed i = r.committed.keys.(i) in
    Array.iteri
      (fun i op ->
        replay_op r ~req:i op;
        while
          !next_group < plan.groups && r.committed.n >= group * (!next_group + 2)
        do
          issue ~cached_at_close:true
            (List.init group (fun i -> committed ((group * !next_group) + i)));
          incr next_group
        done)
      stream;
    List.iter
      (fun idx -> issue ~evicted:true ~cached_at_close:false (List.map committed idx))
      plan.evicted
  end;
  {
    Outcome.setup_s;
    attempted = Array.length stream + batches;
    failed = res.failed + rfailed;
    start_ns = t0;
    op_ends = List.rev_append receipt_ends res.lat.ends;
    commits = res.lat.commit;
    read_us = res.lat.read;
    read_v_us = res.lat.read_v;
    receipt_us;
    image = result;
    wal_bytes;
    wal_records;
    wal_commits;
    rss_mb;
    held_bytes;
    gc_minor_words = minor;
    gc_major = major;
    gc_top_heap_mb = top;
    layers;
  }
