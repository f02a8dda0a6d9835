(* The steps every workload ends with, run on the crash image: reopen,
   full verification, incremental audit, the digest chain, offline
   receipt checks and a tampered copy. Reopens always start from a fresh
   copy of the image, because [Durable.open_dir] writes a snapshot and
   restarts the log of the directory it opens. *)

open Sql_ledger

(* The crash image is reopened a few times (fewer where a reopen takes
   seconds), each copy in a fresh process, and each copy is verified once
   and audited [audits] times, an audit sample being [scans] scans back
   to back. On the reference host this memory-heavy work runs in slow
   and fast spells of several seconds to about 60 % apart: a 2-second
   verification of identical data scatters by about 20 % from one
   process to the next. So each figure is the trimmed mean over
   processes spread across the run's tail: it follows the share of slow
   spells, where a median of five would jump between the two speeds. *)
let audits = 2
let scans = 2

type result = {
  reopen_s : float;
  verify_us_per_version : float;
  audit_us_per_txn : float;
  versions : int;
  transactions : int;
  db : Database.t;  (** a further reopened copy, for the workload's own checks *)
  repeats_s : (string * float list) list;  (** every sample, for the record *)
}

let fresh_copy ~image ~workdir i =
  let d = Filename.concat workdir (Printf.sprintf "reopen-%d" i) in
  Host.copy_tree image d;
  d

let open_exn ~dir =
  match Durable.open_dir ~dir ~name:"bench" () with
  | Ok d -> Durable.db d
  | Error e -> failwith ("reopen: " ^ e)

(* [Durable.open_dir] taken apart into the calls it makes, each in its
   own span: load the log, replay it over the snapshot, save the result. *)
let traced_reopen ~dir =
  Trace.span "reopen" (fun p ->
      let records =
        Trace.span ~parent:p "wal.load" (fun _ ->
            match Aries.Wal.load (Durable.wal_path dir) with
            | Ok r -> r
            | Error e -> failwith e)
      in
      let snapshot =
        match Snapshot.read_file (Durable.snapshot_path dir) with
        | Ok j -> Some j
        | Error _ -> None
      in
      let db =
        Trace.span ~parent:p "recovery.replay" (fun _ ->
            match Wal_replay.replay ?snapshot ~records () with
            | Ok db -> db
            | Error e -> failwith e)
      in
      Trace.span ~parent:p "recovery.snapshot_save" (fun _ ->
          Snapshot.save_to_file db
            ~path:(Filename.concat dir "snapshot.resaved.json")))

(* Time [f] from a fully collected heap, so that garbage left by the
   previous step is not collected inside this one; steal excluded (see
   [Host.timed]). *)
let timed_ms f =
  Gc.compact ();
  let v, s = Host.timed f in
  (v, s *. 1e3)

(* One reopened copy, measured: the open, a verification against the
   digest and [audits] audit samples from genesis. *)
type sample = {
  open_s : float;
  verify_us : float list;  (** per row version checked *)
  audit_us : float list;  (** per transaction covered *)
  versions : int;
  transactions : int;
  problems : string list;  (** failed checks *)
}

let measure_copy ~image ~workdir ~digest i =
  let dir = fresh_copy ~image ~workdir i in
  let problems = ref [] in
  let check ok what = if not ok then problems := what :: !problems in
  let db, open_ms = timed_ms (fun () -> open_exn ~dir) in
  let r, verify_ms = timed_ms (fun () -> Verifier.verify ~jobs:1 db ~digests:[ digest ]) in
  check (Verifier.ok r)
    (String.concat "; "
       ("reopened image verifies against the final digest"
       :: List.map Verifier.violation_to_string r.Verifier.violations));
  let audit_us =
    List.init audits (fun _ ->
        let outcomes, ms =
          timed_ms (fun () -> List.init scans (fun _ -> Incremental_audit.scan db ~from:None))
        in
        check (List.for_all Incremental_audit.ok outcomes)
          "incremental audit from genesis is clean";
        ms *. 1e3 /. float_of_int (scans * max 1 r.transactions_checked))
  in
  {
    open_s = open_ms /. 1e3;
    verify_us = [ verify_ms *. 1e3 /. float_of_int (max 1 r.versions_checked) ];
    audit_us;
    versions = r.versions_checked;
    transactions = r.transactions_checked;
    problems = !problems;
  }

let sample_to_json s =
  let floats l = Sjson.List (List.map (fun f -> Sjson.Float f) l) in
  Sjson.Obj
    [
      ("open_s", Sjson.Float s.open_s);
      ("verify_us", floats s.verify_us);
      ("audit_us", floats s.audit_us);
      ("versions", Sjson.Int s.versions);
      ("transactions", Sjson.Int s.transactions);
      ("problems", Sjson.List (List.map (fun p -> Sjson.String p) s.problems));
    ]

let sample_of_json j =
  let num = function Sjson.Float f -> f | Sjson.Int i -> float_of_int i | _ -> nan in
  let floats k = List.map num (Sjson.get_list (Sjson.member k j)) in
  {
    open_s = num (Sjson.member "open_s" j);
    verify_us = floats "verify_us";
    audit_us = floats "audit_us";
    versions = Sjson.get_int (Sjson.member "versions" j);
    transactions = Sjson.get_int (Sjson.member "transactions" j);
    problems = List.map Sjson.get_string (Sjson.get_list (Sjson.member "problems" j));
  }

(* The child side: measure one copy and print the sample as JSON. *)
let measure_main ~image ~workdir ~digest_path ~index =
  let digest =
    match Digest.of_string (In_channel.with_open_bin digest_path In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith e
  in
  print_endline
    (Sjson.to_string (sample_to_json (measure_copy ~image ~workdir ~digest index)))

(* Each copy is reopened and measured in a fresh process of this program,
   as a restarted server would reopen it: the measurement then owes
   nothing to the heap and memory this process built during the measured
   phase, and each repeat draws its own process. *)
let measure_in_child ~image ~workdir ~digest_path i =
  let args =
    [|
      Sys.executable_name; "--measure-image"; image; "--digest"; digest_path;
      "--workdir"; workdir; "--index"; string_of_int i;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match List.rev (String.split_on_char '\n' (String.trim out)) with
      | last :: _ -> sample_of_json (Sjson.of_string last)
      | [] -> failwith "reopen measurement printed nothing")
  | _ -> failwith "reopen measurement failed"

(* Reopen [reopens] fresh copies, each measured in its own process,
   calling [between] after each; then open here, untimed, for the
   workload's own checks, the copy the last of them recovered: its
   snapshot holds the state recovery produced, so this open does not
   replay the log again. *)
let reopen_and_verify ?(between = ignore) ~reopens ~image ~workdir ~digest ~check () =
  let digest_path = Filename.concat workdir "final-digest.json" in
  Out_channel.with_open_bin digest_path (fun oc ->
      output_string oc (Digest.to_string digest));
  let samples =
    List.init reopens (fun i ->
        let s = measure_in_child ~image ~workdir ~digest_path (i + 1) in
        between ();
        s)
  in
  List.iter (fun s -> List.iter (fun p -> check false p) s.problems) samples;
  let copy i = Filename.concat workdir (Printf.sprintf "reopen-%d" i) in
  for i = 1 to reopens - 1 do
    Host.rm_rf (copy i)
  done;
  let db = open_exn ~dir:(copy reopens) in
  let all f = List.concat_map f samples in
  let last = List.hd (List.rev samples) in
  {
    reopen_s = Stats.trimmed_mean (List.map (fun s -> s.open_s) samples);
    verify_us_per_version = Stats.trimmed_mean (all (fun s -> s.verify_us));
    audit_us_per_txn = Stats.trimmed_mean (all (fun s -> s.audit_us));
    versions = last.versions;
    transactions = last.transactions;
    db;
    repeats_s =
      [
        ("reopen_s", List.map (fun s -> s.open_s) samples);
        ("verify_us_per_version", all (fun s -> s.verify_us));
        ("audit_us_per_txn", all (fun s -> s.audit_us));
      ];
  }

(* A mid-run digest must extend to the final one (fork detection). *)
let check_chain ~check db ~older ~newer =
  check
    (Result.is_ok (Verifier.verify_digest_chain db ~older ~newer))
    "the mid-run digest chains to the final digest"

(* Tamper with the reopened copy (never the image itself) and require
   verification to notice: of the whole database, or of the tampered
   [tables] and the chain. *)
let check_tamper ?tables ~check db ~digest attack =
  check
    (Result.is_ok (Tamper.apply db attack))
    ("tamper attack applies: " ^ Tamper.describe attack);
  check
    (not (Verifier.ok (Verifier.verify ?tables ~jobs:1 db ~digests:[ digest ])))
    ("verification fails after: " ^ Tamper.describe attack)

let flip_first_byte s =
  if s = "" then "x"
  else
    String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

(* Offline receipt checks. A batch carries each block's key and
   signature once, so the Lamport signature (about 1 ms to check) is
   verified on one self-contained receipt per block; every other receipt
   of a signed ledger must name a block header so verified. Each receipt
   must also be rejected once one byte of its entry changes. *)
let check_receipts ~check receipts =
  let anchors = Hashtbl.create 64 in
  List.iter
    (fun (r : Receipt.t) ->
      if r.signature <> None && Result.is_ok (Receipt.verify r) then
        Hashtbl.replace anchors r.block.block_id r.block)
    receipts;
  let signed = Hashtbl.length anchors > 0 in
  let bad = ref 0 and undetected = ref 0 in
  List.iter
    (fun (r : Receipt.t) ->
      let anchored =
        (not signed) || Hashtbl.find_opt anchors r.block.block_id = Some r.block
      in
      if not (anchored && Result.is_ok (Receipt.verify r)) then incr bad;
      let forged =
        { r with entry = { r.entry with user = flip_first_byte r.entry.user } }
      in
      if Result.is_ok (Receipt.verify forged) then incr undetected)
    receipts;
  check
    (receipts <> [] && !bad = 0)
    (Printf.sprintf "all %d receipts verify offline (%d failed)"
       (List.length receipts) !bad);
  check (!undetected = 0)
    (Printf.sprintf
       "every receipt with a flipped entry byte is rejected (%d accepted)"
       !undetected)

(* Issue receipts in-process, one span per call: the receipt cache's
   transaction lookup, then the issue itself. A lookup is a hit when the
   block sits in the cache: cached when it closed (small blocks closed by
   commits), or already asked for in this run, and not [evicted]. The
   first issue for a block, and any issue for an evicted one, builds its
   proof bundle and signature.
   Returns each receipt with when its issue ended and how long it took,
   in microseconds. *)
let issue_spanned ?(evicted = false) ~cached_at_close ~seen db ids =
  let ledger = Database.ledger db in
  List.filter_map
    (fun txn_id ->
      Trace.span ~req:txn_id "receipt" (fun p ->
          let t0 = Trace.now_ns () in
          let entry = Database_ledger.locate_txn ledger ~txn_id in
          let t1 = Trace.now_ns () in
          match entry with
          | None -> None
          | Some e ->
              let first = evicted || not (Hashtbl.mem seen e.Types.block_id) in
              let hit = (not evicted) && (cached_at_close || not first) in
              Trace.alias ~parent:p ~req:txn_id
                (if hit then "ledger.locate_hit" else "ledger.locate_miss")
                ~t0 ~t1;
              let t0 = Trace.now_ns () in
              let r = Receipt.generate_cached db ~txn_id in
              let t1 = Trace.now_ns () in
              Trace.alias ~parent:p ~req:txn_id
                (if first then "receipt.issue_first" else "receipt.issue_cached")
                ~t0 ~t1;
              Hashtbl.replace seen e.Types.block_id ();
              Result.to_option r
              |> Option.map (fun r -> (r, (t1, Int64.to_float (Int64.sub t1 t0) /. 1e3)))))
    ids
