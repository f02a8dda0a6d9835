(* WAL records, file persistence with torn tails, and the analysis phase of
   recovery (§3.3.2). *)

module LR = Aries.Log_record

let sample_commit txn_id block_id ordinal : LR.commit_info =
  {
    txn_id;
    commit_ts = 1000.0 +. float_of_int txn_id;
    user = Printf.sprintf "user%d" txn_id;
    block_id;
    ordinal;
    table_roots = [ (1, String.make 32 'a'); (2, String.make 32 'b') ];
  }

let test_record_roundtrip () =
  let records =
    [
      LR.Begin { txn_id = 7 };
      LR.Abort { txn_id = 7 };
      LR.Checkpoint { flushed_upto_lsn = 42 };
      LR.Commit (sample_commit 9 2 17);
    ]
  in
  List.iter
    (fun r ->
      match LR.of_line (LR.to_line r) with
      | Ok r' ->
          Alcotest.(check string) "roundtrip" (LR.to_line r) (LR.to_line r')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    records

let test_record_rejects_garbage () =
  List.iter
    (fun line ->
      match LR.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" line)
    [ "not json"; "{}"; {|{"type":"explode"}|}; {|{"type":"commit"}|} ]

let test_wal_lsns_and_records () =
  let w = Aries.Wal.create () in
  Alcotest.(check int) "empty lsn" 0 (Aries.Wal.last_lsn w);
  let l1 = Aries.Wal.append w (LR.Begin { txn_id = 1 }) in
  let l2 = Aries.Wal.append w (LR.Commit (sample_commit 1 0 0)) in
  Alcotest.(check int) "lsn 1" 1 l1;
  Alcotest.(check int) "lsn 2" 2 l2;
  Alcotest.(check int) "records" 2 (List.length (Aries.Wal.records w));
  Alcotest.(check int) "records_from" 1 (List.length (Aries.Wal.records_from w 1))

let with_temp_file f =
  let path = Filename.temp_file "waltest" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_wal_file_persistence () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      ignore (Aries.Wal.append w (LR.Commit (sample_commit 1 0 0)));
      Aries.Wal.close w;
      match Aries.Wal.load path with
      | Ok records -> Alcotest.(check int) "loaded" 2 (List.length records)
      | Error e -> Alcotest.fail e)

let test_wal_torn_tail () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      ignore (Aries.Wal.append w (LR.Commit (sample_commit 1 0 0)));
      Aries.Wal.close w;
      (* Simulate a crash mid-write: append half a record. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc {|{"type":"commit","txn|};
      close_out oc;
      match Aries.Wal.load path with
      | Ok records ->
          Alcotest.(check int) "torn tail dropped" 2 (List.length records)
      | Error e -> Alcotest.fail e)

let test_wal_mid_corruption_detected () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "GARBAGE\n";
      output_string oc (LR.to_line (LR.Begin { txn_id = 1 }) ^ "\n");
      close_out oc;
      match Aries.Wal.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "mid-log corruption must not be silently skipped")

(* Frame a payload the way Wal.append does: "#crc len lsn payload". *)
let frame lsn payload =
  let body = Printf.sprintf "%d %s" lsn payload in
  Printf.sprintf "#%08lx %d %s" (Fault.Crc32.string body) (String.length body)
    body

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let test_wal_frames_on_disk () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      ignore (Aries.Wal.append w (LR.Commit (sample_commit 1 0 0)));
      Aries.Wal.close w;
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      List.iteri
        (fun i line ->
          Alcotest.(check string)
            (Printf.sprintf "record %d framed" (i + 1))
            (frame (i + 1) (LR.to_line (List.nth [ LR.Begin { txn_id = 1 };
                                                   LR.Commit (sample_commit 1 0 0) ] i)))
            line)
        lines)

let test_wal_framed_torn_tail () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      ignore (Aries.Wal.append w (LR.Commit (sample_commit 1 0 0)));
      Aries.Wal.close w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* Tear the last record at every byte boundary: always recoverable. *)
      let second_starts = String.index_from full 1 '#' in
      for cut = second_starts + 1 to String.length full - 2 do
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        match Aries.Wal.load_ex path with
        | Error e -> Alcotest.failf "cut %d: %s" cut e
        | Ok l ->
            Alcotest.(check int)
              (Printf.sprintf "cut %d keeps prefix" cut)
              1
              (List.length l.Aries.Wal.l_records)
      done)

let test_wal_bitflip_is_corruption_not_torn () =
  (* A checksum failure with more records after it must fail loudly, with
     the last good LSN in the message. *)
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      ignore (Aries.Wal.append w (LR.Begin { txn_id = 2 }));
      ignore (Aries.Wal.append w (LR.Commit (sample_commit 2 0 0)));
      Aries.Wal.close w;
      let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* Flip one payload byte in the middle record. *)
      let nl1 = Bytes.index full '\n' in
      let mid = nl1 + 30 in
      Bytes.set full mid
        (if Bytes.get full mid = 'x' then 'y' else 'x');
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc full);
      match Aries.Wal.load path with
      | Ok _ -> Alcotest.fail "bit flip mid-log must not load"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "diagnostic names the last good LSN: %s" e)
            true
            (let has needle =
               let ln = String.length needle and n = String.length e in
               let rec go i = i + ln <= n && (String.sub e i ln = needle || go (i + 1)) in
               go 0
             in
             has "after LSN 1"))

let test_wal_nonmonotonic_lsn_is_corruption () =
  with_temp_file (fun path ->
      write_lines path
        [
          frame 5 (LR.to_line (LR.Begin { txn_id = 1 }));
          frame 3 (LR.to_line (LR.Begin { txn_id = 2 }));
          frame 6 (LR.to_line (LR.Begin { txn_id = 3 }));
        ];
      match Aries.Wal.load path with
      | Ok _ -> Alcotest.fail "regressing LSNs must not load"
      | Error _ -> ())

let test_wal_first_lsn_and_advance () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path ~first_lsn:41 () in
      Alcotest.(check int) "empty log last_lsn" 40 (Aries.Wal.last_lsn w);
      Alcotest.(check int) "first append" 41
        (Aries.Wal.append w (LR.Begin { txn_id = 1 }));
      Aries.Wal.advance_to w 100;
      Alcotest.(check int) "post-advance append" 101
        (Aries.Wal.append w (LR.Begin { txn_id = 2 }));
      Aries.Wal.advance_to w 7;
      Alcotest.(check int) "advance never regresses" 101 (Aries.Wal.last_lsn w);
      Aries.Wal.close w;
      match Aries.Wal.load path with
      | Error e -> Alcotest.fail e
      | Ok records ->
          Alcotest.(check (list int)) "lsns round-trip through the file"
            [ 41; 101 ] (List.map fst records))

(* The fsyncgate rule: the first failed write breaks the log, every later
   append, batch or sync re-raises that same exception, and nothing after
   the failure reaches the file or the in-memory record list. *)
let test_wal_broken_by_failed_write () =
  with_temp_file (fun path ->
      let w = Aries.Wal.create ~path () in
      ignore (Aries.Wal.append_batch w [ LR.Begin { txn_id = 1 } ]);
      Fault.set "wal.batch_append" Fault.Fail;
      let first =
        Fun.protect ~finally:Fault.reset (fun () ->
            match Aries.Wal.append_batch w [ LR.Begin { txn_id = 2 } ] with
            | _ -> Alcotest.fail "the armed batch was written"
            | exception e -> e)
      in
      (match Aries.Wal.broken w with
      | Some e ->
          Alcotest.(check bool) "the log records its first failure" true
            (e == first)
      | None -> Alcotest.fail "a failed write left the log healthy");
      List.iter
        (fun (what, f) ->
          match f () with
          | () -> Alcotest.failf "%s succeeded on a broken log" what
          | exception e ->
              Alcotest.(check bool) (what ^ " re-raises the first failure")
                true (e == first))
        [
          ( "append",
            fun () -> ignore (Aries.Wal.append w (LR.Begin { txn_id = 3 })) );
          ("empty batch", fun () -> ignore (Aries.Wal.append_batch w []));
          ("sync", fun () -> Aries.Wal.sync w);
        ];
      Alcotest.(check int) "in memory: the record before the failure" 1
        (List.length (Aries.Wal.records w));
      Aries.Wal.close w;
      match Aries.Wal.load path with
      | Error e -> Alcotest.fail e
      | Ok records ->
          Alcotest.(check (list int)) "on disk: the record before the failure"
            [ 1 ] (List.map fst records))

let test_analysis_no_checkpoint () =
  let entries =
    [
      (1, LR.Begin { txn_id = 1 });
      (2, LR.Commit (sample_commit 1 0 0));
      (3, LR.Begin { txn_id = 2 });
      (4, LR.Commit (sample_commit 2 0 1));
    ]
  in
  let a = Aries.Recovery.analyze entries in
  Alcotest.(check int) "all commits pending" 2 (List.length a.pending_commits);
  Alcotest.(check int) "highest txn" 2 a.highest_txn_id;
  Alcotest.(check bool) "no checkpoint" true (a.last_checkpoint_lsn = None)

let test_analysis_with_checkpoint () =
  let entries =
    [
      (1, LR.Commit (sample_commit 1 0 0));
      (2, LR.Commit (sample_commit 2 0 1));
      (3, LR.Checkpoint { flushed_upto_lsn = 2 });
      (4, LR.Commit (sample_commit 3 0 2));
      (5, LR.Begin { txn_id = 4 });
      (6, LR.Abort { txn_id = 4 });
    ]
  in
  let a = Aries.Recovery.analyze entries in
  Alcotest.(check int) "only post-checkpoint commits" 1
    (List.length a.pending_commits);
  Alcotest.(check int) "pending is txn 3" 3
    (List.hd a.pending_commits).LR.txn_id;
  Alcotest.(check int) "highest txn includes aborted" 4 a.highest_txn_id;
  Alcotest.(check bool) "checkpoint lsn" true (a.last_checkpoint_lsn = Some 3)

let test_analysis_aborted_not_pending () =
  let entries =
    [ (1, LR.Begin { txn_id = 1 }); (2, LR.Abort { txn_id = 1 }) ]
  in
  let a = Aries.Recovery.analyze entries in
  Alcotest.(check int) "no pending" 0 (List.length a.pending_commits)

let test_analysis_ordering () =
  let entries =
    [
      (1, LR.Commit (sample_commit 5 1 0));
      (2, LR.Commit (sample_commit 3 1 1));
      (3, LR.Commit (sample_commit 9 1 2));
    ]
  in
  let a = Aries.Recovery.analyze entries in
  Alcotest.(check (list int)) "LSN order preserved" [ 5; 3; 9 ]
    (List.map (fun (c : LR.commit_info) -> c.txn_id) a.pending_commits)

let () =
  Alcotest.run "wal"
    [
      ( "records",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_record_rejects_garbage;
        ] );
      ( "log",
        [
          Alcotest.test_case "lsns" `Quick test_wal_lsns_and_records;
          Alcotest.test_case "file persistence" `Quick test_wal_file_persistence;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "mid corruption" `Quick test_wal_mid_corruption_detected;
          Alcotest.test_case "frames on disk" `Quick test_wal_frames_on_disk;
          Alcotest.test_case "framed torn tail (all cuts)" `Quick
            test_wal_framed_torn_tail;
          Alcotest.test_case "bit flip is corruption" `Quick
            test_wal_bitflip_is_corruption_not_torn;
          Alcotest.test_case "non-monotonic lsn" `Quick
            test_wal_nonmonotonic_lsn_is_corruption;
          Alcotest.test_case "failed write breaks the log" `Quick
            test_wal_broken_by_failed_write;
          Alcotest.test_case "first_lsn / advance_to" `Quick
            test_wal_first_lsn_and_advance;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "no checkpoint" `Quick test_analysis_no_checkpoint;
          Alcotest.test_case "with checkpoint" `Quick test_analysis_with_checkpoint;
          Alcotest.test_case "aborted not pending" `Quick test_analysis_aborted_not_pending;
          Alcotest.test_case "ordering" `Quick test_analysis_ordering;
        ] );
    ]
