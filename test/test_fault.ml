(* The fault library itself: CRC-32 vectors, the CRC frame codec and its
   torn-versus-corrupt rule (also run through every log that uses it),
   failpoint registry semantics, and the crash-safe filesystem helpers. *)

let check = Alcotest.check
let int32_t = Alcotest.int32

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc_vectors () =
  (* The IEEE 802.3 check value. *)
  check int32_t "123456789" 0xCBF43926l (Fault.Crc32.string "123456789");
  check int32_t "empty" 0x00000000l (Fault.Crc32.string "");
  check int32_t "a" 0xE8B7BE43l (Fault.Crc32.string "a")

let test_crc_streaming_matches_oneshot () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let streamed =
    Fault.Crc32.(
      finish
        (update_substring
           (update_char (update_string init (String.sub s 0 10)) s.[10])
           s 11
           (String.length s - 11)))
  in
  check int32_t "streamed = one-shot" (Fault.Crc32.string s) streamed;
  let buf = Buffer.create 16 in
  Buffer.add_string buf s;
  check int32_t "buffer = one-shot" (Fault.Crc32.string s)
    Fault.Crc32.(finish (update_buffer init buf));
  check int32_t "substring" (Fault.Crc32.string "own f")
    (Fault.Crc32.substring s ~off:12 ~len:5)

(* ------------------------------------------------------------------ *)
(* CRC frames: one rule, checked on the codec and through every log *)

module Frame = Fault.Crc_frame
module LR = Aries.Log_record
module Decision_log = Shard.Decision_log

let stop_t =
  Alcotest.testable
    (fun ppf -> function
      | Frame.Clean -> Format.pp_print_string ppf "Clean"
      | Frame.Torn -> Format.pp_print_string ppf "Torn"
      | Frame.Corrupt { offset; reason } ->
          Format.fprintf ppf "Corrupt at %d (%s)" offset reason)
    (fun a b ->
      match (a, b) with
      | Frame.Corrupt { offset = x; _ }, Frame.Corrupt { offset = y; _ } -> x = y
      | _ -> a = b)

let corrupt_at offset = Frame.Corrupt { offset; reason = "" }

let with_temp_file f =
  let path = Filename.temp_file "crcframe" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The offset just past each frame's newline. *)
let frame_ends s =
  List.filter_map
    (fun i -> if s.[i] = '\n' then Some (i + 1) else None)
    (List.init (String.length s) Fun.id)

(* Every cut of [file] short of its full length, with the number of whole
   frames before the cut, the end of the last of them, and whether the
   cut falls on a frame boundary. *)
let each_cut file f =
  let ends = frame_ends file in
  for cut = 0 to String.length file - 1 do
    let kept = List.length (List.filter (fun e -> e <= cut) ends) in
    let clean = if kept = 0 then 0 else List.nth ends (kept - 1) in
    f ~cut:(String.sub file 0 cut) ~kept ~clean ~boundary:(clean = cut)
  done

(* Every one-bit flip of a byte of [file], newlines included, with the
   index and offset of the frame it hits, whether that frame is the last
   and whether the byte is its newline. *)
let each_flip file f =
  let ends = frame_ends file in
  let starts = 0 :: List.filteri (fun i _ -> i < List.length ends - 1) ends in
  List.iteri
    (fun k (start, stop) ->
      for i = start to stop - 1 do
        let b = Bytes.of_string file in
        Bytes.set b i (Char.chr (Char.code file.[i] lxor 1));
        f ~flipped:(Bytes.to_string b) ~frame:k ~offset:start
          ~final:(k = List.length ends - 1) ~newline:(i = stop - 1)
      done)
    (List.combine starts ends)

let decode_any tag s off len =
  if tag = '#' || tag = '@' then Ok (tag, String.sub s off len)
  else Error "unknown tag"

(* Three frames with mixed tags, written by [output]. *)
let three_frames () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      List.iter
        (fun (tag, body) ->
          let b = Buffer.create 16 in
          Buffer.add_string b body;
          Frame.output "test.crc_frame" oc ~tag b)
        [ ('#', "alpha"); ('@', "beta 2 gamma"); ('#', "{\"d\":[1,2]}") ];
      close_out oc;
      read_file path)

let test_frame_roundtrip () =
  let file = three_frames () in
  check Alcotest.string "the writers' bytes"
    (Printf.sprintf "#%08lx 5 alpha\n" (Fault.Crc32.string "alpha"))
    (String.sub file 0 (List.hd (frame_ends file)));
  let records, clean, stop = Frame.scan decode_any file in
  check stop_t "clean" Frame.Clean stop;
  check Alcotest.int "whole file" (String.length file) clean;
  check Alcotest.(list (pair char string)) "records"
    [ ('#', "alpha"); ('@', "beta 2 gamma"); ('#', {|{"d":[1,2]}|}) ]
    records;
  check Alcotest.(result unit string) "check"
    (Error "frame body is 4 bytes, header says 5")
    (Frame.check ~crc:(Fault.Crc32.string "alpha") ~len:5 "alpha" 0 4)

let test_frame_cuts () =
  let file = three_frames () in
  each_cut file (fun ~cut ~kept ~clean ~boundary ->
      let records, len, stop = Frame.scan decode_any cut in
      let name = Printf.sprintf "cut %d" (String.length cut) in
      check Alcotest.int (name ^ " keeps whole frames") kept
        (List.length records);
      check Alcotest.int (name ^ " clean prefix") clean len;
      check stop_t name (if boundary then Frame.Clean else Frame.Torn) stop);
  (* A cut just before the final newline drops that frame. *)
  let records, len, stop =
    Frame.scan decode_any (String.sub file 0 (String.length file - 1))
  in
  check Alcotest.int "unterminated final frame dropped" 2 (List.length records);
  check Alcotest.int "prefix" (List.nth (frame_ends file) 1) len;
  check stop_t "torn" Frame.Torn stop

let test_frame_flips () =
  let file = three_frames () in
  (* A damaged newline joins its frame to the next line; the intact frame
     behind it still makes the damage corruption, even when that frame is
     the last one. *)
  each_flip file (fun ~flipped ~frame ~offset ~final ~newline:_ ->
      let records, len, stop = Frame.scan decode_any flipped in
      let name = Printf.sprintf "flip in frame %d" frame in
      check Alcotest.int (name ^ " keeps the frames before it") frame
        (List.length records);
      check Alcotest.int (name ^ " prefix") offset len;
      check stop_t name (if final then Frame.Torn else corrupt_at offset) stop);
  (* Trailing blank lines after the last frame are clean; a blank line
     with a frame after it is not. *)
  let records, len, stop = Frame.scan decode_any (file ^ "\n \n\t\r\n") in
  check stop_t "trailing blanks" Frame.Clean stop;
  check Alcotest.int "all records" 3 (List.length records);
  check Alcotest.int "prefix ends at the last frame" (String.length file) len;
  let first = List.hd (frame_ends file) in
  let _, _, stop =
    Frame.scan decode_any
      (String.sub file 0 first ^ "\n" ^ String.sub file first (String.length file - first))
  in
  check stop_t "blank line mid-file" (corrupt_at first) stop

(* A WAL of three frames: one record, a batch of two, one record. The WAL
   writes only batches; the single-record frames are [#] frames framed by
   hand, as older logs hold them. *)
let wal_file () =
  with_temp_file (fun path ->
      let record_frame lsn record =
        Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
          path (fun oc ->
            let b = Buffer.create 64 in
            Buffer.add_string b (string_of_int lsn ^ " " ^ LR.to_line record);
            Frame.output "test.crc_frame" oc ~tag:'#' b)
      in
      write_file path "";
      record_frame 1 (LR.Begin { txn_id = 1 });
      let w = Aries.Wal.create ~path ~append:true ~first_lsn:2 () in
      ignore (Aries.Wal.append_batch w [ LR.Begin { txn_id = 2 }; LR.Abort { txn_id = 2 } ] : int list);
      Aries.Wal.close w;
      record_frame 4 (LR.Abort { txn_id = 1 });
      let file = read_file path in
      check Alcotest.(list char) "frame tags" [ '#'; '@'; '#' ]
        (List.map (fun i -> file.[i]) (0 :: List.filteri (fun i _ -> i < 2) (frame_ends file)));
      file)

let lsns_of_frames = [| []; [ 1 ]; [ 1; 2; 3 ]; [ 1; 2; 3; 4 ] |]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_wal_load_cuts_and_flips () =
  let file = wal_file () in
  with_temp_file (fun path ->
      let load s =
        write_file path s;
        Aries.Wal.load_ex path
      in
      each_cut file (fun ~cut ~kept ~clean ~boundary:_ ->
          match load cut with
          | Error e -> Alcotest.failf "cut %d: %s" (String.length cut) e
          | Ok l ->
              check Alcotest.(list int) "records" lsns_of_frames.(kept)
                (List.map fst l.Aries.Wal.l_records);
              check Alcotest.int "clean prefix" clean l.Aries.Wal.l_clean);
      each_flip file (fun ~flipped ~frame ~offset ~final ~newline:_ ->
          match (load flipped, final) with
          | Ok l, true ->
              check Alcotest.(list int) "final frame dropped" lsns_of_frames.(frame)
                (List.map fst l.Aries.Wal.l_records)
          | Error e, false ->
              check Alcotest.bool e true
                (contains e (Printf.sprintf "at byte %d:" offset))
          | Ok _, false -> Alcotest.failf "flip in frame %d loaded" frame
          | Error e, true -> Alcotest.failf "flip in the final frame: %s" e))

let test_wal_tail_cuts_and_flips () =
  let file = wal_file () in
  with_temp_file (fun path ->
      (* A cut leaves its partial line for the next poll, which reads the
         rest once the file is whole. *)
      each_cut file (fun ~cut ~kept ~clean:_ ~boundary:_ ->
          write_file path cut;
          let c = Aries.Wal.Tail.create path in
          let poll () =
            match Aries.Wal.Tail.poll c with
            | Ok r -> List.map fst r
            | Error e -> Alcotest.failf "cut %d: %s" (String.length cut) e
          in
          check Alcotest.(list int) "complete frames" lsns_of_frames.(kept) (poll ());
          write_file path file;
          let rest = List.filteri (fun i _ -> i >= List.length lsns_of_frames.(kept)) lsns_of_frames.(3) in
          check Alcotest.(list int) "the rest" rest (poll ()));
      (* A damaged complete line is an error wherever it is; a damaged
         final newline leaves an incomplete line to wait for. *)
      each_flip file (fun ~flipped ~frame ~offset:_ ~final ~newline ->
          write_file path flipped;
          match Aries.Wal.Tail.poll (Aries.Wal.Tail.create path) with
          | Ok r when final && newline ->
              check Alcotest.(list int) "complete frames" lsns_of_frames.(frame)
                (List.map fst r)
          | Error _ when not (final && newline) -> ()
          | _ -> Alcotest.failf "flip in frame %d polled" frame))

let test_decision_log_cuts_and_flips () =
  let records =
    [
      Decision_log.Start { gid = "g1"; participants = [ 0; 1 ] };
      Decision_log.Decision { gid = "g1"; commit = true };
      Decision_log.End { gid = "g1" };
    ]
  in
  let file =
    with_temp_file (fun path ->
        Sys.remove path;
        let _, t = Decision_log.load ~path in
        List.iter (Decision_log.append t) records;
        Decision_log.close t;
        read_file path)
  in
  let prefix n = List.filteri (fun i _ -> i < n) records in
  each_cut file (fun ~cut ~kept ~clean ~boundary:_ ->
      let parsed, len = Decision_log.parse_all cut in
      check Alcotest.bool "records" true (parsed = prefix kept);
      check Alcotest.int "clean prefix" clean len);
  each_flip file (fun ~flipped ~frame ~offset ~final ~newline:_ ->
      match Decision_log.parse_all flipped with
      | parsed, len when final ->
          check Alcotest.bool "final frame dropped" true (parsed = prefix frame);
          check Alcotest.int "clean prefix" offset len
      | _ -> Alcotest.failf "flip in frame %d parsed" frame
      | exception Decision_log.Corrupt e ->
          check Alcotest.bool e true
            ((not final) && contains e (Printf.sprintf "at byte %d of" offset)))

(* ------------------------------------------------------------------ *)
(* Failpoint registry *)

let with_reset f = Fun.protect ~finally:Fault.reset f

let test_failpoint_modes () =
  with_reset (fun () ->
      Fault.register "t.p";
      (* Off: inert. *)
      Fault.trip "t.p";
      (* Fail: raises once, then disarms. *)
      Fault.set "t.p" Fault.Fail;
      (match Fault.trip "t.p" with
      | exception Fault.Injected_error _ -> ()
      | () -> Alcotest.fail "armed Fail must raise");
      Fault.trip "t.p";
      (* Crash: raises and poisons every later guarded operation. *)
      Fault.set "t.p" (Fault.Crash_after 0);
      (match Fault.trip "t.p" with
      | exception Fault.Injected_crash _ -> ()
      | () -> Alcotest.fail "armed Crash must raise");
      (match Fault.trip "t.other" with
      | exception Fault.Injected_crash _ -> ()
      | () -> Alcotest.fail "after a crash every point must re-raise");
      Fault.reset ();
      Fault.trip "t.p";
      Fault.trip "t.other")

let test_failpoint_byte_budget () =
  with_reset (fun () ->
      let path = Filename.temp_file "fault" ".out" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Fault.register "t.w";
          Fault.set "t.w" (Fault.Crash_after 5);
          let oc = open_out path in
          (* 3 bytes fit, then 2 of the next 4: torn mid-write. *)
          (match
             Fault.output "t.w" oc "abc";
             Fault.output "t.w" oc "defg"
           with
          | exception Fault.Injected_crash _ -> ()
          | () -> Alcotest.fail "budget exhaustion must crash");
          close_out_noerr oc;
          check Alcotest.string "exactly 5 bytes reached the file" "abcde"
            (In_channel.with_open_bin path In_channel.input_all)))

let test_mode_parsing () =
  let roundtrip m =
    match Fault.mode_of_string (Fault.mode_to_string m) with
    | Ok m' -> m' = m
    | Result.Error _ -> false
  in
  check Alcotest.bool "off" true (roundtrip Fault.Off);
  check Alcotest.bool "error" true (roundtrip Fault.Fail);
  check Alcotest.bool "crash" true (roundtrip (Fault.Crash_after 0));
  check Alcotest.bool "crash:N" true (roundtrip (Fault.Crash_after 37));
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Fault.mode_of_string "explode"));
  check Alcotest.bool "negative rejected" true
    (Result.is_error (Fault.mode_of_string "crash:-1"));
  (match Fault.parse_spec "wal.append=crash:10" with
  | Ok ("wal.append", Fault.Crash_after 10) -> ()
  | _ -> Alcotest.fail "parse_spec");
  check Alcotest.bool "spec without '='" true
    (Result.is_error (Fault.parse_spec "wal.append"))

(* ------------------------------------------------------------------ *)
(* Filesystem helpers *)

let temp_dir () =
  let d = Filename.temp_file "faultfs" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let d = temp_dir () in
  Fault.Fsutil.mkdir_p d;
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ -> ()) (fun () -> f d)

let test_mkdir_p_nested_and_idempotent () =
  with_temp_dir (fun d ->
      let deep = Filename.concat (Filename.concat d "a") "b" in
      Fault.Fsutil.mkdir_p deep;
      check Alcotest.bool "created" true (Sys.is_directory deep);
      (* Second call must not raise. *)
      Fault.Fsutil.mkdir_p deep)

let test_mkdir_p_concurrent_race () =
  (* EEXIST from a concurrent creator must be absorbed, not raised. *)
  with_temp_dir (fun d ->
      let target =
        List.fold_left Filename.concat d [ "r"; "a"; "c"; "e" ]
      in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                match Fault.Fsutil.mkdir_p target with
                | () -> true
                | exception _ -> false))
      in
      let oks = List.map Domain.join domains in
      check Alcotest.bool "all creators succeeded" true
        (List.for_all Fun.id oks);
      check Alcotest.bool "directory exists" true (Sys.is_directory target))


let test_atomic_write_basic () =
  with_reset (fun () ->
      with_temp_dir (fun d ->
          let path = Filename.concat d "f" in
          Fault.Fsutil.register_atomic_points "t.aw";
          Fault.Fsutil.atomic_write ~point_prefix:"t.aw" ~path "one";
          check Alcotest.string "written" "one" (read_file path);
          check Alcotest.bool "no tmp debris" false
            (Sys.file_exists (path ^ ".tmp"));
          Fault.Fsutil.atomic_write ~keep_previous:true ~point_prefix:"t.aw"
            ~path "two";
          check Alcotest.string "replaced" "two" (read_file path);
          check Alcotest.string "previous generation kept" "one"
            (read_file (path ^ ".prev"))))

let test_atomic_write_crash_leaves_old_intact () =
  with_reset (fun () ->
      with_temp_dir (fun d ->
          let path = Filename.concat d "f" in
          Fault.Fsutil.register_atomic_points "t.aw2";
          Fault.Fsutil.atomic_write ~point_prefix:"t.aw2" ~path "stable";
          (* Crash while writing the replacement: target untouched, only a
             torn tmp left behind. *)
          Fault.set "t.aw2.write" (Fault.Crash_after 3);
          (match
             Fault.Fsutil.atomic_write ~point_prefix:"t.aw2" ~path
               "replacement"
           with
          | exception Fault.Injected_crash _ -> ()
          | () -> Alcotest.fail "expected injected crash");
          check Alcotest.string "old contents intact" "stable" (read_file path);
          check Alcotest.string "torn tmp" "rep" (read_file (path ^ ".tmp"));
          Fault.reset ();
          (* Crash between fsync and rename: tmp is complete. *)
          Fault.set "t.aw2.rename" (Fault.Crash_after 0);
          (match
             Fault.Fsutil.atomic_write ~point_prefix:"t.aw2" ~path
               "replacement"
           with
          | exception Fault.Injected_crash _ -> ()
          | () -> Alcotest.fail "expected injected crash");
          check Alcotest.string "old contents intact" "stable" (read_file path);
          check Alcotest.string "complete tmp" "replacement"
            (read_file (path ^ ".tmp"))))

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc_vectors;
          Alcotest.test_case "streaming" `Quick test_crc_streaming_matches_oneshot;
        ] );
      ( "crc frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "every cut is torn" `Quick test_frame_cuts;
          Alcotest.test_case "flips: corrupt mid-file, torn at the end" `Quick
            test_frame_flips;
          Alcotest.test_case "through Wal.load_ex" `Quick
            test_wal_load_cuts_and_flips;
          Alcotest.test_case "through Wal.Tail.poll" `Quick
            test_wal_tail_cuts_and_flips;
          Alcotest.test_case "through Decision_log.parse_all" `Quick
            test_decision_log_cuts_and_flips;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "modes" `Quick test_failpoint_modes;
          Alcotest.test_case "byte budget" `Quick test_failpoint_byte_budget;
          Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
        ] );
      ( "fsutil",
        [
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p_nested_and_idempotent;
          Alcotest.test_case "mkdir_p race" `Quick test_mkdir_p_concurrent_race;
          Alcotest.test_case "atomic write" `Quick test_atomic_write_basic;
          Alcotest.test_case "atomic write crash" `Quick
            test_atomic_write_crash_leaves_old_intact;
        ] );
    ]
