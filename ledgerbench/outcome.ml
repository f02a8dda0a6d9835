(* What a workload hands back to be reported, and the run's correctness
   checks. *)

let failures = ref []

(* Record a correctness check; a failed one is printed and fails the run. *)
let check ok what =
  if not ok then begin
    failures := what :: !failures;
    Printf.eprintf "CHECK FAILED: %s\n%!" what
  end

type t = {
  setup_s : float;
  attempted : int;
  failed : int;
  start_ns : int64;  (** start of the measured phase *)
  op_ends : int64 list;  (** completion time of every operation that succeeded *)
  commits : (int64 * float) list;  (** completion time and latency (us) *)
  read_us : (int64 * float) list;  (** completion time and latency (us) *)
  read_v_us : float list;  (** the reads among [read_us] that name a column *)
  receipt_us : (int64 * float) list;
      (** completion time and time per receipt, one sample per batch *)
  image : Image.result;
  wal_bytes : int;
  wal_records : int;
  wal_commits : int;
  rss_mb : float;
  held_bytes : int;  (** receipts the benchmark holds when [rss_mb] is read *)
  gc_minor_words : float;
  gc_major : int;
  gc_top_heap_mb : float;
  layers : (string * float) list;
      (** per-layer figures the workload measured itself (counts from
          the server's stats, bytes); span self times are added later *)
}

(* Log shape of the crash image: bytes, records and commits. *)
let wal_shape image =
  let path = Sql_ledger.Durable.wal_path image in
  match Aries.Wal.load path with
  | Error e -> failwith e
  | Ok records ->
      let commits =
        List.length
          (List.filter
             (function _, Aries.Log_record.Commit _ -> true | _ -> false)
             records)
      in
      (Host.file_size path, List.length records, commits)

(* GC figures over the measured phase. *)
let gc_around f =
  let before = Gc.quick_stat () in
  let v = f () in
  let after = Gc.quick_stat () in
  ( v,
    after.Gc.minor_words -. before.Gc.minor_words,
    after.Gc.major_collections - before.Gc.major_collections,
    float_of_int (after.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. )
