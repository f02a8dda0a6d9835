type lsn = int

(* On-disk format: one Fault.Crc_frame frame per line, of two kinds.

   - One record, [#CCCCCCCC LLL NNN {"type":...}]: the body is the LSN, one
     space and the JSON payload. The explicit LSN keeps the sequence
     monotonic across log truncations (compaction opens a fresh file whose
     first record continues the old numbering), which is what lets
     recovery line a snapshot's recorded position up against the log tail.

   - A batch: every record of one publish (a transaction's records, or a
     group commit's many transactions) shares one frame and one fsync:

       @CCCCCCCC LLL FFF N PLEN {"type":...} PLEN {"type":...} ...
                     \_/ | \________________/
                      |  |  N length-prefixed payloads
                      | record count
                  first LSN

     The records take LSNs [first .. first+N-1]. Because the batch is one
     checksummed frame, a crash mid-append tears the whole batch — recovery
     can never observe a prefix of it, which is what makes every publish
     atomic.

   The frame's CRC tells a torn tail (crash mid-append: dropped) from
   corruption in the middle of the file (loading fails loudly). *)

type t = {
  mutable entries : (lsn * Log_record.t) list;  (* newest first *)
  mutable next_lsn : lsn;
  channel : out_channel option;
  line_buf : Buffer.t;  (* reused across appends; one frame body each *)
  batch_buf : Buffer.t;  (* scratch for one payload while batch-framing *)
  mutable broken : exn option;
      (* the first write or fsync that raised; see [guarded] *)
}

let point_append = "wal.append"
let point_batch_append = "wal.batch_append"
let point_batch_sync = "wal.batch_sync"

let () =
  Fault.register point_append;
  Fault.register point_batch_append;
  Fault.register point_batch_sync

let create ?path ?(append = false) ?(first_lsn = 1) () =
  let channel =
    Option.map
      (fun p ->
        if append then open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 p
        else open_out p)
      path
  in
  {
    entries = [];
    next_lsn = first_lsn;
    channel;
    line_buf = Buffer.create 256;
    batch_buf = Buffer.create 256;
    broken = None;
  }

let broken t = t.broken

(* The fsyncgate rule: after a write or an fsync fails, what reached the
   disk is unknowable (the kernel may have dropped the dirty pages and
   cleared the error), so the log accepts nothing more. The first
   exception breaks it, and every later append, batch or sync re-raises
   that same exception. A record joins [entries] — where replication
   tails it — only once its write has succeeded. *)
let guarded t write =
  Option.iter raise t.broken;
  match t.channel with
  | None -> ()
  | Some oc -> (
      try write oc
      with e ->
        t.broken <- Some e;
        raise e)

let push t record =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.entries <- (lsn, record) :: t.entries;
  lsn

(* A frame body, started with its first field: the next record's LSN. *)
let start_body t =
  let body = t.line_buf in
  Buffer.clear body;
  Buffer.add_string body (string_of_int t.next_lsn);
  Buffer.add_char body ' ';
  body

let append t record =
  guarded t (fun oc ->
      let body = start_body t in
      Sjson.write body (Log_record.to_json record);
      Fault.Crc_frame.output point_append oc ~tag:'#' body;
      flush oc);
  push t record

let append_batch t batch =
  guarded t (fun oc ->
      if batch <> [] then begin
        let body = start_body t in
        Buffer.add_string body (string_of_int (List.length batch));
        let scratch = t.batch_buf in
        List.iter
          (fun record ->
            Buffer.clear scratch;
            Sjson.write scratch (Log_record.to_json record);
            Buffer.add_char body ' ';
            Buffer.add_string body (string_of_int (Buffer.length scratch));
            Buffer.add_char body ' ';
            Buffer.add_buffer body scratch)
          batch;
        Fault.Crc_frame.output point_batch_append oc ~tag:'@' body;
        flush oc;
        (* The batch's one durability barrier. *)
        Fault.trip point_batch_sync;
        Fault.Fsutil.fsync_channel oc
      end);
  List.map (push t) batch

let last_lsn t = t.next_lsn - 1

(* Recovery may learn (from a replayed log or a snapshot) that the durable
   history already extends to [lsn]; never reuse those numbers. *)
let advance_to t lsn = if lsn >= t.next_lsn then t.next_lsn <- lsn + 1

let records t = List.rev t.entries

(* [entries] is newest-first with strictly increasing LSNs, so collecting
   while [l > after] and stopping at the first older record costs O(new),
   not O(log): this is the primary's per-replica tail read, which runs on
   every feed-loop iteration. *)
let records_from t after =
  let rec take acc = function
    | ((l, _) as e) :: rest when l > after -> take (e :: acc) rest
    | _ -> acc
  in
  take [] t.entries

let first_available t =
  let rec last = function
    | [] -> None
    | [ (l, _) ] -> Some l
    | _ :: rest -> last rest
  in
  last t.entries

(* Force everything appended so far onto stable storage: the drain's
   barrier, and the replica's after each applied batch. *)
let sync t = guarded t Fault.Fsutil.fsync_channel

let close t = Option.iter close_out t.channel

(* ------------------------------------------------------------------ *)
(* Loading *)

type loaded = { l_records : (lsn * Log_record.t) list; l_clean : int }

exception Bad of string

(* A decimal field of a frame body ending in one space, read from [!pos]
   before [stop]; leaves [pos] just past the space. *)
let read_int s pos stop =
  match String.index_from_opt s !pos ' ' with
  | Some sp when sp < stop -> (
      match int_of_string_opt (String.sub s !pos (sp - !pos)) with
      | Some v when v >= 0 ->
          pos := sp + 1;
          v
      | _ -> raise (Bad "bad integer field"))
  | _ -> raise (Bad "frame body missing field")

let payload s off len =
  match Log_record.of_line (String.sub s off len) with
  | Ok r -> r
  | Error e -> raise (Bad e)

(* The Crc_frame decoder of both frame kinds. [prev] is the LSN of the
   last record decoded: LSNs must strictly increase, and a batch frame
   yields its records with consecutive LSNs from its first. *)
let decode prev tag s off len =
  let stop = off + len and pos = ref off in
  try
    let first = read_int s pos stop in
    if first <= !prev then
      raise (Bad (Printf.sprintf "non-monotonic LSN %d after %d" first !prev));
    let records =
      match tag with
      | '#' -> [ (first, payload s !pos (stop - !pos)) ]
      | '@' ->
          let count = read_int s pos stop in
          let records =
            List.init count (fun i ->
                let plen = read_int s pos stop in
                if plen > stop - !pos then raise (Bad "batch payload overruns frame");
                let r = payload s !pos plen in
                pos := !pos + plen;
                if i < count - 1 then
                  if !pos < stop && s.[!pos] = ' ' then incr pos
                  else raise (Bad "batch payloads not separated");
                (first + i, r))
          in
          if count = 0 || !pos <> stop then raise (Bad "malformed batch");
          records
      | c -> raise (Bad (Printf.sprintf "unknown frame tag %C" c))
    in
    prev := first + List.length records - 1;
    Ok records
  with Bad reason -> Error reason

let load_ex path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
      let prev = ref 0 in
      match Fault.Crc_frame.scan (decode prev) contents with
      | frames, clean, (Clean | Torn) ->
          Ok { l_records = List.concat frames; l_clean = clean }
      | frames, _, Corrupt { offset; reason } ->
          Error
            (Printf.sprintf "%s: corrupt WAL record %d (after LSN %d) at byte %d: %s"
               path (List.length frames + 1) !prev offset reason))

let load path = Result.map (fun l -> l.l_records) (load_ex path)

(* ------------------------------------------------------------------ *)
(* Tailing *)

(* A resumable cursor over a live log file. Each [poll] reopens the file,
   seeks to the byte just past the last complete line it consumed, and
   decodes only the complete lines appended since: a final line still
   being written (or torn by a writer crash) waits for the next poll. A
   damaged complete line, or a file that shrank below the cursor, is an
   error: the caller must resynchronise. *)
module Tail = struct
  type cursor = {
    tc_path : string;
    mutable tc_offset : int;  (* bytes consumed (complete lines only) *)
    mutable tc_lsn : lsn;  (* records at or below this are not redelivered *)
    mutable tc_prev : lsn;  (* last decoded LSN, for monotonicity checks *)
  }

  let create ?(after = 0) path =
    { tc_path = path; tc_offset = 0; tc_lsn = after; tc_prev = 0 }

  let path c = c.tc_path
  let position c = c.tc_lsn

  let poll c =
    match open_in_bin c.tc_path with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let size = in_channel_length ic in
            if size < c.tc_offset then
              Error
                (c.tc_path
               ^ ": log shrank under the tail cursor (truncated or compacted)")
            else if size = c.tc_offset then Ok []
            else begin
              seek_in ic c.tc_offset;
              let chunk = really_input_string ic (size - c.tc_offset) in
              match String.rindex_opt chunk '\n' with
              | None -> Ok []  (* no complete line yet *)
              | Some nl -> (
                  (* [prev] stays local until the whole region decodes, so
                     a failed poll leaves the cursor as it was and a retry
                     reports the same damage. *)
                  let prev = ref c.tc_prev in
                  match Fault.Crc_frame.scan ~len:(nl + 1) (decode prev) chunk with
                  | frames, _, Clean ->
                      let records =
                        List.filter (fun (l, _) -> l > c.tc_lsn) (List.concat frames)
                      in
                      c.tc_offset <- c.tc_offset + nl + 1;
                      c.tc_prev <- !prev;
                      c.tc_lsn <- max c.tc_lsn !prev;
                      Ok records
                  | _, _, stop ->
                      Error
                        (Printf.sprintf
                           "%s: damaged record under tail cursor (after LSN %d)%s"
                           c.tc_path !prev
                           (match stop with
                           | Corrupt { reason; _ } -> ": " ^ reason
                           | _ -> "")))
            end)
end
