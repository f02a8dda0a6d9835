(* The coordinator's 2PC decision log.

   An append-only CRC-framed file recording, per global transaction:

     Start    {gid; participants}    before any PREPARE is sent
     Decision {gid; commit}          the atomic commit point
     End      {gid}                  every participant acked the decision

   Recovery applies presumed abort: a Start with no Decision means the
   coordinator died inside the prepare round, so the transaction aborts —
   participants holding a prepared txn learn this when the restarted
   coordinator re-sends the (now logged) abort decision. A Decision with
   no End means some participant may not have heard the outcome; the
   decision is re-sent until every participant acks, then End is logged.
   Decisions are never un-made: once the Decision record is fsynced the
   outcome is fixed, however many times delivery is retried.

   One Fault.Crc_frame frame per record, tag [#], the body the record's
   JSON. A torn tail — short line, bad CRC, missing newline — is truncated
   on load, exactly like a torn WAL append: the record never happened. A
   damaged frame with more after it is mid-file corruption: load refuses
   it and leaves the file untouched, since truncating there would forget
   fsynced decisions. Appends route through the ["coord.dlog"] failpoint
   so tests can tear a record mid-bytes or kill the coordinator at the
   append. *)

type record =
  | Start of { gid : string; participants : int list }
  | Decision of { gid : string; commit : bool }
  | End of { gid : string }

let point = "coord.dlog"
let () = Fault.register point

(* ------------------------------------------------------------------ *)
(* Codec *)

let record_to_json = function
  | Start { gid; participants } ->
      Sjson.Obj
        [
          ("t", Sjson.String "start");
          ("gid", Sjson.String gid);
          ( "parts",
            Sjson.List (List.map (fun i -> Sjson.Int i) participants) );
        ]
  | Decision { gid; commit } ->
      Sjson.Obj
        [
          ("t", Sjson.String "decision");
          ("gid", Sjson.String gid);
          ("commit", Sjson.Bool commit);
        ]
  | End { gid } ->
      Sjson.Obj [ ("t", Sjson.String "end"); ("gid", Sjson.String gid) ]

let record_of_json json =
  let gid () = Sjson.get_string (Sjson.member "gid" json) in
  match Sjson.member "t" json with
  | Sjson.String "start" ->
      let participants =
        match Sjson.member "parts" json with
        | Sjson.List items -> List.map Sjson.get_int items
        | _ -> failwith "start record without parts"
      in
      Start { gid = gid (); participants }
  | Sjson.String "decision" ->
      let commit =
        match Sjson.member "commit" json with
        | Sjson.Bool b -> b
        | _ -> failwith "decision record without commit"
      in
      Decision { gid = gid (); commit }
  | Sjson.String "end" -> End { gid = gid () }
  | _ -> failwith "unknown decision-log record"

exception Corrupt of string

let decode tag s off len =
  if tag <> '#' then Error "unknown frame tag"
  else
    try Ok (record_of_json (Sjson.of_string (String.sub s off len)))
    with Failure e | Invalid_argument e | Sjson.Parse_error e -> Error e

(* The records before the first damaged frame and the length of that
   clean prefix; mid-file damage raises [Corrupt]. *)
let parse ~path contents =
  match Fault.Crc_frame.scan decode contents with
  | records, good, (Clean | Torn) -> (records, good)
  | _, _, Corrupt { offset; reason } ->
      raise
        (Corrupt
           (Printf.sprintf
              "%s: corrupt decision-log record at byte %d of %d (%s; more \
               records follow it); refusing to truncate logged 2PC outcomes"
              path offset (String.length contents) reason))

let parse_all contents = parse ~path:"decision log" contents

type t = { oc : out_channel }

let load ~path =
  Fault.Fsutil.mkdir_p (Filename.dirname path);
  let contents =
    if not (Sys.file_exists path) then ""
    else In_channel.with_open_bin path In_channel.input_all
  in
  let records, good = parse ~path contents in
  (* A torn tail: the partial record never happened. *)
  if good < String.length contents then Unix.truncate path good;
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  (records, { oc })

(* [End] is an optimisation (it only prunes recovery work), so it may
   ride on the OS buffer; [Start] and [Decision] are correctness points
   and are fsynced before the caller proceeds. *)
let append t record =
  let must_sync = match record with Start _ | Decision _ -> true | End _ -> false in
  let body = Buffer.create 64 in
  Sjson.write body (record_to_json record);
  Fault.Crc_frame.output point t.oc ~tag:'#' body;
  if must_sync then Fault.Fsutil.fsync_channel t.oc else flush t.oc

let close t = close_out_noerr t.oc
