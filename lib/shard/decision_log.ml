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

   Frame format, one record per line (same discipline as the WAL):

     #crc len json\n

   with [crc] the CRC-32 of [json] in %08lx and [len] its byte length.
   A torn tail — short line, bad CRC, missing newline — is truncated on
   load, exactly like a torn WAL append: the record never happened. A
   damaged frame followed by another non-blank line is not a torn tail
   but mid-file corruption (the WAL's rule): load refuses it and leaves
   the file untouched, since truncating there would forget fsynced
   decisions. Appends route through the ["coord.dlog"] failpoint so tests can tear
   a record mid-bytes or kill the coordinator at the append. *)

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

let frame json =
  Printf.sprintf "#%08lx %d %s\n"
    (Fault.Crc32.string json)
    (String.length json) json

(* ------------------------------------------------------------------ *)
(* Load: parse frames up to the first damage. *)

exception Corrupt of string

(* One frame without its newline; [None] when it is damaged. *)
let parse_frame line =
  try
    let sp1 = String.index line ' ' in
    let sp2 = String.index_from line (sp1 + 1) ' ' in
    let json = String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
    if
      line.[0] = '#'
      && int_of_string (String.sub line (sp1 + 1) (sp2 - sp1 - 1))
         = String.length json
      && Int32.of_string ("0x" ^ String.sub line 1 (sp1 - 1))
         = Fault.Crc32.string json
    then Some (record_of_json (Sjson.of_string json))
    else None
  with Not_found | Failure _ | Invalid_argument _ | Sjson.Parse_error _ -> None

(* The records before the first damaged or unterminated line, the length
   of that clean prefix, and whether a non-blank line follows the damage
   (mid-file corruption rather than a torn tail). *)
let scan contents =
  let n = String.length contents in
  let rec go pos acc =
    match String.index_from_opt contents pos '\n' with
    | None -> (List.rev acc, pos, false)
    | Some nl -> (
        match parse_frame (String.sub contents pos (nl - pos)) with
        | Some r -> go (nl + 1) (r :: acc)
        | None ->
            let rest = String.sub contents nl (n - nl) in
            (List.rev acc, pos, String.trim rest <> ""))
  in
  go 0 []

let parse_all contents =
  let records, good, _ = scan contents in
  (records, good)

type t = { oc : out_channel }

let load ~path =
  Fault.Fsutil.mkdir_p (Filename.dirname path);
  let contents =
    if not (Sys.file_exists path) then ""
    else In_channel.with_open_bin path In_channel.input_all
  in
  let records, good, corrupt = scan contents in
  if corrupt then
    raise
      (Corrupt
         (Printf.sprintf
            "%s: corrupt decision-log record at byte %d of %d (more records \
             follow it); refusing to truncate logged 2PC outcomes"
            path good (String.length contents)));
  (* A torn tail: the partial record never happened. *)
  if good < String.length contents then Unix.truncate path good;
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  (records, { oc })

(* [End] is an optimisation (it only prunes recovery work), so it may
   ride on the OS buffer; [Start] and [Decision] are correctness points
   and are fsynced before the caller proceeds. *)
let append t record =
  let must_sync = match record with Start _ | Decision _ -> true | End _ -> false in
  Fault.output point t.oc (frame (Sjson.to_string (record_to_json record)));
  if must_sync then Fault.Fsutil.fsync_channel t.oc else flush t.oc

let close t = close_out_noerr t.oc
