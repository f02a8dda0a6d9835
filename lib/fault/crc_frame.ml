(* CRC-framed records; the format and the torn-versus-corrupt rule are in
   crc_frame.mli. The scan works on offsets into the caller's string and
   never copies a frame's body. *)

let output point oc ~tag body =
  let crc = Crc32.(finish (update_buffer init body)) in
  Failpoint.output point oc
    (Printf.sprintf "%c%08lx %d " tag crc (Buffer.length body));
  Failpoint.output_buffer point oc body;
  Failpoint.output point oc "\n"

let check ~crc ~len s off n =
  if n <> len then
    Error (Printf.sprintf "frame body is %d bytes, header says %d" n len)
  else if Crc32.substring s ~off ~len <> crc then Error "frame checksum mismatch"
  else Ok ()

type stop = Clean | Torn | Corrupt of { offset : int; reason : string }

let rec blank_from s i stop =
  i >= stop
  || (match String.unsafe_get s i with
     | ' ' | '\t' | '\r' | '\n' -> blank_from s (i + 1) stop
     | _ -> false)

(* The header of the frame on the line [pos, nl): its CRC, its body's
   length and where the body starts. *)
let header s pos nl =
  if nl - pos < 11 || s.[pos + 9] <> ' ' then None
  else
    match String.index_from_opt s (pos + 10) ' ' with
    | Some sp when sp < nl -> (
        match
          ( Int32.of_string_opt ("0x" ^ String.sub s (pos + 1) 8),
            int_of_string_opt (String.sub s (pos + 10) (sp - pos - 10)) )
        with
        | Some crc, Some len -> Some (crc, len, sp + 1)
        | _ -> None)
    | _ -> None

let frame decode s pos nl =
  match header s pos nl with
  | None -> Error "malformed frame header"
  | Some (crc, len, off) ->
      Result.bind (check ~crc ~len s off (nl - off)) (fun () ->
          decode s.[pos] s off (nl - off))

(* Whether the bad frame at [pos] lost its newline to damage: its body
   ends, by its header, before its line does, and an intact frame fills
   the rest of the line. *)
let joined s pos nl =
  match header s pos nl with
  | Some (_, len, off) when off + len < nl ->
      Result.is_ok (frame (fun _ _ _ _ -> Ok ()) s (off + len + 1) nl)
  | _ -> false

let scan ?len decode s =
  let stop = match len with Some n -> n | None -> String.length s in
  let rec go pos acc =
    if blank_from s pos stop then (List.rev acc, pos, Clean)
    else
      let nl =
        min stop (Option.value (String.index_from_opt s pos '\n') ~default:stop)
      in
      match
        if nl >= stop then Error "unterminated frame" else frame decode s pos nl
      with
      | Ok v -> go (nl + 1) (v :: acc)
      | Error reason ->
          ( List.rev acc,
            pos,
            if blank_from s (nl + 1) stop && not (joined s pos nl) then Torn
            else Corrupt { offset = pos; reason } )
  in
  go 0 []
