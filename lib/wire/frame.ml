(* Length-prefixed framing for the ledger wire protocol.

   Every message travels as one frame:

     offset  size  field
     0       4     magic "SLW1" (protocol family + frame-format revision)
     4       4     payload length, unsigned big-endian
     8       len   payload (JSON text, see Protocol)

   The magic makes stream desynchronisation detectable: after junk bytes
   or a torn frame the receiver reports what it saw instead of trying to
   interpret garbage as a length. Payloads are opaque bytes here, so
   control characters and any Sjson escaping quirks in the payload cannot
   confuse the framing layer.

   Reads are buffered over the raw file descriptor (not an in_channel) so
   the server can poll for readability with [select] between frames
   without losing buffered bytes; writes go through an out_channel so the
   server can route them through a [Fault] failpoint. *)

let magic = "SLW1"
let header_len = 8
let default_max_frame = 4 * 1024 * 1024

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  ibuf : Bytes.t;
  mutable ipos : int;
  mutable ilen : int;
  mutable closed : bool;
}

let of_fd fd =
  {
    fd;
    oc = Unix.out_channel_of_descr fd;
    ibuf = Bytes.create 65536;
    ipos = 0;
    ilen = 0;
    closed = false;
  }

let close c =
  if not c.closed then begin
    c.closed <- true;
    (* close_out closes the underlying fd as well. *)
    try close_out c.oc with Sys_error _ | Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Sending *)

let header_bytes len =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 5 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 6 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 7 (Char.chr (len land 0xff));
  Bytes.unsafe_to_string b

(* [?point] names a failpoint to route the bytes through (the server's
   write path); without it the write is direct (clients). Raises
   [Sys_error] / [Unix.Unix_error] on transport failure and the
   [Fault] exceptions when an armed failpoint fires. *)
let send ?point c payload =
  let out s =
    match point with
    | Some p -> Fault.output p c.oc s
    | None -> output_string c.oc s
  in
  out (header_bytes (String.length payload));
  out payload;
  flush c.oc

(* ------------------------------------------------------------------ *)
(* Receiving *)

type recv_result =
  | Frame of string
  | Eof  (** peer closed cleanly at a frame boundary *)
  | Junk of string  (** stream bytes that are not a frame header *)
  | Truncated  (** peer closed mid-frame *)
  | Oversized of { size : int; limit : int }

let buffered c = c.ilen > c.ipos

(* Wait up to [timeout] seconds for a byte to be readable. Buffered bytes
   count as readable; EINTR reads as "nothing yet" so callers re-poll and
   notice shutdown/idle deadlines. *)
let poll c timeout =
  buffered c
  ||
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let refill c =
  let n = Unix.read c.fd c.ibuf 0 (Bytes.length c.ibuf) in
  c.ipos <- 0;
  c.ilen <- n;
  n

(* Refill, optionally bounded by an absolute deadline: wait for
   readability only until [deadline], raising ETIMEDOUT past it. This is
   the select-based fallback (and reinforcement) for SO_RCVTIMEO — but
   stronger: the deadline is *total* across the frame, so a peer
   dribbling one byte per slice cannot hold the reader forever by
   resetting a per-read timer. *)
let refill_by c deadline =
  (match deadline with
  | None -> ()
  | Some at ->
      let remaining = at -. Unix.gettimeofday () in
      if remaining <= 0. || not (poll c remaining) then
        raise (Unix.Unix_error (Unix.ETIMEDOUT, "Frame.recv", "")));
  refill c

(* Read exactly [n] bytes; [Error got] reports how many arrived before
   EOF. *)
let read_exact ?deadline c n =
  let out = Bytes.create n in
  let rec go filled =
    if filled = n then Ok (Bytes.unsafe_to_string out)
    else if buffered c then begin
      let take = min (n - filled) (c.ilen - c.ipos) in
      Bytes.blit c.ibuf c.ipos out filled take;
      c.ipos <- c.ipos + take;
      go (filled + take)
    end
    else if refill_by c deadline = 0 then Error filled
    else go filled
  in
  go 0

(* Read one frame. [?point] is a failpoint tripped before the read (the
   server's read path), so torn connections are injectable.
   [?read_timeout] bounds the *whole* frame: once the first bytes are
   being read, header and payload must complete within that many
   seconds. Raises [Unix.Unix_error] when the socket errors — EAGAIN
   when an SO_RCVTIMEO set on the fd expires, ETIMEDOUT when
   [read_timeout] does. *)
let recv ?point ?(max_frame = default_max_frame) ?read_timeout c =
  Option.iter Fault.trip point;
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) read_timeout
  in
  match read_exact ?deadline c header_len with
  | Error 0 -> Eof
  | Error _ -> Truncated
  | Ok header ->
      if String.sub header 0 4 <> magic then
        Junk (String.sub header 0 4)
      else
        let len =
          (Char.code header.[4] lsl 24)
          lor (Char.code header.[5] lsl 16)
          lor (Char.code header.[6] lsl 8)
          lor Char.code header.[7]
        in
        if len > max_frame then Oversized { size = len; limit = max_frame }
        else begin
          match read_exact ?deadline c len with
          | Ok payload -> Frame payload
          | Error _ -> Truncated
        end
