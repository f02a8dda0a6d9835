(** CRC-framed records: the one record format of every durable log (the
    WAL's [#] and [@] frames, the coordinator's decision log).

    A frame is one line:

    {v <tag>CCCCCCCC LEN BODY\n v}

    [tag] is one byte the log picks per record kind, [CCCCCCCC] the CRC-32
    of BODY in hex, and [LEN] BODY's byte length in decimal. BODY holds no
    newline, so a frame ends at its newline, and every writer writes that
    newline before it fsyncs.

    One rule tells a torn tail from corruption: the first frame that fails
    to decode is {e torn} when only blank space follows its line (a crash
    cut the last append short, so the frame never happened), and
    {e corrupt} otherwise (damage in the middle of a log, which no reader
    may skip). A damaged newline does not make two lines one: when the
    frame's header puts the end of its body before the end of its line and
    an intact frame fills the rest, that frame counts as following it. *)

val output : string -> out_channel -> tag:char -> Buffer.t -> unit
(** [output point oc ~tag body] writes one frame through the failpoint
    [point] ({!Failpoint.output}). It does not flush. *)

val check : crc:int32 -> len:int -> string -> int -> int -> (unit, string) result
(** [check ~crc ~len s off n] tests that the [n] bytes of [s] from [off]
    are [len] bytes long, then that their CRC-32 is [crc]. *)

type stop =
  | Clean  (** only blank space follows the last frame *)
  | Torn  (** the first bad frame has only blank space after its line *)
  | Corrupt of { offset : int; reason : string }
      (** the first bad frame, at byte [offset], has more after it *)

val scan :
  ?len:int ->
  (char -> string -> int -> int -> ('a, string) result) ->
  string ->
  'a list * int * stop
(** [scan decode s] decodes the frames of the first [len] bytes of [s]
    (default: all of it) in order, until the first damaged or undecodable
    one. [decode tag s off n] gets a checked frame's body as the [n] bytes
    of [s] from [off]; an [Error] makes that frame bad. Returns the decoded
    records, the byte length of the clean prefix (up to the end of the last
    good frame) and why the scan stopped. *)
