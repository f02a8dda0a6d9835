(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used to frame
   WAL records and snapshot containers. Streaming API so callers can hash a
   record spread across several pieces without concatenating them. *)

(* Built when the module loads, so no thread ever races to build it. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

type t = int32

let init : t = 0xFFFFFFFFl

let update_char (c : t) ch : t =
  let idx = Int32.to_int (Int32.logand (Int32.logxor c (Int32.of_int (Char.code ch))) 0xFFl) in
  Int32.logxor table.(idx) (Int32.shift_right_logical c 8)

let update_substring (c : t) s off len : t =
  let acc = ref c in
  for i = off to off + len - 1 do
    acc := update_char !acc (String.unsafe_get s i)
  done;
  !acc

let update_string c s = update_substring c s 0 (String.length s)

let update_buffer (c : t) buf : t =
  let acc = ref c in
  for i = 0 to Buffer.length buf - 1 do
    acc := update_char !acc (Buffer.nth buf i)
  done;
  !acc

let finish (c : t) : int32 = Int32.lognot c

let string s = finish (update_string init s)
let substring s ~off ~len = finish (update_substring init s off len)
