(* Entry point of the [fault] library.

   [Fault.*]          failpoint registry and guarded write sinks (Failpoint)
   [Fault.Crc32]      the CRC-32 of every durable frame and container
   [Fault.Crc_frame]  the CRC-framed record format of every durable log
   [Fault.Fsutil]     mkdir_p / fsync / atomic-rename helpers *)

include Failpoint
module Crc32 = Crc32
module Crc_frame = Crc_frame
module Fsutil = Fsutil
