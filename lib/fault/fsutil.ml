(* Crash-safe filesystem helpers shared by the durability layer.

   [fsync_channel] is the one fsync of a file in the program, and it
   raises on failure: a write whose fsync failed is not durable, so no
   caller may acknowledge it (the WAL then breaks, see [Aries.Wal]). Only
   [fsync_dir] is best-effort. *)

(* Tolerates concurrent creation: another domain/process may win the race
   between the existence check and mkdir, which must not be an error. *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with
    | Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let fsync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Durability of a rename requires fsyncing the containing directory.
   Best-effort, unlike [fsync_channel]: some filesystems refuse fsync on a
   directory fd, and a refused directory fsync says nothing about the
   file's own contents, which were fsynced before the rename. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Failpoints threaded through [atomic_write]; call once per prefix at
   module-init time so the points show up in [Failpoint.points] before any
   write happens. *)
let register_atomic_points prefix =
  List.iter
    (fun suffix -> Failpoint.register (prefix ^ "." ^ suffix))
    [ "write"; "fsync"; "rename_prev"; "rename" ]

(* Atomically replace [path] with [contents]:
   write [path].tmp, fsync it, then rename over [path]. A crash at any
   instant leaves either the complete old file or the complete new file;
   the only debris is a torn [path].tmp, which readers must checksum.
   With [keep_previous], the old file is first renamed to [path].prev and
   retained until the next save — a second, older generation to fall back
   to if [path] is later found corrupt on disk. *)
let atomic_write ?(keep_previous = false) ~point_prefix ~path contents =
  let point s = point_prefix ^ "." ^ s in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Failpoint.output (point "write") oc contents;
     flush oc;
     Failpoint.trip (point "fsync");
     fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  if keep_previous && Sys.file_exists path then begin
    Failpoint.trip (point "rename_prev");
    Sys.rename path (path ^ ".prev")
  end;
  (* The nastiest window: with [keep_previous] there is no [path] at all
     between the two renames. Recovery must then pick up the fsynced tmp
     (complete, checksummed) or fall back to the .prev generation. *)
  Failpoint.trip (point "rename");
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
