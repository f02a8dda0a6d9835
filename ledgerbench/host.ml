(* The host a run saw, and file helpers that stay inside the checkout. *)

(* The CPU this process is pinned to, from /proc/self/status, when it is
   allowed exactly one (run.py pins the benchmark to one vCPU). *)
let pinned_cpu () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let cpu = ref None in
      (try
         while true do
           let line = input_line ic in
           match Scanf.sscanf_opt line "Cpus_allowed_list: %s" Fun.id with
           | Some l -> cpu := int_of_string_opt l
           | None -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !cpu

(* Steal ticks of /proc/stat's [cpu] line (the sum over every CPU), or of
   one CPU's line: time a vCPU was runnable but the hypervisor ran
   something else, in ticks of 1/100 s. *)
let steal_ticks ?cpu () =
  let prefix = (match cpu with None -> "cpu" | Some n -> "cpu" ^ string_of_int n) ^ " " in
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
      let total = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.starts_with ~prefix line then
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | _ :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _soft :: steal
               :: _ ->
                 total := int_of_string steal
             | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !total

(* [f ()] and the seconds the hypervisor stole meanwhile from the vCPU
   this process is pinned to (from all of the guest's vCPUs when it is not
   pinned). *)
let stolen f =
  let cpu = pinned_cpu () in
  let s0 = steal_ticks ?cpu () in
  let v = f () in
  (v, float_of_int (steal_ticks ?cpu () - s0) /. 100.)

(* [f ()] and how long it took in seconds, less the time stolen from the
   benchmark's vCPU meanwhile: on the reference host the hypervisor takes
   10-40 % of a run in contended spells, which a user of a dedicated host
   never sees. /proc/stat counts steal in ticks of 10 ms, so this is meant
   for steps of a tenth of a second or more. *)
let timed f =
  let t0 = Trace.now_ns () in
  let v, stolen_s = stolen f in
  (v, (Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9) -. stolen_s)

(* The pinned vCPU's steal counter sampled every 50 ms while [f] runs, as
   (time, ticks), so that the steal within any stretch of the run can be
   told afterwards. The sampler is a thread: it holds the runtime for the
   few microseconds a sample takes. *)
type steal_series = (int64 * int) array

let sample_steal f =
  let cpu = pinned_cpu () in
  let samples = ref [] and m = Mutex.create () and stop = Atomic.make false in
  let sample () =
    let ticks = steal_ticks ?cpu () in
    let t = Trace.now_ns () in
    Mutex.protect m (fun () -> samples := (t, ticks) :: !samples)
  in
  sample ();
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05;
          sample ()
        done)
      ()
  in
  let v =
    Fun.protect f ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join th)
  in
  sample ();
  (v, Array.of_list (List.rev !samples))

(* Seconds stolen between times [a] and [b] by a series, interpolating
   linearly between samples; never more than the stretch itself, which
   a counter in whole ticks could otherwise claim. *)
let stolen_between (series : steal_series) a b =
  let n = Array.length series in
  let at t =
    if n = 0 then 0.
    else if t <= fst series.(0) then float_of_int (snd series.(0))
    else if t >= fst series.(n - 1) then float_of_int (snd series.(n - 1))
    else begin
      (* The last sample at or before [t]. *)
      let rec find lo hi =
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          if fst series.(mid) <= t then find mid hi else find lo mid
      in
      let i = find 0 (n - 1) in
      let t0, k0 = series.(i) and t1, k1 = series.(i + 1) in
      let f = Int64.to_float (Int64.sub t t0) /. Int64.to_float (Int64.sub t1 t0) in
      float_of_int k0 +. (f *. float_of_int (k1 - k0))
    end
  in
  Float.min ((at b -. at a) /. 100.) (Int64.to_float (Int64.sub b a) /. 1e9)

(* The guest's CPUs: the [cpuN] lines of /proc/stat. *)
let cores () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 3 && String.sub line 0 3 = "cpu" && line.[3] <> ' '
           then incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let v = ref nan in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                 v := float_of_int kb /. 1024.)
         done
       with End_of_file -> ());
      close_in ic;
      !v

(* A fixed integer-mixing loop, kept here rather than borrowed from the
   program so that program changes cannot move it: its time tracks how
   much CPU this guest is getting. *)
let calibration_ms () =
  let t0 = Trace.now_ns () in
  let x = ref 0x9E3779B97F4A7C15L in
  for i = 1 to 20_000_000 do
    let z = Int64.add !x (Int64.of_int i) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    x := Int64.logxor z (Int64.shift_right_logical z 27)
  done;
  let ms = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e6 in
  if !x = 0L then ms +. 1e-9 else ms

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_tree s d else copy_file s d)
    (Sys.readdir src)

let file_size path = (Unix.stat path).Unix.st_size
