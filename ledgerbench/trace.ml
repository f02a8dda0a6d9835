(* In-memory spans around the benchmark's calls into the program.

   A span records its name, start and end on a monotonic nanosecond
   clock, the span it ran inside and the request it serves. Recording is
   off unless [enable] was called; a disabled span costs one branch.
   Spans stay in memory and are written out as JSON lines when the run
   ends, so no file I/O lands inside a measured interval. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id the span serves; -1 when none *)
  name : string;
  t0 : int64;  (** ns, monotonic *)
  t1 : int64;
}

let on = ref false
let m = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0
let now_ns () = Monotonic_clock.now ()
let enable () = on := true
let enabled () = !on

let add s =
  Mutex.lock m;
  recorded := s :: !recorded;
  Mutex.unlock m

(* Run [f] inside a span; [f] receives the span's id so that calls it
   makes can name it as their parent. *)
let span ?(parent = -1) ?(req = -1) name f =
  if not !on then f (-1)
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now_ns () in
    let finish () = add { id; parent; req; name; t0; t1 = now_ns () } in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Record an already-timed interval under another name, e.g. a staged
   write that turned out to close a block. *)
let alias ~parent ~req name ~t0 ~t1 =
  if !on then add { id = Atomic.fetch_and_add next_id 1; parent; req; name; t0; t1 }

let spans () =
  Mutex.lock m;
  let l = !recorded in
  Mutex.unlock m;
  List.rev l

(* Self time: a span's duration minus the part of it that its children
   cover. Children may overlap one another (an alias shares its twin's
   interval), so their clipped intervals are merged before subtracting. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let clipped =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun (a, b) ->
               let a = max a s.t0 and b = min b s.t1 in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, Int64.min_int) clipped
      in
      (s, Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) covered) /. 1e3))
    spans

(* Self times in microseconds, grouped by span name. *)
let self_by_name spans =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (s, us) ->
      Hashtbl.replace by s.name
        (us :: Option.value ~default:[] (Hashtbl.find_opt by s.name)))
    (self_times spans);
  by

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.req s.name s.t0 s.t1)
    spans;
  close_out oc
