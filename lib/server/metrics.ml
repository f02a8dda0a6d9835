(* Server-side request counters and latency accumulators.

   One entry per request kind: count, errors, total/max latency, and a
   power-of-two-microsecond histogram from which approximate percentiles
   are read (each bucket's upper bound is its reported value, so a p99 of
   "512" means at least 99% of requests finished within 512 us). The
   whole structure is guarded by one mutex; recording is a handful of
   integer updates, far off the request hot path's scale.

   [lines] renders one metric per line in a prometheus-like plain-text
   shape; the server dumps it on shutdown and on SIGUSR1, and serves it
   to clients via the "stats" request so `bench serve` numbers can be
   cross-checked from the server side.

   Besides per-request kinds, dispatch records two lock-observability
   histograms here: [lock.read_wait_us] (cost of acquiring read access —
   the atomic snapshot fetch on the fast path, the shared lock on the
   replica's pre-sync fallback) and [lock.write_wait_us] (writer-lock
   wait, writer-vs-writer contention only now that reads are lock-free).
   The [sqlledger_snapshot_age_batches] gauge — how many durable batches
   the served snapshot is missing, expected 0, -1 before anything is
   published — arrives through a provider registered by Dispatch. *)

let buckets = 32 (* 1us .. ~2100s in powers of two *)

type entry = {
  mutable count : int;
  mutable errors : int;
  mutable total_us : float;
  mutable max_us : float;
  histogram : int array;
}

type t = {
  m : Mutex.t;
  table : (string, entry) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
      (* robustness event counts: server.shed, server.deadline_exceeded,
         client retry totals — anything that is a count, not a latency *)
  high_waters : (string, int ref) Hashtbl.t;
      (* monotone maxima: commit.queue_depth and friends *)
  started : float;
  connections : unit -> Wire.Listener.counts;  (* the session runtime's *)
  mutable providers : (unit -> string list) list;
      (* extra line sources (replication lag, ...), registration order *)
}

let create ~connections () =
  {
    m = Mutex.create ();
    table = Hashtbl.create 16;
    counters = Hashtbl.create 8;
    high_waters = Hashtbl.create 8;
    started = Unix.gettimeofday ();
    connections;
    providers = [];
  }

(* Subsystems with their own state (the replication manager, the replica
   client) contribute lines to every [lines]/[dump] through a provider
   instead of shoehorning their gauges into the histogram table. *)
let register_lines t f =
  Mutex.lock t.m;
  t.providers <- t.providers @ [ f ];
  Mutex.unlock t.m

let entry_of t kind =
  match Hashtbl.find_opt t.table kind with
  | Some e -> e
  | None ->
      let e =
        {
          count = 0;
          errors = 0;
          total_us = 0.0;
          max_us = 0.0;
          histogram = Array.make buckets 0;
        }
      in
      Hashtbl.add t.table kind e;
      e

let bucket_of_us us =
  let rec go i bound =
    if i >= buckets - 1 || us <= bound then i else go (i + 1) (bound *. 2.0)
  in
  go 0 1.0

let record t ~kind ~error ~us =
  Mutex.lock t.m;
  let e = entry_of t kind in
  e.count <- e.count + 1;
  if error then e.errors <- e.errors + 1;
  e.total_us <- e.total_us +. us;
  if us > e.max_us then e.max_us <- us;
  let b = bucket_of_us us in
  e.histogram.(b) <- e.histogram.(b) + 1;
  Mutex.unlock t.m

let cell table name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add table name r;
      r

let bump ?(n = 1) t name =
  Mutex.lock t.m;
  let r = cell t.counters name in
  r := !r + n;
  Mutex.unlock t.m

let counter t name =
  Mutex.lock t.m;
  let v = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0 in
  Mutex.unlock t.m;
  v

(* Record [v] as a candidate maximum for gauge [name]. *)
let high_water t name v =
  Mutex.lock t.m;
  let r = cell t.high_waters name in
  if v > !r then r := v;
  Mutex.unlock t.m

(* Smallest histogram upper bound covering fraction [q] of the samples. *)
let percentile e q =
  if e.count = 0 then 0.0
  else begin
    let target =
      int_of_float (ceil (q *. float_of_int e.count))
      |> max 1 |> min e.count
    in
    let rec go i seen bound =
      if i >= buckets then bound
      else
        let seen = seen + e.histogram.(i) in
        if seen >= target then bound
        else go (i + 1) seen (bound *. 2.0)
    in
    go 0 0 1.0
  end

let lines t =
  let conns = t.connections () in
  Mutex.lock t.m;
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  add "sqlledger_uptime_seconds %.1f" (Unix.gettimeofday () -. t.started);
  add "sqlledger_connections_opened_total %d" conns.opened;
  add "sqlledger_connections_active %d" conns.active;
  add "sqlledger_connections_rejected_total %d" conns.rejected;
  let sorted table =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, v) -> add "sqlledger_counter{name=%S} %d" name v)
    (sorted t.counters);
  List.iter
    (fun (name, v) -> add "sqlledger_high_water{name=%S} %d" name v)
    (sorted t.high_waters);
  let kinds =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
    |> List.sort String.compare
  in
  List.iter
    (fun kind ->
      let e = Hashtbl.find t.table kind in
      add "sqlledger_requests_total{kind=%S} %d" kind e.count;
      add "sqlledger_request_errors_total{kind=%S} %d" kind e.errors;
      add "sqlledger_request_latency_us{kind=%S,stat=\"avg\"} %.1f" kind
        (if e.count = 0 then 0.0 else e.total_us /. float_of_int e.count);
      add "sqlledger_request_latency_us{kind=%S,stat=\"p50\"} %.0f" kind
        (percentile e 0.50);
      add "sqlledger_request_latency_us{kind=%S,stat=\"p95\"} %.0f" kind
        (percentile e 0.95);
      add "sqlledger_request_latency_us{kind=%S,stat=\"p99\"} %.0f" kind
        (percentile e 0.99);
      add "sqlledger_request_latency_us{kind=%S,stat=\"max\"} %.1f" kind
        e.max_us)
    kinds;
  let providers = t.providers in
  Mutex.unlock t.m;
  (* Providers run outside the mutex: they take their own locks, and a
     provider that also records here must not deadlock. *)
  List.rev !out
  @ List.concat_map (fun f -> try f () with _ -> []) providers

let dump t oc =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (lines t);
  flush oc
