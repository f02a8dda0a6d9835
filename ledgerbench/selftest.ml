(* Checks of the benchmark's own helpers: percentile reporting, span self
   time, and that a seed fixes the operation stream and the counts a run
   produces. *)

let fails = ref 0

let expect ok what =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr fails

let percentiles () =
  let shuffled n = List.init n (fun i -> float_of_int (((i * 37) mod n) + 1)) in
  let s = Stats.summarize (shuffled 100) in
  expect
    (s.n = 100 && s.p50 = 50. && s.p99 = 99. && s.beyond_p99 = 1
    && not (Stats.tail_supported s))
    "100 samples: p50 50, p99 99, one sample beyond, so no supported tail";
  let s = Stats.summarize (shuffled 1000) in
  expect
    (s.n = 1000 && s.p50 = 500. && s.p99 = 990. && s.beyond_p99 = 10
    && Stats.tail_supported s)
    "1000 samples: p50 500, p99 990, ten beyond, so the tail is supported";
  expect (Stats.median [ 3.; 1.; 2. ] = 2. && Stats.median [ 5. ] = 5.)
    "median of an odd sample and of one sample";
  expect (Float.is_nan (Stats.median [])) "median of no sample is nan";
  expect
    (Stats.trimmed_mean [ 100.; 1.; 2.; 3.; 0. ] = 2.
    && Stats.trimmed_mean [ 1.; 1.; 3.; 3.; 3.; 3.; 1.; 1. ] = 2.)
    "trimmed mean drops a quarter from each end and follows two modes"

let steal () =
  (* Ticks 0 at 0 s, 10 at 1 s, 10 at 2 s: 0.1 s stolen in the first second. *)
  let series = [| (0L, 0); (1_000_000_000L, 10); (2_000_000_000L, 10) |] in
  let near a b = Float.abs (a -. b) < 1e-9 in
  expect
    (near (Host.stolen_between series 0L 500_000_000L) 0.05
    && near (Host.stolen_between series 500_000_000L 2_000_000_000L) 0.05
    && near (Host.stolen_between series 1_000_000_000L 3_000_000_000L) 0.
    && near (Host.stolen_between [| (0L, 0); (1_000_000L, 1) |] 0L 1_000_000L) 0.001)
    "steal between two times interpolates the sampled counter";
  let ends = List.init 10 (fun i -> Int64.of_int ((i + 1) * 100_000_000)) in
  let stolen = Host.stolen_between series in
  expect
    (near (Stats.windowed_rate ~k:2 ~start:0L ~stolen:(fun _ _ -> 0.) ends) 10.
    && near (Stats.windowed_rate ~k:2 ~start:0L ~stolen ends) (5. /. 0.45))
    "a window's rate counts only the time not stolen from it"

let self_time () =
  let span id parent t0 t1 =
    { Trace.id; parent; req = 1; name = string_of_int id; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }
  in
  (* 0 covers [0,100]; its children 1 [10,30] and 2 [20,50] overlap;
     3 [12,15] is inside 1; 4 [90,120] runs past its parent's end. *)
  let spans =
    [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 50; span 3 1 12 15; span 4 0 90 120 ]
  in
  let self = List.map (fun ((s : Trace.span), us) -> (s.id, us *. 1e3)) (Trace.self_times spans) in
  let near id v = Float.abs (List.assoc id self -. v) < 1e-9 in
  expect (near 0 50.) "parent self time subtracts the union of its children, clipped";
  expect (near 1 17.) "a child's self time subtracts its own child";
  expect (near 2 30. && near 3 3. && near 4 30.) "leaf spans keep their whole duration"

let streams () =
  let values = Served.preload_values ~seed:7 in
  let sqls (ops, _, c) = (Array.map (fun (o : Served.op) -> o.sql) ops, c) in
  let a = sqls (Served.oltp_stream ~seed:7 ~conn:0 ~values ~ops:500) in
  let b = sqls (Served.oltp_stream ~seed:7 ~conn:0 ~values:(Served.preload_values ~seed:7) ~ops:500) in
  let c = sqls (Served.oltp_stream ~seed:8 ~conn:0 ~values ~ops:500) in
  expect (a = b && a <> c) "an oltp stream repeats for its seed and differs for another";
  let ops, _, _ = Served.oltp_stream ~seed:7 ~conn:1 ~values ~ops:2_000 in
  let count k = Array.fold_left (fun n (o : Served.op) -> if o.kind = k then n + 1 else n) 0 ops in
  let whole = count Served.Select and projected = count Served.Select_v in
  expect
    (projected > 0 && 2 * projected < whole)
    (Printf.sprintf "oltp's point reads name a column in a minority (%d of %d)" projected
       (whole + projected));
  let w s = sqls (Served.writer_stream ~seed:s ~values ~ops:500) in
  expect (w 7 = w 7 && w 7 <> w 8) "the receipts writer stream repeats for its seed";
  let p s = Served.plan ~seed:s ~groups:400 in
  expect
    (p 7 = p 7 && p 7 <> p 8 && (p 7).evicted <> [])
    "the receipt plan repeats for its seed and asks for evicted blocks";
  (* Each hundred operations holds every kind's exact share. *)
  let exact mix kinds =
    List.for_all
      (fun h ->
        let block = Array.sub kinds (h * 100) 100 in
        List.for_all
          (fun (k, share) ->
            Array.fold_left (fun n x -> if x = k then n + 1 else n) 0 block = share)
          mix)
      (List.init (Array.length kinds / 100) Fun.id)
  in
  let t s = Tpcc_run.kinds ~seed:s ~ops:500 in
  expect
    (t 7 = t 7 && t 7 <> t 8 && exact Tpcc_run.mix (t 7) && exact Tpcc_run.mix (t 8))
    "the tpcc mix repeats for its seed, and each hundred calls holds every kind's share";
  let kinds s =
    let ops, _, _ = Served.oltp_stream ~seed:s ~conn:0 ~values ~ops:1_000 in
    Array.map (fun (o : Served.op) -> o.kind) ops
  in
  expect
    (exact Served.oltp_mix (kinds 7) && exact Served.oltp_mix (kinds 8))
    "each hundred oltp statements holds every kind's share"

(* Two short runs of each workload with one seed must count alike. *)
let counts ~root =
  let shape (o : Outcome.t) =
    ( o.attempted,
      o.failed,
      (o.wal_records, o.wal_commits),
      (o.image.versions, o.image.transactions),
      (List.length o.commits, List.length o.read_us, List.length o.receipt_us) )
  in
  List.iter
    (fun (name, run) ->
      let once i =
        let dir = Filename.concat root (Printf.sprintf "%s-%d" name i) in
        Fault.Fsutil.mkdir_p dir;
        let o = run ~root:dir in
        Host.rm_rf dir;
        shape o
      in
      let a = once 1 and b = once 2 in
      expect (a = b && !Outcome.failures = [])
        (Printf.sprintf "two %s runs with one seed count alike and pass their checks" name))
    [
      ("oltp", fun ~root -> Served.oltp ~root ~seed:3 ~ops:600);
      ("receipts", fun ~root -> Served.receipts ~root ~seed:3 ~ops:1_500);
      ("tpcc", fun ~root -> Tpcc_run.run ~root ~seed:3 ~ops:300 ~ledgered:true);
    ]

let run () =
  let root = Printf.sprintf ".ledgerbench/selftest-%d" (Unix.getpid ()) in
  Fault.Fsutil.mkdir_p root;
  percentiles ();
  steal ();
  self_time ();
  streams ();
  counts ~root;
  Host.rm_rf root;
  if !fails = 0 then print_endline "selftest: all checks passed"
  else Printf.printf "selftest: %d checks failed\n" !fails;
  !fails = 0
