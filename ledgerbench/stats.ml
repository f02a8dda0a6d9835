(* Sample summaries: nearest-rank percentiles over a whole sample. *)

type summary = { n : int; p50 : float; p99 : float; beyond_p99 : int }

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [q] of the sample at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5

let summarize xs =
  let a = sorted_of_list xs in
  let p99 = percentile a 0.99 in
  {
    n = Array.length a;
    p50 = percentile a 0.5;
    p99;
    beyond_p99 = Array.fold_left (fun k x -> if x > p99 then k + 1 else k) 0 a;
  }

(* Mean of the middle of a sample, a quarter of it (rounded down) cut
   from each end: unlike a median it follows a sample split between two
   modes by their proportion, and unlike a mean it ignores the odd
   extreme. *)
let trimmed_mean xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  let cut = n / 4 in
  let mid = Array.sub a cut (n - (2 * cut)) in
  if Array.length mid = 0 then nan
  else Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* Set-up is timed [setup_repeats] times, because one set-up scatters too
   widely to compare runs by: [repeat_median f ~discard] calls [f i] for
   each repeat [i], each returning a value and its time, discards every
   value but the last and returns it with the median time. *)
let setup_repeats = 5

let repeat_median f ~discard =
  let rec go i times =
    let v, t = f i in
    if i + 1 < setup_repeats then begin
      discard v;
      go (i + 1) (t :: times)
    end
    else (v, median (t :: times))
  in
  go 0 []

(* A p99 is a tail only when at least ten samples lie beyond it. *)
let tail_supported s = s.beyond_p99 >= 10

(* Robust figures over a measured phase, so that a contended spell in
   part of a run moves one window, not the run's figure. *)

(* [k] consecutive slices of equal count (the last takes the remainder). *)
let slices k a =
  let n = Array.length a in
  let k = max 1 (min k n) in
  List.init k (fun i -> Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k)))

(* Median over windows of at least [min_window] consecutive samples
   (ordered by completion time) of each window's p99. *)
let windowed_p99 ~min_window (timed : (int64 * float) list) =
  let a = Array.of_list timed in
  Array.sort (fun (x, _) (y, _) -> Int64.compare x y) a;
  slices (Array.length a / min_window) (Array.map snd a)
  |> List.map (fun w ->
         Array.sort Float.compare w;
         percentile w 0.99)
  |> median

(* Median over [k] windows of equal operation count of each window's
   completion rate, per second of the window not stolen from the
   benchmark's vCPU ([stolen a b] gives the seconds stolen between two
   times); [start] opens the first window. *)
let windowed_rate ~k ~start ~stolen ends =
  let a = Array.of_list ends in
  Array.sort Int64.compare a;
  let n = Array.length a in
  let k = max 1 (min k n) in
  List.init k (fun i ->
      let lo = i * n / k and hi = ((i + 1) * n / k) - 1 in
      let from = if lo = 0 then start else a.(lo - 1) in
      let span = (Int64.to_float (Int64.sub a.(hi) from) /. 1e9) -. stolen from a.(hi) in
      float_of_int (hi - lo + 1) /. span)
  |> median
