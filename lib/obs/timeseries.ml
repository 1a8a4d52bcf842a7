(* A window keeps its samples twice: a FIFO of (stamp, value) for
   expiry and overflow, and the same values in a sorted float array for
   order statistics. Insertion and removal are a binary search plus one
   blit of at most [max_samples] unboxed floats, so a percentile is an
   index instead of a sort of the whole window.

   Equal values (under [Float.compare], which orders floats exactly as
   [compare] does, NaN first) are kept oldest first in the array: a
   sample is inserted after its equals and the oldest sample of a value
   is the leftmost of its equals. The array is therefore exactly what
   [List.sort compare] makes of the windowed values, bit for bit. *)

type t = {
  window_ms : float;
  max_samples : int;
  q : (float * float) Queue.t; (* (observed_at_ms, value), oldest first *)
  mutable sorted : float array; (* live prefix [0, n), ascending *)
  mutable n : int;
  mutable owner : Sim.Engine.t option; (* engine of the run the samples belong to *)
}

let create ?(max_samples = 8192) ~window_ms () =
  if window_ms <= 0.0 then invalid_arg "Timeseries.create: window must be positive";
  if max_samples <= 0 then invalid_arg "Timeseries.create: max_samples must be positive";
  {
    window_ms;
    max_samples;
    q = Queue.create ();
    sorted = Array.make (min max_samples 16) 0.0;
    n = 0;
    owner = None;
  }

let window_ms t = t.window_ms

let clear t =
  Queue.clear t.q;
  t.n <- 0

(* First index in [0, n) whose value compares above [v] ([strict]) or
   at least equal to it (not [strict]); [n] when there is none. *)
let search t v ~strict =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Float.compare t.sorted.(mid) v in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let insert_sorted t v =
  if t.n = Array.length t.sorted then begin
    let grown = Array.make (min t.max_samples (2 * t.n)) 0.0 in
    Array.blit t.sorted 0 grown 0 t.n;
    t.sorted <- grown
  end;
  let i = search t v ~strict:true in
  Array.blit t.sorted i t.sorted (i + 1) (t.n - i);
  t.sorted.(i) <- v;
  t.n <- t.n + 1

(* Remove the oldest sample, which is also the leftmost of its equals. *)
let pop_oldest t =
  let _, v = Queue.pop t.q in
  let i = search t v ~strict:false in
  Array.blit t.sorted (i + 1) t.sorted i (t.n - i - 1);
  t.n <- t.n - 1

(* The virtual instant an access happens at. A window belongs to the
   run whose process last touched it: an access from a process of
   another engine is a new run, so the window is emptied and adopted
   first. Outside any process the owning engine's clock stands (it
   keeps the time its last run stopped at), or 0 for a window no
   process has touched. *)
let now_ms t =
  match Sim.Engine.self_engine () with
  | e ->
      (match t.owner with
      | Some o when o == e -> ()
      | _ ->
          clear t;
          t.owner <- Some e);
      Sim.Engine.now e
  | exception Effect.Unhandled _ -> (
      match t.owner with Some o -> Sim.Engine.now o | None -> 0.0)

(* Drop samples that have slid out of the window ending [now]. *)
let prune t now =
  let horizon = now -. t.window_ms in
  while (not (Queue.is_empty t.q)) && fst (Queue.peek t.q) < horizon do
    pop_oldest t
  done

let sync t = prune t (now_ms t)

let observe t v =
  let now = now_ms t in
  prune t now;
  if t.n = t.max_samples then pop_oldest t;
  Queue.push (now, v) t.q;
  insert_sorted t v

let count t =
  sync t;
  t.n

let values t =
  sync t;
  List.of_seq (Seq.map snd (Queue.to_seq t.q))

(* Events per (virtual) second over the window. *)
let rate_per_s t = float_of_int (count t) /. (t.window_ms /. 1000.0)

(* Linear interpolation between the closest ranks of the (already
   pruned, non-empty) window. *)
let interpolate t p =
  let sorted = t.sorted in
  let index = p /. 100.0 *. float_of_int (t.n - 1) in
  let lo_i = int_of_float (floor index) and hi_i = int_of_float (ceil index) in
  if lo_i = hi_i then sorted.(lo_i)
  else begin
    let frac = index -. float_of_int lo_i in
    sorted.(lo_i) +. (frac *. (sorted.(hi_i) -. sorted.(lo_i)))
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Timeseries.percentile: p out of range";
  sync t;
  if t.n = 0 then invalid_arg "Timeseries.percentile: no samples in window";
  interpolate t p

type summary = {
  n : int;
  rate_per_s : float;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}

(* Mean and max fold over the samples oldest first, as the values list
   would: float addition is not associative, and [Float.max] prefers
   [+0.] over [-0.], so the order is part of the result. *)
let summary t =
  sync t;
  if t.n = 0 then
    { n = 0; rate_per_s = 0.0; mean = 0.0; p50 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0 }
  else
    let n = t.n in
    {
      n;
      rate_per_s = float_of_int n /. (t.window_ms /. 1000.0);
      mean = Queue.fold (fun acc (_, v) -> acc +. v) 0.0 t.q /. float_of_int n;
      p50 = interpolate t 50.0;
      p99 = interpolate t 99.0;
      p999 = interpolate t 99.9;
      max = Queue.fold (fun acc (_, v) -> Float.max acc v) neg_infinity t.q;
    }
