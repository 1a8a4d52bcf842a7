(* The repository benchmark: one repetition of one workload.

   Usage: main.exe WORKLOAD --seed N [--trace 0|1]

   WORKLOAD is read_ladder, cold_import or write_storm (README.md in
   this directory says why each exists). The program runs the workload
   once, checks its outputs, and prints one JSON object as its last
   line of standard output: virtual-clock metrics, host-clock segment
   timings, per-layer counters, correctness checks and — with
   [--trace 1] — the per-span-name table of the traced run.

   One process is one repetition. Obs keeps process-global state (the
   SLO windows and metric histograms grow for the life of the process),
   so repeating a workload in-process would time a different program on
   every repetition; run.py starts a fresh process for each. Inside
   read_ladder the three steps share one process on purpose: that is
   how [hns_cli load --full] and [bench --json] run their arms, so the
   cost users pay for that shared state shows in [wall_s].

   Only public library entry points are driven: Workload.Openloop,
   Workload.Scenario, Hns.Import, Hns.Meta_client, Dns.* and Store.*. *)

module S = Workload.Scenario
module C = Workload.Calib
module O = Workload.Openloop
module M = Obs.Metrics
module J = Obs.Json

let process_start = Unix.gettimeofday ()

(* --- host-clock segments -------------------------------------------- *)

(* Host time is split into set-up segments (scenario builds, durable and
   replica attach, warm-up) and measured segments (the workload proper);
   GC work is accounted over the measured segments only. *)
let setup_s = ref 0.0
let wall_s = ref 0.0
let minor_words = ref 0.0
let major_gcs = ref 0

let setup f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      setup_s := !setup_s +. (Unix.gettimeofday () -. t0))

let measured f =
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let g0 = (Gc.quick_stat ()).major_collections in
  Fun.protect f ~finally:(fun () ->
      wall_s := !wall_s +. (Unix.gettimeofday () -. t0);
      minor_words := !minor_words +. (Gc.minor_words () -. w0);
      major_gcs := !major_gcs + ((Gc.quick_stat ()).major_collections - g0))

(* --- tracing --------------------------------------------------------- *)

(* The traced run wraps every call into a layer's public function in a
   span of the benchmark's own ([bench.*]); the library's hns/hrpc spans
   nest under them. Spans are copied out of the tracer's bounded ring as
   they retire so the per-name table covers the whole run; spans the
   ring evicted before a copy could see them are counted as lost. *)
let tracing = ref false

type span_copy = {
  sid : int;
  parent : int;  (** 0 for a root *)
  sname : string;
  t0 : float;
  t1 : float;
}

let spans : span_copy list ref = ref []
let spans_seen = ref 0
let spans_lost = ref 0
let epoch = ref 0
let host_by_span : (string, float) Hashtbl.t = Hashtbl.create 16

(* Copy the spans retired since the last call. With [~quiescent] (no
   simulated process can hold an open span) the tracer is also cleared:
   its ring evicts in O(ring size) per span once full, so an unbounded
   traced run would mostly measure that eviction. Ids restart after a
   clear, hence the epoch in the copied ids. *)
let drain_spans ?(quiescent = false) () =
  if !tracing then begin
    let fin = Obs.Span.finished () in
    let len = List.length fin in
    let total = Obs.Span.dropped () + len in
    let fresh = total - !spans_seen in
    let take = min fresh len in
    let id x = (!epoch * 1_000_000_000) + x in
    spans_lost := !spans_lost + (fresh - take);
    spans_seen := total;
    List.iteri
      (fun i (s : Obs.Span.span) ->
        if i >= len - take then
          spans :=
            {
              sid = id s.id;
              parent = (match s.parent with None -> 0 | Some p -> id p);
              sname = s.name;
              t0 = s.start_ms;
              t1 = s.end_ms;
            }
            :: !spans)
      fin;
    if quiescent then begin
      Obs.Span.clear ();
      incr epoch;
      spans_seen := 0
    end
  end

let bench_span name f =
  if not !tracing then f ()
  else begin
    let h0 = Unix.gettimeofday () in
    Fun.protect
      (fun () -> Obs.Span.with_span name f)
      ~finally:(fun () ->
        let h = Option.value (Hashtbl.find_opt host_by_span name) ~default:0.0 in
        Hashtbl.replace host_by_span name (h +. (Unix.gettimeofday () -. h0)))
  end

(* Inside a simulated process: copy retiring spans out every virtual
   second until [stop] is set. *)
let start_span_collector () =
  let stop = ref false in
  if !tracing then
    Sim.Engine.spawn_child ~name:"perfbench.spans" (fun () ->
        while not !stop do
          Sim.Engine.sleep 1_000.0;
          drain_spans ()
        done);
  fun () -> stop := true

(* Self time: a span's duration minus the part of it its children
   (local or remote) cover. *)
let span_table () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    !spans;
  let covered s =
    let ivs =
      Option.value (Hashtbl.find_opt children s.sid) ~default:[]
      |> List.filter_map (fun c ->
             let a = Float.max s.t0 c.t0 and b = Float.min s.t1 c.t1 in
             if b > a then Some (a, b) else None)
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (acc, cur) (a, b) ->
          match cur with
          | None -> (acc, Some (a, b))
          | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
          | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
        (0.0, None) ivs
    in
    match last with None -> total | Some (a, b) -> total +. (b -. a)
  in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let n, tot, self =
        Option.value (Hashtbl.find_opt by_name s.sname) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.sname
        (n + 1, tot +. dur, self +. Float.max 0.0 (dur -. covered s)))
    !spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

(* --- samples and percentiles ---------------------------------------- *)

let percentile xs p =
  match xs with
  | [] -> 0.0
  | _ ->
      let st = Sim.Stats.create () in
      List.iter (Sim.Stats.add st) xs;
      Sim.Stats.percentile st p

(* The highest of p99.9/p99/p95/p90/p50 with at least ten samples
   beyond it. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 50.0 ]
  |> Option.value ~default:50.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [--setup-only]: run the workload's set-up, then stop. run.py times
   several of these per run, so set-up time is a median of many. *)
let setup_only = ref false

exception Setup_done

let end_of_setup () = if !setup_only then raise Setup_done

(* --- the metrics registry, as deltas over a phase ------------------- *)

(* The instruments the layer metrics read. A reading takes their values
   straight from the handles: [Obs.Metrics.snapshot] would sort every
   histogram's samples on each call. *)
let counters =
  [
    "hrpc.client.calls"; "hrpc.client.retries"; "hrpc.client.errors";
    "hns.nsm.calls"; "hns.nsm.errors";
    "store.wal.appends"; "store.wal.group_commits"; "store.disk.fsyncs";
    "transport.netstack.packets_sent"; "transport.netstack.bytes_sent";
    "transport.netstack.packets_dropped";
    "wire.codec.hand_decodes"; "wire.codec.generic_fallbacks";
    "wire.codec.value_materializations"; "wire.codec.pool_hits";
    "wire.codec.pool_misses";
    "hns.cache.marshalled.hits"; "hns.cache.demarshalled.hits";
    "hns.cache.marshalled.misses"; "hns.cache.demarshalled.misses";
    "hns.agent.cache_hits"; "hns.agent.requests"; "hns.agent.coalesced";
    "hns.meta.prefetch_hits"; "hns.meta.bundle_prefetched";
    "dns.replica.routed"; "dns.replica.primary_fallbacks"; "dns.ixfr.served";
    "dns.ixfr.fallbacks"; "dns.notify.sent"; "dns.secondary.full_transfers";
  ]

let histograms =
  [
    "hrpc.client.call_ms"; "hrpc.client.backoff_ms"; "hns.nsm.call_ms";
    "store.wal.append_ms"; "store.disk.io_ms"; "hns.find_nsm.ms";
    "hns.meta.lookup_ms";
  ]

(* name -> (count, total); a counter's total is its value. *)
type reading = (string * (int * float)) list

let snap () : reading =
  List.map (fun n -> (n, (0, float_of_int (M.value (M.counter n))))) counters
  @ List.map
      (fun n ->
        let st = M.stats (M.histogram n) in
        (n, (Sim.Stats.count st, Sim.Stats.total st)))
      histograms

let delta (a : reading) (b : reading) name =
  snd (List.assoc name b) -. snd (List.assoc name a)

let hist_n (r : reading) name = fst (List.assoc name r)

(* Samples a histogram received between readings [a] and [b]. *)
let hist_between a b name =
  let n0 = hist_n a name and n1 = hist_n b name in
  if n1 <= n0 then []
  else
    let xs = Sim.Stats.samples (M.stats (M.histogram name)) in
    List.filteri (fun i _ -> i >= n0 && i < n1) xs

let hist_mean a b name =
  let n = hist_n b name - hist_n a name in
  ratio (delta a b name) (float_of_int n)

(* Per-step layer readings: the ones a ladder step changes (calls,
   retries, the NSM hop and the store). *)
let step_layers ~tag a b ~wal_bytes =
  let per = Printf.sprintf "%s.%s" in
  let calls = delta a b "hrpc.client.calls" in
  let nsm = hist_between a b "hns.nsm.call_ms" in
  let wal = hist_between a b "store.wal.append_ms" in
  [
    (per "hrpc.calls" tag, calls);
    (per "hrpc.retries_per_call" tag, ratio (delta a b "hrpc.client.retries") calls);
    (per "hrpc.errors" tag, delta a b "hrpc.client.errors");
    (per "nsm.calls" tag, delta a b "hns.nsm.calls");
    (per "nsm.call_ms_p50" tag, percentile nsm 50.0);
    (per "nsm.call_ms_p99" tag, percentile nsm 99.0);
    (per "nsm.errors" tag, delta a b "hns.nsm.errors");
    ( per "store.records_per_group_commit" tag,
      ratio (delta a b "store.wal.appends") (delta a b "store.wal.group_commits") );
    (per "store.fsyncs" tag, delta a b "store.disk.fsyncs");
    (per "store.disk_busy_ms" tag, delta a b "store.disk.io_ms");
    (per "store.wal_append_ms_p50" tag, percentile wal 50.0);
    (per "store.wal_append_ms_p99" tag, percentile wal 99.0);
    (per "store.wal_bytes" tag, wal_bytes);
  ]

let slo_window_n () =
  match Obs.Slo.find "resolve" with
  | None -> 0.0
  | Some slo -> float_of_int (Obs.Slo.window_summary slo).Obs.Timeseries.n

(* Readings over the whole measured phase, between snapshots [a] and
   [b]. *)
let phase_layers a b =
  let hits =
    delta a b "hns.cache.marshalled.hits" +. delta a b "hns.cache.demarshalled.hits"
  and misses =
    delta a b "hns.cache.marshalled.misses"
    +. delta a b "hns.cache.demarshalled.misses"
  in
  let hrpc = hist_between a b "hrpc.client.call_ms" in
  [
    ("transport.packets_sent", delta a b "transport.netstack.packets_sent");
    ("transport.bytes_sent", delta a b "transport.netstack.bytes_sent");
    ("transport.packets_dropped", delta a b "transport.netstack.packets_dropped");
    ("wire.hand_decodes", delta a b "wire.codec.hand_decodes");
    ("wire.generic_fallbacks", delta a b "wire.codec.generic_fallbacks");
    ("wire.value_materializations", delta a b "wire.codec.value_materializations");
    ( "wire.pool_hit_ratio",
      ratio (delta a b "wire.codec.pool_hits")
        (delta a b "wire.codec.pool_hits" +. delta a b "wire.codec.pool_misses") );
    ("hrpc.call_ms_p50", percentile hrpc 50.0);
    ("hrpc.call_ms_p99", percentile hrpc 99.0);
    ("hrpc.backoff_ms", delta a b "hrpc.client.backoff_ms");
    ("hns.cache_hit_ratio", ratio hits (hits +. misses));
    ( "hns.agent_hit_ratio",
      ratio (delta a b "hns.agent.cache_hits") (delta a b "hns.agent.requests") );
    ("hns.agent_coalesced", delta a b "hns.agent.coalesced");
    ( "hns.prefetch_yield",
      ratio (delta a b "hns.meta.prefetch_hits") (delta a b "hns.meta.bundle_prefetched") );
    ("hns.find_nsm_ms", hist_mean a b "hns.find_nsm.ms");
    ("hns.meta_lookup_ms", hist_mean a b "hns.meta.lookup_ms");
    ("dns.replica_routed", delta a b "dns.replica.routed");
    ("dns.primary_fallbacks", delta a b "dns.replica.primary_fallbacks");
    ("dns.ixfr_served", delta a b "dns.ixfr.served");
    ("dns.ixfr_fallbacks", delta a b "dns.ixfr.fallbacks");
    ("dns.notify_sent", delta a b "dns.notify.sent");
    ("dns.full_transfers", delta a b "dns.secondary.full_transfers");
  ]

(* --- results --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let m ?(n = 0) name unit_ value = { name; value; unit_; n }

type result = {
  attempted : int;
  failed : int;
      (** operations that failed where the workload guarantees none may:
          wrong bindings, stale or failed read-backs, lost acked writes,
          and any error below a ladder's top (overload) step *)
  checks : (string * bool * string) list;
  headline : metric list;
      (** mean_ms, p99_ms, good_fraction, capacity_per_s — the virtual
          end-to-end metrics every workload reports *)
  detail : metric list;  (** workload-specific virtual metrics *)
  digests : string list;
  layers : (string * float) list;
  events : int;
}

let mean xs =
  ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))

(* A latency distribution as detail rows: median and the highest
   percentile with ten samples beyond it. *)
let dist tag xs =
  let n = List.length xs in
  let p = tail_percentile n in
  [
    m ~n (tag ^ "_p50_ms") "ms" (percentile xs 50.0);
    m ~n (Printf.sprintf "%s_p%g_ms" tag p) "ms" (percentile xs p);
  ]

let headline ~samples ~good ~attempted ~capacity ~capacity_n =
  let n = List.length samples in
  [
    m ~n "mean_ms" "ms" (mean samples);
    m ~n "p99_ms" "ms" (percentile samples 99.0);
    m ~n:attempted "good_fraction" "ratio" good;
    m ~n:capacity_n "capacity_per_s" "1/s" capacity;
  ]

let p99_check ~what n =
  ( "p99 has >= 10 samples beyond it",
    n >= 1000,
    Printf.sprintf "%d %s" n what )

(* Every operation counts against a latency limit; a failure misses
   it. *)
let limit_ms = 1_000.0
let knee_share = 0.99

(* The share of [attempted] operations that succeeded within the limit,
   from per-operation latencies of successes and failures alike (the
   open-loop report does not say which sample failed): each failure is
   placed among the samples over the limit first, so the share is exact
   whenever every failure took longer than the limit — as it does under
   the default retry policy, whose first deadline is 1000 ms. *)
let good_share ~attempted ~errors samples =
  let over = List.length (List.filter (fun l -> l > limit_ms) samples) in
  ratio (float_of_int (attempted - max errors over)) (float_of_int attempted)

(* The highest step rate whose share met [knee_share]; 0 when none
   did. *)
let knee steps =
  List.fold_left
    (fun acc (rate, share) -> if share >= knee_share then Float.max acc rate else acc)
    0.0 steps

let step_tags = [| "s1"; "s2"; "s3" |]

(* --- read_ladder ----------------------------------------------------- *)

(* (arrivals per second, virtual step length). The first step carries
   the flash crowd and the headline latency, so it runs longest: at
   12/s its 720 s give about 8600 resolves, enough for a p99 that moves
   little with the seed. The middle step sits below the shared
   host-address NSM's knee and the top step past it. *)
let read_steps = [ (12.0, 720_000.0); (18.0, 60_000.0); (40.0, 60_000.0) ]

let read_ladder ~seed =
  let base =
    List.find (fun (c : O.config) -> c.label = "flash.decayed") (O.bench_configs ())
  in
  let configs =
    List.mapi
      (fun k (rate, duration_ms) ->
        {
          base with
          O.label = Printf.sprintf "ladder%g" rate;
          seed = (seed * 1009) + k;
          arrival = O.Poisson { rate_per_s = rate };
          duration_ms;
          flash =
            (if k = 0 then
               Some { O.at_ms = 60_000.0; len_ms = 30_000.0; fraction = 0.95; rank = 48 }
             else None);
        })
      read_steps
  in
  end_of_setup ();
  let first = snap () in
  let steps =
    List.mapi
      (fun k (cfg : O.config) ->
        let a = snap () in
        let r = measured (fun () -> bench_span "bench.openloop_run" (fun () -> O.run cfg)) in
        drain_spans ~quiescent:true ();
        let b = snap () in
        let tag = step_tags.(k) in
        let layers =
          step_layers ~tag a b ~wal_bytes:0.0
          @ [
              ("obs.slo_window_n." ^ tag, slo_window_n ());
              ("dns.public_bind_qps." ^ tag, r.O.bind_qps);
              ("dns.meta_primary_qps." ^ tag, r.meta_qps);
              ("dns.meta_replica_qps." ^ tag, r.meta_replica_qps);
            ]
        in
        let samples = Sim.Stats.samples r.all in
        (cfg, r, samples, good_share ~attempted:r.arrivals ~errors:r.errors samples, layers))
      configs
  in
  let last = snap () in
  let cfg1, _, all1, _, _ = List.hd steps in
  let top = List.length steps - 1 in
  let _, rtop, _, top_share, _ = List.nth steps top in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 steps in
  let attempted = sum (fun (_, r, _, _, _) -> r.O.arrivals) in
  let errors = sum (fun (_, r, _, _, _) -> r.O.errors) in
  let good =
    List.fold_left
      (fun acc (_, r, _, share, _) -> acc +. (share *. float_of_int r.O.arrivals))
      0.0 steps
  in
  let below_top =
    List.filteri (fun i _ -> i < top) steps
    |> List.fold_left (fun acc (_, r, _, _, _) -> acc + r.O.errors) 0
  in
  (* Steady-set resolves of the first step: attempted, and the share
     within the SLO target (failures count as misses). *)
  let slo_n, slo_good =
    match Obs.Slo.find ("load-" ^ cfg1.O.label) with
    | Some slo -> (Obs.Slo.total slo, Obs.Slo.compliance slo)
    | None -> (0, 0.0)
  in
  let detail =
    List.concat_map
      (fun ((cfg : O.config), (r : O.report), samples, share, _) ->
        dist (cfg.label ^ ".resolve") samples
        @ [
            m ~n:r.arrivals (cfg.label ^ ".errors") "count" (float_of_int r.errors);
            m ~n:r.arrivals (cfg.label ^ ".good_share") "ratio" share;
          ])
      steps
    @ [
        m ~n:slo_n "slo_good_fraction" "ratio" slo_good;
        m ~n:rtop.O.arrivals "overload_good_fraction" "ratio" top_share;
        m ~n:attempted "error_fraction" "ratio"
          (ratio (float_of_int errors) (float_of_int attempted));
      ]
  in
  {
    attempted;
    failed = below_top;
    checks =
      [
        p99_check ~what:"resolves in the first step" (List.length all1);
        ( "no resolve failed below the top step",
          below_top = 0,
          Printf.sprintf "%d failed" below_top );
      ];
    headline =
      headline ~samples:all1
        ~good:(ratio good (float_of_int attempted))
        ~attempted
        ~capacity:
          (knee
             (List.map
                (fun ((cfg : O.config), _, _, share, _) ->
                  match cfg.arrival with
                  | O.Poisson { rate_per_s } -> (rate_per_s, share)
                  | O.Diurnal _ -> (0.0, share))
                steps))
        ~capacity_n:(List.length steps);
    detail;
    digests = List.map (fun ((cfg : O.config), r, _, _, _) -> cfg.label ^ ":" ^ r.O.digest) steps;
    layers = phase_layers first last @ List.concat_map (fun (_, _, _, _, l) -> l) steps;
    events = sum (fun (_, r, _, _, _) -> r.O.sim_events);
  }

(* --- cold_import ----------------------------------------------------- *)

let slug = function
  | Hns.Import.All_linked -> "all_linked"
  | Hns.Import.Combined_agent -> "combined_agent"
  | Hns.Import.Remote_hns -> "remote_hns"
  | Hns.Import.Remote_nsms -> "remote_nsms"
  | Hns.Import.All_remote -> "all_remote"

(* Table 3.1 rows per configuration; each row is one cold import plus
   its two warm repeats, so this is also the number of cold samples. *)
let import_rows = 1_100
let courier_share = 0.25

type target = Sun of string | Courier

(* One Table 3.1 row: fresh parties with flushed caches, then the
   import three times — cache miss, HNS hit (NSM cache flushed again),
   both hit. Returns (ok, virtual ms) per column. *)
let table_row (scn : S.t) arrangement target =
  let name, service, expected =
    match target with
    | Sun service ->
        ( Hns.Hns_name.make ~context:scn.bind_context ~name:scn.service_host,
          service,
          scn.expected_sun_binding )
    | Courier ->
        ( Hns.Hns_name.make ~context:scn.ch_context ~name:scn.courier_service_name,
          "",
          scn.expected_courier_binding )
  in
  S.in_sim scn (fun () ->
      let p = S.arrange scn arrangement in
      S.flush_parties p;
      let import () =
        let r, ms =
          S.timed (fun () ->
              bench_span
                ("bench.import." ^ slug arrangement)
                (fun () -> Hns.Import.import p.env arrangement ~service name))
        in
        match r with
        | Ok b when Hrpc.Binding.equal b expected -> (true, ms)
        | Ok _ | Error _ -> (false, ms)
      in
      let miss = import () in
      Hns.Cache.flush p.nsm_cache;
      let hns_hit = import () in
      let both_hit = import () in
      S.stop_parties p;
      [ miss; hns_hit; both_hit ])

let cold_import ~seed =
  let build f = setup (fun () -> bench_span "bench.scenario_build" f) in
  let paper = build (fun () -> S.build ()) in
  let v2 =
    build (fun () ->
        S.build ~bundle:true ~hand_codec:true ~cache_mode:Hns.Cache.Demarshalled ())
  in
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let phases = [ ("paper", paper); ("v2", v2) ] in
  (* Warm-up: one row per arrangement and target in each deployment, so
     first-use set-up is not billed to the measured rows. *)
  setup (fun () ->
      List.iter
        (fun (_, scn) ->
          List.iter
            (fun a ->
              ignore (table_row scn a (Sun scn.S.service_name));
              ignore (table_row scn a Courier);
              drain_spans ~quiescent:true ())
            Hns.Import.all_arrangements)
        phases);
  end_of_setup ();
  let arrangements = Array.of_list Hns.Import.all_arrangements in
  let first = snap () in
  let results =
    List.mapi
      (fun k (label, (scn : S.t)) ->
        let a = snap () in
        let alts = Array.of_list scn.alt_service_names in
        (* (arrangement, target, [miss; hns_hit; both_hit]) per row *)
        let rows =
          measured (fun () ->
              List.init import_rows (fun _ ->
                  let arrangement = Sim.Rng.pick rng arrangements in
                  let target =
                    if Sim.Rng.float rng 1.0 < courier_share then Courier
                    else Sun (Sim.Rng.pick rng alts)
                  in
                  let cols = table_row scn arrangement target in
                  drain_spans ~quiescent:true ();
                  (arrangement, target, cols)))
        in
        let b = snap () in
        let tag = step_tags.(k) in
        (label, rows, step_layers ~tag a b ~wal_bytes:0.0
                      @ [ ("obs.slo_window_n." ^ tag, slo_window_n ()) ]))
      phases
  in
  let last = snap () in
  let all_cols = List.concat_map (fun (_, rows, _) -> List.concat_map (fun (_, _, c) -> c) rows) results in
  let attempted = List.length all_cols in
  let failed = List.length (List.filter (fun (ok, _) -> not ok) all_cols) in
  let within = List.length (List.filter (fun (ok, ms) -> ok && ms <= limit_ms) all_cols) in
  let column rows col pred =
    List.filter_map
      (fun (a, t, cols) -> if pred a t then Some (snd (List.nth cols col)) else None)
      rows
  in
  let any _ _ = true in
  let rows_of l = List.assoc l (List.map (fun (l, r, _) -> (l, r)) results) in
  let paper_rows = rows_of "paper" and v2_rows = rows_of "v2" in
  (* Mean |relative error| of the paper-configuration Sun cells against
     the published table. *)
  let table31_error_pct =
    let errs =
      List.concat
        (List.map2
           (fun a (_, pa, pb, pc) ->
             List.mapi
               (fun col paper_ms ->
                 let xs =
                   column paper_rows col (fun a' t ->
                       a' = a && match t with Sun _ -> true | Courier -> false)
                 in
                 Float.abs (mean xs -. paper_ms) /. paper_ms)
               [ pa; pb; pc ])
           Hns.Import.all_arrangements C.Paper.table_3_1)
    in
    100.0 *. mean errs
  in
  let v2_miss = column v2_rows 0 any in
  let v2_all = List.concat_map (fun (_, _, cols) -> List.map snd cols) v2_rows in
  let detail =
    List.concat_map
      (fun (label, rows, _) ->
        dist (label ^ ".import_cold") (column rows 0 any)
        @ List.concat_map
            (fun a ->
              List.mapi
                (fun col what ->
                  let xs = column rows col (fun a' _ -> a' = a) in
                  m ~n:(List.length xs)
                    (Printf.sprintf "%s.%s.%s_mean_ms" label (slug a) what)
                    "ms" (mean xs))
                [ "miss"; "hns_hit"; "both_hit" ])
            Hns.Import.all_arrangements)
      results
    @ [
        m ~n:15 "table31_error_pct" "%" table31_error_pct;
        m ~n:attempted "error_fraction" "ratio"
          (ratio (float_of_int failed) (float_of_int attempted));
      ]
  in
  {
    attempted;
    failed;
    checks =
      [
        ( "every import returned its target's binding",
          failed = 0,
          Printf.sprintf "%d of %d wrong or failed" failed attempted );
        p99_check ~what:"v2 cold imports" (List.length v2_miss);
        ( "table 3.1 stays within 25% of the paper",
          table31_error_pct < 25.0,
          Printf.sprintf "mean |relative error| %.2f%%" table31_error_pct );
      ];
    headline =
      headline ~samples:v2_miss
        ~good:(ratio (float_of_int within) (float_of_int attempted))
        ~attempted
        ~capacity:(ratio (float_of_int (List.length v2_all)) (List.fold_left ( +. ) 0.0 v2_all /. 1000.0))
        ~capacity_n:(List.length v2_all);
    detail;
    digests =
      List.map
        (fun (label, rows, _) ->
          (* The row plan: arrangement, target and service name per row. *)
          let code (a, t, _) =
            let rec index i = if arrangements.(i) = a then i else index (i + 1) in
            float_of_int (index 0)
            +. match t with Courier -> 0.5 | Sun s -> float_of_int (String.length s) /. 100.0
          in
          label ^ ":" ^ O.schedule_digest (List.map code rows))
        results;
    layers = phase_layers first last @ List.concat_map (fun (_, _, l) -> l) results;
    events = Sim.Engine.events_executed paper.engine + Sim.Engine.events_executed v2.engine;
  }

(* --- write_storm ----------------------------------------------------- *)

(* (updates per second, virtual step length); as in read_ladder the
   first step is long enough for a p99 and the middle one sits below
   the knee. *)
let write_steps = [ (5.0, 1_440_000.0); (7.0, 120_000.0); (15.0, 120_000.0) ]
let writer_hosts = 4
let converge_tick_ms = 2.0
let drain_backstop_ms = 60_000.0

type wdeploy = {
  scn : S.t;
  disk : Store.Disk.t;
  durable : Dns.Durable.t;
  writers : Hns.Meta_client.t array;
}

(* A paper-configuration deployment with three meta replicas, the
   durable store attached to the meta primary, and four writer hosts. *)
let deploy k =
  let scn = bench_span "bench.scenario_build" (fun () -> S.build ~meta_replicas:3 ()) in
  let stacks =
    Array.init writer_hosts (fun w ->
        Transport.Netstack.attach scn.net
          (Sim.Topology.add_host scn.topo (Printf.sprintf "storm%d-w%d" k w)))
  in
  S.in_sim scn (fun () ->
      let disk = Store.Disk.create ~name:(Printf.sprintf "storm%d" k) () in
      let durable = Dns.Durable.attach disk scn.meta_zone in
      let writers = Array.map (fun on -> Hns.Client.meta (S.new_hns scn ~on)) stacks in
      { scn; disk; durable; writers })

type wstep = {
  rate : float;
  acks : float list;  (** ack latency from the scheduled instant *)
  attempted_w : int;
  acked : int;
  acked_within : int;
  stale : int;
  read_errors : int;
  converge : float list;  (** ack until every replica holds its serial *)
  converged : bool;
  recovered_ok : bool;
  recover_detail : string;
  updates_applied : int;
  qps : float * float * float;  (** public BIND, meta primary, mean meta replica *)
  digest : string;
  wal_bytes : int;
}

let string_ty = Hns.Meta_schema.string_ty

(* Step set-up, inside the step's own engine drive (the replica fleet
   must attach and detach within one): start the replicas, then let each
   writer learn the fleet and its write floor with one write and read. *)
let attach_and_warm ~k d =
  setup (fun () ->
      let secs = S.attach_meta_replicas d.scn in
      Array.iteri
        (fun w mc ->
          let key = Hns.Meta_schema.context_key (Printf.sprintf "s%d-warm%d" k w) in
          ignore (Hns.Meta_client.store mc ~key ~ty:string_ty (Wire.Value.str "warm"));
          ignore (Hns.Meta_client.lookup mc ~key ~ty:string_ty))
        d.writers;
      Sim.Engine.sleep 2_000.0;
      secs)

let storm_step ~seed ~k ~rate ~duration_ms d =
  let scn = d.scn in
  let primary_serial () = Dns.Zone.serial scn.meta_zone in
  let rng = Sim.Rng.create ~seed:(Int64.of_int ((seed * 1009) + k)) in
  let times = O.schedule (O.Poisson { rate_per_s = rate }) ~rng ~duration_ms in
  let times_a = Array.of_list times in
  let who = Array.map (fun _ -> Sim.Rng.int rng writer_hosts) times_a in
  let key i = Hns.Meta_schema.context_key (Printf.sprintf "s%d-u%d" k i) in
  let value i = Wire.Value.str (Printf.sprintf "v%d.%d.%d" seed k i) in
  let acked_keys = ref [] in
  let queries () =
    ( Dns.Server.queries_served scn.public_bind,
      Dns.Server.queries_served scn.meta_bind,
      List.fold_left (fun acc s -> acc + Dns.Server.queries_served s) 0 scn.meta_replica_servers )
  in
  let qps = ref (0.0, 0.0, 0.0) in
  let updates0 = Dns.Server.updates_applied scn.meta_bind in
  let acks = ref [] and acked = ref 0 and within = ref 0 in
  let stale = ref 0 and read_errors = ref 0 and converge = ref [] in
  let converged =
    S.in_sim scn (fun () ->
        let secs = attach_and_warm ~k d in
        let stop_collector = start_span_collector () in
        let slowest_replica () =
          List.fold_left
            (fun acc s ->
              let v = Dns.Secondary.serial s in
              if Int32.compare v acc < 0 then v else acc)
            Int32.max_int secs
        in
        let converged =
          measured (fun () ->
              (* Convergence watcher: while acks are pending it wakes on a
                 fixed virtual-time grid and settles every ack the slowest
                 replica has reached; otherwise it waits for the next. *)
              let pending = ref [] and driving = ref true in
              let kick = Sim.Engine.Mailbox.create () in
              let watcher_done = Sim.Engine.Ivar.create () in
              Sim.Engine.spawn_child ~name:"perfbench.converge" (fun () ->
                  while !driving || !pending <> [] do
                    if !pending = [] then Sim.Engine.Mailbox.recv kick
                    else begin
                      let now = Sim.Engine.time () in
                      Sim.Engine.sleep
                        ((Float.of_int (truncate (now /. converge_tick_ms) + 1)
                         *. converge_tick_ms)
                        -. now);
                      let floor = slowest_replica () and now = Sim.Engine.time () in
                      pending :=
                        List.filter
                          (fun (serial, at) ->
                            if Int32.compare floor serial >= 0 then begin
                              converge := (now -. at) :: !converge;
                              false
                            end
                            else true)
                          !pending
                    end
                  done;
                  Sim.Engine.Ivar.fill watcher_done ());
              let q0_bind, q0_meta, q0_rep = queries () in
              let t0 = Sim.Engine.time () in
              let submit i =
                let mc = d.writers.(who.(i)) in
                let key = key i and v = value i in
                match
                  bench_span "bench.meta_store" (fun () ->
                      Hns.Meta_client.store mc ~key ~ty:string_ty v)
                with
                | Error _ -> false
                | Ok () ->
                    let now = Sim.Engine.time () in
                    let lat = now -. (t0 +. times_a.(i)) in
                    acks := lat :: !acks;
                    incr acked;
                    if lat <= limit_ms then incr within;
                    acked_keys := (key, v) :: !acked_keys;
                    let serial =
                      Option.value (Hns.Meta_client.write_floor mc key)
                        ~default:(primary_serial ())
                    in
                    if !pending = [] then Sim.Engine.Mailbox.send kick ();
                    pending := (serial, now) :: !pending;
                    (* The cold read-your-writes read of the own key. *)
                    Hns.Cache.flush (Hns.Meta_client.cache mc);
                    (match
                       bench_span "bench.meta_lookup" (fun () ->
                           Hns.Meta_client.lookup mc ~key ~ty:string_ty)
                     with
                    | Ok (Some got) when Wire.Value.get_str got = Wire.Value.get_str v -> ()
                    | Ok _ -> incr stale
                    | Error _ -> incr read_errors);
                    true
              in
              ignore (O.drive ~times ~submit ());
              let elapsed_s = (Sim.Engine.time () -. t0) /. 1000.0 in
              let q1_bind, q1_meta, q1_rep = queries () in
              qps :=
                ( float_of_int (q1_bind - q0_bind) /. elapsed_s,
                  float_of_int (q1_meta - q0_meta) /. elapsed_s,
                  float_of_int (q1_rep - q0_rep)
                  /. float_of_int (max 1 (List.length secs))
                  /. elapsed_s );
              driving := false;
              Sim.Engine.Mailbox.send kick ();
              (* Drain: every replica catches up with the primary. *)
              let converged =
                bench_span "bench.converge_wait" (fun () ->
                    let deadline = Sim.Engine.time () +. drain_backstop_ms in
                    let rec wait () =
                      if Int32.equal (slowest_replica ()) (primary_serial ()) then true
                      else if Sim.Engine.time () > deadline then false
                      else begin
                        Sim.Engine.sleep converge_tick_ms;
                        wait ()
                      end
                    in
                    wait ())
              in
              (* A replica that never caught up leaves acks pending for
                 good; drop them so the watcher ends and the check can
                 report the failure. *)
              if not converged then pending := [];
              Sim.Engine.Ivar.read watcher_done;
              converged)
        in
        S.detach_meta_replicas scn secs;
        stop_collector ();
        converged)
  in
  drain_spans ~quiescent:true ();
  (* Power loss, then recovery from the disk image alone. *)
  let live = primary_serial () in
  Store.Disk.crash d.disk;
  let recovered_ok, recover_detail =
    S.in_sim scn (fun () ->
        match bench_span "bench.durable_recover" (fun () -> Dns.Durable.recover d.disk) with
        | None -> (false, "no snapshot on disk")
        | Some r ->
            let db = Dns.Zone.db r.zone in
            let present (key, v) =
              let rdata = Dns.Rr.Unspec (Wire.Xdr.to_string string_ty v) in
              List.exists
                (fun (rr : Dns.Rr.t) -> Dns.Rr.equal_rdata rr.rdata rdata)
                (Dns.Db.lookup db key Dns.Rr.T_unspec)
            in
            let missing = List.filter (fun kv -> not (present kv)) !acked_keys in
            let serial = Dns.Zone.serial r.zone in
            ( Int32.equal serial live && missing = [],
              Printf.sprintf "%g/s: recovered serial %ld (live %ld), %d of %d acked keys missing"
                rate serial live (List.length missing) (List.length !acked_keys) ))
  in
  drain_spans ~quiescent:true ();
  {
    rate;
    acks = !acks;
    attempted_w = Array.length times_a;
    acked = !acked;
    acked_within = !within;
    stale = !stale;
    read_errors = !read_errors;
    converge = !converge;
    converged;
    recovered_ok;
    recover_detail;
    updates_applied = Dns.Server.updates_applied scn.meta_bind - updates0;
    qps = !qps;
    digest = O.schedule_digest times;
    wal_bytes = Store.Wal.bytes (Dns.Durable.wal d.durable);
  }

let write_storm ~seed =
  let deploys = setup (fun () -> List.mapi (fun k _ -> deploy k) write_steps) in
  if !setup_only then begin
    List.iteri
      (fun k d -> S.in_sim d.scn (fun () -> S.detach_meta_replicas d.scn (attach_and_warm ~k d)))
      deploys;
    end_of_setup ()
  end;
  let first = snap () in
  let steps =
    List.mapi
      (fun k ((rate, duration_ms), d) ->
        let a = snap () in
        let st = storm_step ~seed ~k ~rate ~duration_ms d in
        let b = snap () in
        let tag = step_tags.(k) in
        let bind_qps, meta_qps, rep_qps = st.qps in
        ( st,
          step_layers ~tag a b ~wal_bytes:(float_of_int st.wal_bytes)
          @ [
              ("obs.slo_window_n." ^ tag, slo_window_n ());
              ("dns.public_bind_qps." ^ tag, bind_qps);
              ("dns.meta_primary_qps." ^ tag, meta_qps);
              ("dns.meta_replica_qps." ^ tag, rep_qps);
            ] ))
      (List.combine write_steps deploys)
  in
  let last = snap () in
  let sts = List.map fst steps in
  let share st = ratio (float_of_int st.acked_within) (float_of_int st.attempted_w) in
  let s1 = List.hd sts in
  let top = List.length sts - 1 in
  let top_st = List.nth sts top in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 sts in
  let attempted = sum (fun st -> st.attempted_w) in
  let acked = sum (fun st -> st.acked) in
  let stale = sum (fun st -> st.stale) in
  let below_top f = List.filteri (fun i _ -> i < top) sts |> List.fold_left (fun acc st -> acc + f st) 0 in
  let failed_below_top = below_top (fun st -> st.attempted_w - st.acked) in
  let read_errors_below_top = below_top (fun st -> st.read_errors) in
  let conv = s1.converge in
  let detail =
    List.concat_map
      (fun st ->
        let tag = Printf.sprintf "storm%g" st.rate in
        dist (tag ^ ".update_ack") st.acks
        @ [
            m ~n:st.attempted_w (tag ^ ".failed_updates") "count"
              (float_of_int (st.attempted_w - st.acked));
            m ~n:st.acked (tag ^ ".failed_reads") "count" (float_of_int st.read_errors);
            m ~n:st.attempted_w (tag ^ ".good_share") "ratio" (share st);
          ])
      sts
    @ dist (Printf.sprintf "storm%g.converge" s1.rate) conv
    @ [
        m ~n:top_st.attempted_w "overload_good_fraction" "ratio" (share top_st);
        m ~n:attempted "error_fraction" "ratio"
          (ratio (float_of_int (attempted - acked)) (float_of_int attempted));
        m ~n:acked "stale_reads" "count" (float_of_int stale);
      ]
  in
  let all_ok f = List.for_all f sts in
  {
    attempted = attempted + acked;
    failed =
      failed_below_top + stale + read_errors_below_top
      + List.length (List.filter (fun st -> not (st.converged && st.recovered_ok)) sts);
    checks =
      [
        ( "no acked update read back stale",
          stale = 0,
          Printf.sprintf "%d stale of %d reads" stale acked );
        ( "no update or read-back failed below the top step",
          failed_below_top = 0 && read_errors_below_top = 0,
          Printf.sprintf "%d updates, %d reads failed" failed_below_top read_errors_below_top );
        ( "every replica caught up with the primary after the drain",
          all_ok (fun st -> st.converged),
          String.concat "; " (List.map (fun st -> Printf.sprintf "%g/s %b" st.rate st.converged) sts) );
        ( "recovery after a crash keeps the live serial and every acked key",
          all_ok (fun st -> st.recovered_ok),
          String.concat "; " (List.map (fun st -> st.recover_detail) sts) );
        p99_check ~what:"acked updates in the first step" (List.length s1.acks);
      ];
    headline =
      headline ~samples:s1.acks
        ~good:(ratio (float_of_int (sum (fun st -> st.acked_within))) (float_of_int attempted))
        ~attempted
        ~capacity:(knee (List.map (fun st -> (st.rate, share st)) sts))
        ~capacity_n:(List.length sts);
    detail;
    digests = List.map (fun st -> Printf.sprintf "storm%g:%s" st.rate st.digest) sts;
    layers =
      phase_layers first last
      @ List.concat_map snd steps
      @ [
          ( "dns.update_amplification",
            ratio (float_of_int (sum (fun st -> st.updates_applied))) (float_of_int acked) );
          ("dns.converge_p99_ms", percentile conv 99.0);
        ];
    events =
      List.fold_left (fun acc d -> acc + Sim.Engine.events_executed d.scn.S.engine) 0 deploys;
  }

(* --- output ---------------------------------------------------------- *)

let metric_json mt =
  J.Obj [ ("value", J.Num mt.value); ("unit", J.Str mt.unit_); ("n", J.Num (float_of_int mt.n)) ]

let metrics_json ms = J.Obj (List.map (fun mt -> (mt.name, metric_json mt)) ms)
let floats_json kvs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) kvs)

(* A string: the JSON printer keeps 12 significant digits, too few for
   an absolute time. *)
let process_start_json () = J.Str (Printf.sprintf "%.6f" process_start)

let result_json ~workload ~seed ~trace r =
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0)
  in
  let events = float_of_int r.events in
  let histogram_samples =
    List.fold_left
      (fun acc (_, sample) ->
        match sample with M.Summary { n; _ } -> acc + n | _ -> acc)
      0 (M.snapshot ())
  in
  let layers =
    r.layers
    @ [
        ("obs.histogram_samples", float_of_int histogram_samples);
        ("sim.events", events);
        ("sim.host_ns_per_event", 1e9 *. ratio !wall_s events);
        ("sim.minor_words_per_event", ratio !minor_words events);
        ("sim.major_gcs", float_of_int !major_gcs);
      ]
  in
  let span_rows =
    if not !tracing then []
    else
      List.map
        (fun (name, (n, total, self)) ->
          J.Obj
            [
              ("name", J.Str name);
              ("count", J.Num (float_of_int n));
              ("total_virtual_ms", J.Num total);
              ("self_virtual_ms", J.Num self);
              ( "host_s",
                J.Num (Option.value (Hashtbl.find_opt host_by_span name) ~default:0.0) );
            ])
        (span_table ())
  in
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.Num (float_of_int seed));
      ("trace", J.Num (float_of_int trace));
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "checks",
        J.List
          (List.map
             (fun (name, ok, detail) ->
               J.Obj [ ("name", J.Str name); ("ok", J.Bool ok); ("detail", J.Str detail) ])
             r.checks) );
      ("headline", metrics_json r.headline);
      ("detail", metrics_json r.detail);
      ("digests", J.List (List.map (fun d -> J.Str d) r.digests));
      ( "host",
        floats_json
          [
            ("wall_s", !wall_s);
            ("setup_in_process_s", !setup_s);
            ("peak_heap_mb", top_heap_mb);
          ] );
      ("process_start", process_start_json ());
      ("layers", floats_json layers);
      ("spans", J.List span_rows);
      ("spans_lost", J.Num (float_of_int !spans_lost));
    ]

let () =
  let usage =
    "main.exe (read_ladder|cold_import|write_storm) --seed N [--trace 0|1] [--setup-only]"
  in
  let workload = ref "" and seed = ref (-1) and trace = ref 0 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 enable span tracing and the flight recorder");
      ("--setup-only", Arg.Set setup_only, " run the set-up, report its time and stop");
    ]
    (fun w -> workload := w)
    usage;
  if !seed < 0 then begin
    prerr_endline usage;
    exit 2
  end;
  if !trace = 1 then begin
    tracing := true;
    Obs.Span.enable ();
    Obs.Qlog.enable ()
  end;
  let run =
    match !workload with
    | "read_ladder" -> read_ladder
    | "cold_import" -> cold_import
    | "write_storm" -> write_storm
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "; " ^ usage);
        exit 2
  in
  let out =
    match run ~seed:!seed with
    | exception Setup_done ->
        J.Obj
          [
            ("process_start", process_start_json ());
            ("host", floats_json [ ("setup_in_process_s", !setup_s) ]);
          ]
    | r -> result_json ~workload:!workload ~seed:!seed ~trace:!trace r
  in
  print_endline (J.to_string out)
