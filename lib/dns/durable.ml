type config = { base : string; group_window_ms : float; segment_bytes : int }

let default_config = { base = "zone"; group_window_ms = 2.0; segment_bytes = 64 * 1024 }

type t = {
  config : config;
  zone : Zone.t;
  wal : Store.Wal.t;
  disk : Store.Disk.t;
  mutable since_bytes : int; (* delta bytes logged since the last cut *)
  mutable image_bytes : int; (* size of the last snapshot image *)
  mutable logged : int32; (* highest to-serial handed to the WAL *)
  mutable snap_serial : int32;
  mutable persisted : int;
  mutable busy : unit Sim.Engine.Ivar.ivar option;
      (* a checkpoint or a compaction is running; they take turns *)
  mutable epoch : int; (* bumped to abandon a suspended checkpoint *)
  mutable hook : Zone.hook option; (* None once detached *)
  mutable attached : bool;
}

let m_persisted = Obs.Metrics.counter "dns.durable.persisted_deltas"
let m_snapshots = Obs.Metrics.counter "dns.durable.snapshots"
let m_recoveries = Obs.Metrics.counter "dns.durable.recoveries"
let m_replayed = Obs.Metrics.counter "dns.durable.replayed_deltas"
let m_skipped = Obs.Metrics.counter "dns.durable.skipped_deltas"
let m_gaps = Obs.Metrics.counter "dns.durable.gap_deltas"
let m_recovery_ms = Obs.Metrics.histogram "dns.durable.recovery_ms"

let now_ms () = try Sim.Engine.time () with Effect.Unhandled _ -> 0.0

(* --- codecs --------------------------------------------------------- *)

(* Only the serial field of these SOAs is meaningful — exactly the
   convention the IXFR request's authority section uses. *)
let serial_soa origin serial =
  Rr.make origin
    (Rr.Soa
       {
         Rr.mname = origin;
         rname = origin;
         serial;
         refresh = 0l;
         retry = 0l;
         expire = 0l;
         minimum = 0l;
       })

let encode_delta ~origin (d : Journal.delta) =
  let to_soa = serial_soa origin d.Journal.to_serial in
  let msg =
    {
      (Msg.query ~id:0 origin Rr.T_ixfr) with
      Msg.recursion_desired = false;
      authority = [ serial_soa origin d.Journal.from_serial ];
      answers =
        (to_soa :: List.map Ixfr.rr_of_change d.Journal.changes) @ [ to_soa ];
    }
  in
  Msg.encode msg

let decode_delta payload =
  match Msg.decode payload with
  | exception Msg.Bad_message _ -> None
  | msg -> (
      match Ixfr.request_serial msg with
      | None -> None
      | Some from_serial -> (
          match Ixfr.parse_answers msg.Msg.answers with
          | Ok (Ixfr.Deltas (soa, changes)) ->
              Some { Journal.from_serial; to_serial = soa.Rr.serial; changes }
          | Ok (Ixfr.Unchanged soa) ->
              Some { Journal.from_serial; to_serial = soa.Rr.serial; changes = [] }
          | Ok (Ixfr.Full _) | Error _ -> None))

let encode_snapshot zone =
  let msg =
    {
      (Msg.query ~id:0 (Zone.origin zone) Rr.T_axfr) with
      Msg.recursion_desired = false;
      answers = Zone.axfr_records zone;
    }
  in
  Msg.encode msg

let decode_snapshot payload =
  match Msg.decode payload with
  | exception Msg.Bad_message _ -> None
  | msg -> (
      match (msg.Msg.questions, msg.Msg.answers) with
      | [ { Msg.qname = origin; _ } ], { Rr.rdata = Rr.Soa soa; _ } :: records
        ->
          Some (origin, soa, records)
      | _ -> None)

(* --- checkpointing -------------------------------------------------- *)

(* Run [f] once no other checkpoint or compaction is running. Outside a
   simulated process there is nothing to wait on: whatever is running
   is a fiber suspended by a run that stopped. A checkpoint suspended
   that way is abandoned — its fence fails, so it writes and deletes
   nothing more. *)
let rec exclusive t f =
  match t.busy with
  | None -> locked t (Sim.Engine.Ivar.create ()) f
  | Some iv -> (
      match Sim.Engine.Ivar.read iv with
      | () -> exclusive t f
      | exception Effect.Unhandled _ ->
          t.epoch <- t.epoch + 1;
          locked t (Sim.Engine.Ivar.create ()) f)

and locked t iv f =
  t.busy <- Some iv;
  Fun.protect
    ~finally:(fun () ->
      (* An abandoned checkpoint must not end its successor's turn. *)
      (match t.busy with Some b when b == iv -> t.busy <- None | _ -> ());
      Sim.Engine.Ivar.fill iv ())
    f

let checkpoint t =
  (* The cut: the image, its serial and the sealed segments are taken
     in one instant, before the first yield. The hook that spawned this
     fiber returned before the zone applied its delta, and nothing
     yields in between ({!Zone.apply_delta}), so by now the zone holds
     every delta its hooks have seen and the image covers every record
     in the sealed segments — unless a caller logged a delta ahead of
     the zone's serial, or the checkpoint ran synchronously inside the
     hook (outside a process), in which case the segments stay for
     recovery to replay. *)
  let serial = Zone.serial t.zone in
  let image = encode_snapshot t.zone in
  let sealed = Store.Wal.seal t.wal in
  let covered = Int32.compare t.logged serial <= 0 in
  t.since_bytes <- 0;
  t.image_bytes <- String.length image;
  (* The fence: once the store is detached, its disk has lost power or
     the checkpoint was abandoned, it belongs to a dead process and must
     not write into the image a recovery reads. *)
  let crashes = Store.Disk.crashes t.disk and epoch = t.epoch in
  let live () =
    t.attached && Store.Disk.crashes t.disk = crashes && t.epoch = epoch
  in
  Store.Snapshot.save ~base:t.config.base ~live t.disk ~serial image;
  if live () then begin
    t.snap_serial <- serial;
    Obs.Metrics.incr m_snapshots;
    (* The snapshot is durable and subsumes the sealed segments: prune
       them whole, without rewriting the log. *)
    if covered then Store.Wal.drop t.wal sealed
  end

let snapshot t = exclusive t (fun () -> checkpoint t)

(* Off the ack path: the checkpoint runs in its own fiber and the
   appender that fired the trigger returns at once. *)
let checkpoint_in_background t =
  let iv = Sim.Engine.Ivar.create () in
  t.busy <- Some iv;
  let run () = locked t iv (fun () -> checkpoint t) in
  match Sim.Engine.spawn_child ~name:"durable.checkpoint" run with
  | () -> ()
  | exception Effect.Unhandled _ -> run ()

let zone t = t.zone
let wal t = t.wal
let disk t = t.disk
let last_snapshot_serial t = t.snap_serial
let persisted_deltas t = t.persisted

let attach ?(config = default_config) disk zone =
  let wal =
    Store.Wal.create ~base:config.base ~group_window_ms:config.group_window_ms
      ~segment_bytes:config.segment_bytes disk
  in
  let t =
    {
      config;
      zone;
      wal;
      disk;
      since_bytes = 0;
      image_bytes = 0;
      logged = Zone.serial zone;
      snap_serial = Int32.minus_one;
      persisted = 0;
      busy = None;
      epoch = 0;
      hook = None;
      attached = true;
    }
  in
  (* Only an image that verifies is the store's snapshot: a newer file
     may be one a crash tore, or one a fence stopped before its fsync.
     [compact] drops the deltas at or below [snap_serial], so trusting
     such a file would lose the deltas between it and the image that
     recovery actually loads. *)
  (match Store.Snapshot.latest_intact ~base:config.base disk with
  | None -> snapshot t (* bootstrap: recovery always has a base image *)
  | Some (serial, bytes) ->
      t.snap_serial <- serial;
      t.image_bytes <- bytes;
      (* Log hygiene: a torn tail left by the crash would swallow every
         record appended after it (replay stops at the first bad
         frame). Rewrite the intact prefix onto fresh segments before
         accepting new appends. *)
      let rep = Store.Wal.replay ~base:config.base disk in
      if rep.Store.Wal.torn_tail then
        ignore (Store.Wal.compact wal ~coalesce:(fun records -> records)));
  t.hook <-
    Some
      (Zone.add_delta_hook zone (fun d ->
           if Int32.compare d.Journal.to_serial t.logged > 0 then
             t.logged <- d.Journal.to_serial;
           let payload = encode_delta ~origin:(Zone.origin zone) d in
           (* Blocks through the WAL group commit: the delta is durable
              before the zone applies it, and so before any ack. *)
           Store.Wal.append wal payload;
           t.persisted <- t.persisted + 1;
           Obs.Metrics.incr m_persisted;
           (* Checkpoint once the log since the last one outgrows the
              image (or one segment, for small zones): snapshot bytes
              per delta stay bounded, and recovery replays at most
              about one image's worth of log. *)
           t.since_bytes <- t.since_bytes + String.length payload;
           if
             t.busy = None
             && t.since_bytes >= max t.image_bytes config.segment_bytes
           then checkpoint_in_background t));
  t

let detach t =
  t.attached <- false;
  match t.hook with
  | None -> ()
  | Some h ->
      t.hook <- None;
      Zone.remove_delta_hook t.zone h

(* --- compaction ----------------------------------------------------- *)

let change_key c =
  let rr = match c with Journal.Put rr | Journal.Del rr -> rr in
  ( Name.to_string rr.Rr.name,
    Format.asprintf "%a" Rr.pp_rdata rr.Rr.rdata )

let coalesce_deltas ~origin ~above payloads =
  (* Deltas at or below the durable snapshot's serial are redundant;
     folding them in would make the result straddle that serial, and
     recovery could not replay it. *)
  let deltas =
    List.filter
      (fun d -> Int32.compare d.Journal.to_serial above > 0)
      (List.filter_map decode_delta payloads)
  in
  match deltas with
  | [] -> []
  | first :: _ ->
      let last = List.nth deltas (List.length deltas - 1) in
      (* Last op per (name, rdata) decides that record's fate; one op
         per key survives. Deletions are replayed before puts and each
         class is sorted, so the compacted delta is deterministic. *)
      let tbl = Hashtbl.create 64 in
      List.iteri
        (fun i c -> Hashtbl.replace tbl (change_key c) (i, c))
        (List.concat_map (fun d -> d.Journal.changes) deltas);
      let survivors = Hashtbl.fold (fun k (_, c) acc -> (k, c) :: acc) tbl [] in
      let dels, puts =
        List.partition
          (fun (_, c) -> match c with Journal.Del _ -> true | _ -> false)
          survivors
      in
      let by_key = List.sort (fun (a, _) (b, _) -> compare a b) in
      let changes = List.map snd (by_key dels @ by_key puts) in
      [
        encode_delta ~origin
          {
            Journal.from_serial = first.Journal.from_serial;
            to_serial = last.Journal.to_serial;
            changes;
          };
      ]

let compact t =
  exclusive t (fun () ->
      Store.Wal.compact t.wal
        ~coalesce:(coalesce_deltas ~origin:(Zone.origin t.zone) ~above:t.snap_serial))

(* --- recovery ------------------------------------------------------- *)

type recovery = {
  zone : Zone.t;
  snapshot_serial : int32;
  replayed_deltas : int;
  skipped_deltas : int;
  gap_deltas : int;
  torn_tail : bool;
  recovery_ms : float;
}

let recover ?(config = default_config) disk =
  let t0 = now_ms () in
  match Store.Snapshot.load_latest ~base:config.base disk with
  | None -> None
  | Some (snap_serial, payload) -> (
      match decode_snapshot payload with
      | None -> None
      | Some (origin, soa, records) ->
          let zone = Zone.create ~origin ~soa records in
          let replay = Store.Wal.replay ~base:config.base disk in
          let replayed = ref 0 and skipped = ref 0 and gaps = ref 0 in
          List.iter
            (fun p ->
              match decode_delta p with
              | None -> ()
              | Some d ->
                  if Int32.compare d.Journal.to_serial (Zone.serial zone) <= 0
                  then begin
                    (* Covered by the snapshot (pruning is lazy). *)
                    incr skipped;
                    Obs.Metrics.incr m_skipped
                  end
                  else if Int32.equal d.Journal.from_serial (Zone.serial zone)
                  then begin
                    (* Re-journalled by [apply_delta], so the restarted
                       primary serves IXFR from the snapshot serial up. *)
                    Zone.apply_delta zone d;
                    incr replayed;
                    Obs.Metrics.incr m_replayed
                  end
                  else begin
                    (* Neither covered nor next in line: a delta is
                       missing before this one. *)
                    incr gaps;
                    Obs.Metrics.incr m_gaps
                  end)
            replay.Store.Wal.records;
          Obs.Metrics.incr m_recoveries;
          let ms = now_ms () -. t0 in
          Obs.Metrics.observe m_recovery_ms ms;
          Some
            {
              zone;
              snapshot_serial = snap_serial;
              replayed_deltas = !replayed;
              skipped_deltas = !skipped;
              gap_deltas = !gaps;
              torn_tail = replay.Store.Wal.torn_tail;
              recovery_ms = ms;
            })
