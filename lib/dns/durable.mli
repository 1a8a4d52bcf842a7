(** Durable log-structured meta-store for a zone.

    The 1987 modified BIND kept the HNS meta-zone in memory and paid a
    full zone reload on restart. This layer gives a primary crash
    recovery at delta granularity over the simulated {!Store.Disk}:

    - every serial transition (dynamic update or replica catch-up) is
      spilled to a {!Store.Wal} {e before} the zone applies it, and so
      before the update is acknowledged — the delta hook
      ({!Zone.add_delta_hook}) returns only when the WAL's group commit
      has made the record durable;
    - the on-disk delta format {e is} the IXFR wire discipline: a DNS
      message whose authority carries the from-serial SOA and whose
      answers are [new-SOA · changes · new-SOA], marshalled by
      {!Msg.encode} with name compression. Snapshots are an AXFR
      payload in the same dress;
    - checkpoints cost amortised O(1) per update and stay off the ack
      path. Once the delta bytes logged since the last checkpoint
      reach [max (last image size) segment_bytes], the hook that
      fired the trigger spawns a [durable.checkpoint] fiber and
      returns. That fiber takes the zone image and seals the WAL in
      one instant (the cut, at serial S), writes the image as a
      {!Store.Snapshot}, and once it is durable drops the sealed
      segments whole ({!Store.Wal.drop}): every record in them is at
      or below S. Appends never wait behind a checkpoint. Outside a
      simulated process the checkpoint runs synchronously. A
      checkpoint whose store was {!detach}ed, or whose disk crashed
      ({!Store.Disk.crashes}), after its cut writes and deletes
      nothing more;
    - {!recover} rebuilds a zone from snapshot + log tail. The
      recovered journal holds the replayed deltas, so a restarted
      primary resumes serving IXFR from its last durable serial
      instead of forcing every replica through a full transfer. *)

type config = {
  base : string;  (** file-name prefix on the disk *)
  group_window_ms : float;  (** WAL group-commit window *)
  segment_bytes : int;
      (** WAL segment size; also the least log a checkpoint waits for *)
}

(** [{base = "zone"; group_window_ms = 2.0; segment_bytes = 64 KiB}] *)
val default_config : config

type t

(** [attach ?config disk zone] — starts spilling [zone]'s deltas to
    [disk]. Writes a bootstrap snapshot if the disk holds no image
    that verifies, so {!recover} always has a base image. Otherwise
    the newest image that verifies — the one {!recover} loads, never a
    newer torn or unsynced file — becomes the store's snapshot: its
    serial bounds {!compact} and its size seeds the checkpoint
    trigger.

    The hook runs before the zone applies the delta
    ({!Zone.apply_delta}, the path of [Server] updates and replica
    catch-up), and the checkpoint fiber it spawns takes its cut only
    after that apply, since nothing yields in between. A delta logged
    ahead of the zone's serial ({!Zone.record_delta}, or a synchronous
    checkpoint outside a process) keeps the sealed segments of the
    checkpoints cut before the zone catches up.

    Attach at most one store per zone at a time: each [attach]
    registers its own delta hook, so two live attachments would spill
    every delta twice. {!detach} the old store before attaching a
    replacement (e.g. when re-attaching after {!recover}). *)
val attach : ?config:config -> Store.Disk.t -> Zone.t -> t

(** Stop spilling: unregister this store's delta hook from the zone.
    Idempotent. The on-disk image stays valid for {!recover}. *)
val detach : t -> unit

(** Checkpoint now, in the caller: snapshot the zone image and drop
    the WAL segments it covers. Waits for a running checkpoint or
    compaction first. Outside a simulated process it cannot wait: a
    checkpoint left suspended by a run that stopped is abandoned
    instead (it writes and deletes nothing more, even if its engine
    runs again). A compaction suspended that way must be finished by
    running its engine. *)
val snapshot : t -> unit

(** Key-coalescing compaction: fold the WAL's deltas above the last
    durable snapshot's serial into a single delta with one surviving
    operation per (name, rdata) — last-op-wins, deletions ordered
    before puts — and return the bytes-before/after ratio. Deltas the
    snapshot covers are dropped. Recovery over the compacted log
    reaches the same zone state. Waits for a running checkpoint
    first, or abandons it outside a process, as {!snapshot} does. *)
val compact : t -> float

val zone : t -> Zone.t
val wal : t -> Store.Wal.t
val disk : t -> Store.Disk.t

(** Serial of this store's newest durable snapshot. *)
val last_snapshot_serial : t -> int32

val persisted_deltas : t -> int

(** What {!recover} rebuilt, with its provenance. *)
type recovery = {
  zone : Zone.t;
  snapshot_serial : int32;  (** serial of the snapshot restored *)
  replayed_deltas : int;  (** WAL deltas applied on top *)
  skipped_deltas : int;  (** WAL deltas the snapshot already covered *)
  gap_deltas : int;
      (** WAL deltas past a missing one: neither covered nor next in
          line, so not replayed ([dns.durable.gap_deltas]) *)
  torn_tail : bool;  (** replay stopped at a torn/corrupt record *)
  recovery_ms : float;  (** virtual ms spent reading the disk *)
}

(** [recover ?config disk] — rebuild the zone from the newest intact
    snapshot plus the WAL tail. [None] when the disk holds no
    decodable snapshot. The recovered zone's journal contains the
    replayed deltas (it serves IXFR from the snapshot serial up);
    re-[attach] it to resume spilling. *)
val recover : ?config:config -> Store.Disk.t -> recovery option

(** {1 Codecs (exposed for tests)} *)

val encode_delta : origin:Name.t -> Journal.delta -> string
val decode_delta : string -> Journal.delta option
val encode_snapshot : Zone.t -> string
val decode_snapshot : string -> (Name.t * Rr.soa * Rr.t list) option
