(** A zone: an origin, its SOA, and the records below it.

    The HNS meta-BIND serves a single flat zone ([hns-meta.]); the
    public BIND serves ordinary host zones ([cs.washington.edu.]). *)

type t

(** [create ~origin ~soa records]. Every record must lie within the
    zone (raises [Invalid_argument] otherwise). An SOA record at the
    origin is synthesized from [soa]. [journal_deltas] /
    [journal_bytes] bound the zone's change journal (see
    {!Journal.create}). *)
val create :
  ?journal_deltas:int ->
  ?journal_bytes:int ->
  origin:Name.t ->
  soa:Rr.soa ->
  Rr.t list ->
  t

(** A zone with a boilerplate SOA, for tests and simple setups. *)
val simple : ?journal_deltas:int -> ?journal_bytes:int -> origin:Name.t -> Rr.t list -> t

val origin : t -> Name.t
val soa : t -> Rr.soa
val db : t -> Db.t

(** The zone's change journal, appended to by the dynamic-update path
    and read by the IXFR server. *)
val journal : t -> Journal.t

val serial : t -> int32

(** Adopt a primary's SOA verbatim (zone replication). *)
val set_soa : t -> Rr.soa -> unit

val in_zone : t -> Name.t -> bool

(** Handle to a registered delta hook, for {!remove_delta_hook}. *)
type hook

(** Register a delta hook. Hooks run in registration order on every
    serial transition — the dynamic-update lane's and a replica's
    catch-up alike, both through {!apply_delta} — {e before} the
    transition is applied: the database, the serial and the journal
    still hold the state before the delta while a hook runs, and a
    hook may block. A durability layer ({!Durable}) spills each delta
    to its write-ahead log here, so the zone only moves once the delta
    is durable; the hook blocking is what gates the apply and the ack.
    Nothing yields between the last hook's return and the apply, so a
    fiber a hook spawns first runs with the zone at the delta's
    [to_serial]. *)
val add_delta_hook : t -> (Journal.delta -> unit) -> hook

(** Unregister a hook; a no-op if already removed. *)
val remove_delta_hook : t -> hook -> unit

(** {!add_delta_hook} for hooks that live as long as the zone. *)
val on_delta : t -> (Journal.delta -> unit) -> unit

(** Fire the delta hooks for a transition, then journal it, without
    touching the database or the serial: for callers that move the
    zone themselves, such as concurrent writers logging deltas ahead
    of the zone's serial (the durability spill bench). The update path
    uses {!apply_delta}. *)
val record_delta :
  t -> from_serial:int32 -> to_serial:int32 -> Journal.change list -> unit

(** The zone's SOA as a resource record at the origin. *)
val soa_rr : t -> Rr.t

(** Records for a zone transfer: SOA first, then all data records. *)
val axfr_records : t -> Rr.t list

(** Total record count including the SOA. *)
val count : t -> int

(** Commit one serial transition, write-ahead: run the delta hooks
    (which may block until the delta is durable), then replay the
    changes in order, adopt the delta's [to_serial] and journal the
    delta so the zone serves IXFR onwards. This is the one order for
    every writer: the primary's update lane ({!Server}) and a replica
    catching up. Raises [Invalid_argument] when the delta does not
    start at the zone's current serial. *)
val apply_delta : t -> Journal.delta -> unit
