(** The BIND name server.

    An authoritative server over one or more zones, answering queries
    on UDP and zone transfers on TCP, with two cost knobs that model
    the paper's measured behaviour: a per-query CPU charge (BIND kept
    everything in primary memory and did no authentication, hence its
    27 ms lookups versus the Clearinghouse's 156 ms) and a per-answer
    marshalling charge (the hand-coded BIND routines at 0.65–2.6 ms
    per reply, Table 3.2's fast path).

    When [allow_update] is set this is the {e modified} BIND of
    [Schwartz 1987]: it accepts dynamic UPDATE messages and serves
    UNSPEC records, which is how the HNS stores its meta-naming
    information. The stock 1987 BIND refuses updates. An optional
    [update_acl] restricts updates to listed source hosts (refusing
    everyone else), the way the prototype's meta-BIND trusted only
    the administrative machines, over UDP and TCP alike.

    {2 Update semantics}

    Updates do not run on the query loop. The loop charges an UPDATE
    its [service_overhead_ms] like any request, queues it and returns
    to its socket; one committer fiber per server, the {e update
    lane}, spawned on the first update, commits what is queued:

    - {b One serial step per batch.} The lane takes everything queued
      as one batch, stages each request in order (the ACL, zone and
      occlusion checks and rcodes are per request, and a request sees
      its predecessors' effects), and commits each touched zone as a
      single journal delta: one serial step, one WAL group commit
      through the zone's delta hooks, one NOTIFY round.
    - {b Invisible until durable.} The staged records are rolled back
      before the lane first yields, and applied only once the zone's
      delta hooks — the write-ahead log, when a {!Durable} store is
      attached — have returned ({!Zone.apply_delta}). A query answered
      meanwhile sees the state before the batch, and is not held
      behind the disk sync.
    - {b Acked only once durable.} Every ack of a batch goes out after
      its step is applied, carrying the zone's new SOA. A batch in
      flight when its disk crashes is never acked provided the power
      loss also stops the server ({!stop}): a [Store.Wal.append] that
      straddles a [Store.Disk.crash] still returns, so a server left
      running would ack the lost batch.
    - {b A failed step answers its requests.} Each zone's step is fixed
      before the first hook yields. If the zone has moved by the time
      its step runs (another writer shares it), or a hook raises
      [Failure] or [Invalid_argument], that step commits nothing and
      its requests get [Serv_fail]; the rest of the batch is answered
      as usual.
    - {b At most once.} A wire update is keyed by its source address
      and request bytes. A retransmission that arrives while the
      original is in flight gets no answer of its own (the original's
      ack answers it); one that arrives after the ack gets the same
      ack again, with the same serial, and is not applied twice. A key
      is forgotten {!Rpc.Control.retry_budget_ms} of the default retry
      policy after its ack (or when the server restarts). *)

type t

(** [notify_strike_limit] (default 3) is the number of {e consecutive}
    unacknowledged NOTIFY pushes after which a subscriber is presumed
    dead and deregistered (counted in [dns.notify.deregistered]); any
    ack clears the count, and re-registering reinstates the target.
    [hot_ranking] selects the hot-name scoring behind {!hot_names} /
    {!hot_ranked}; the default is [Hotrank.Decayed] with a half-life
    of [hot_window_ms /. 2] (300 s with the default window), so a
    flash crowd cannot flush the steady working set out of the
    prefetch hints. Pass [Hotrank.Sliding_count] explicitly to get the
    naive windowed counter back (the A/B baseline the load harness
    measures against). [notify_fanout] (default 8) bounds how many
    NOTIFY pushes are in flight at once when a serial advance fans out
    to this server's subscribers, so one update cannot wake an
    unbounded number of simultaneous IXFR pulls at this tree level. *)
val create :
  Transport.Netstack.stack ->
  ?port:int ->
  ?service_overhead_ms:float ->
  ?per_answer_ms:float ->
  ?allow_update:bool ->
  ?update_acl:Transport.Address.ip list ->
  ?notify_strike_limit:int ->
  ?notify_fanout:int ->
  ?hot_window_ms:float ->
  ?hot_ranking:Hotrank.strategy ->
  unit ->
  t

val addr : t -> Transport.Address.t

(** The stack the server runs on (used by zone replication). *)
val stack : t -> Transport.Netstack.stack
val add_zone : t -> Zone.t -> unit
val zones : t -> Zone.t list

(** Install a query synthesizer: a hook consulted before the zone
    database on every question. Returning [Some rrs] answers the
    question with [rrs] (charged the usual per-answer marshalling);
    [None] falls through to the normal lookup. Used for server-side
    computed views over zone data — the HNS registers its
    [find_nsm_bundle] answerer here ({!Hns.Meta_bundle}), keeping this
    library independent of what is synthesized. One synthesizer per
    server; installing replaces the previous hook. *)
val set_synthesizer : t -> (Msg.question -> Rr.t list option) -> unit

val clear_synthesizer : t -> unit

(** {1 NOTIFY push}

    The modified BIND pushes an RFC 1996-style NOTIFY to each
    registered target whenever a dynamic update advances a zone
    serial, so secondaries and subscribed caches refresh immediately
    instead of waiting out their poll interval. Registration models
    BIND's [also-notify] configuration: whoever wires the deployment
    together registers the receivers. *)

val register_notify : t -> Transport.Address.t -> unit
val unregister_notify : t -> Transport.Address.t -> unit
val notify_targets : t -> Transport.Address.t list

(** Push [zone]'s current SOA to every registered target, at most
    [notify_fanout] in flight at a time, feeding ack outcomes to the
    subscriber liveness GC. The dynamic-update path calls this on
    every serial advance; a chained secondary calls it after an
    IXFR/AXFR pull moves its replica, cascading the wake-up one tree
    level at a time. *)
val notify_downstream : t -> zone:Zone.t -> unit

(** Called when {e this} server receives a NOTIFY (it is a secondary
    or subscriber). [serial] is the new serial from the pushed SOA
    when present. Handlers accumulate (one per attached secondary)
    and run on the server's service fiber — spawn if the reaction
    does real work. *)
val add_notify_handler :
  t -> (zone:Name.t -> serial:int32 option -> unit) -> unit

(** Spawn the UDP query loop and the TCP transfer loop. The update
    lane is spawned later, by the first update. *)
val start : t -> unit

val stop : t -> unit
val queries_served : t -> int
val updates_applied : t -> int

(** The [k] hottest names this server has answered A-record queries
    for, hottest first, with TTL-expired entries dropped and ties
    broken by {!Name.compare} — the ranking is fully deterministic.
    [group] restricts the ranking to one answering zone (the
    per-context view the bundle synthesizer's resolve-tail prefetch
    wants); omitted, groups are merged. Scores are {!Hotrank} scores:
    decayed hit mass under the default strategy, window counts under
    [Sliding_count]. *)
val hot_ranked :
  t -> ?group:string -> k:int -> unit -> (Name.t * float) list

(** {!hot_ranked} over all groups with scores rounded to counts —
    the backward-compatible candidate set for the bundle
    synthesizer's resolve-tail prefetch ({!Hns.Meta_bundle}). *)
val hot_names : t -> k:int -> (Name.t * int) list

(** The scoring strategy this server was created with. *)
val hot_ranking : t -> Hotrank.strategy

(** Record a sighting for [name] in the hot ranking as if the server
    had just answered an A query for it, grouped under the zone that
    owns the name. This is the hint keep-alive: a name shipped as a
    prefetch hint answers from agent caches and stops generating
    query sightings here, while un-hinted names keep earning a
    cache-refill sighting per agent per refresh cycle — so the bundle
    server re-notes each hint as it serves it, cancelling that
    handicap. [ttl_ms] bounds how long the sighting stays rankable
    without renewal (typically the hint row's TTL). *)
val note_hot_name : t -> ?ttl_ms:float -> Name.t -> unit

(** Handle a request message directly (used by tests and by
    colocated configurations that shortcut the network). Charges no
    simulated cost; when [src] is omitted the update ACL is waived
    (a local caller). An UPDATE goes through the update lane: inside a
    simulated process the caller queues it and waits for its batch's
    ack; outside one, it commits synchronously as a batch of one (and
    gets [Serv_fail] if a batch that a stopped run left suspended is
    still in flight on its zone). *)
val handle : ?src:Transport.Address.t -> t -> Msg.t -> Msg.t

(** The delegation covering [qname], if this server's zone data
    places it at or below a zone cut: the NS rrset at the cut and any
    glue A records. Lets layered answerers (the HNS bundle
    synthesizer) distinguish "delegated elsewhere" from "absent". *)
val delegation_for : t -> Name.t -> (Rr.t list * Rr.t list) option
