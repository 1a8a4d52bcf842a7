(** Serial-stamped snapshot blobs over a simulated {!Disk}.

    Each {!save} writes one CRC-framed blob to its own file
    ([base.<serial>.snap]) and fsyncs it before pruning superseded
    snapshots, so there is always a whole snapshot on the medium: a
    crash mid-save tears the new file, its CRC fails, and
    {!load_latest} falls back to the previous one. *)

(** [save ?base ?keep ?live disk ~serial payload] — [live] (default:
    always) is consulted before each disk operation, and the save stops
    without touching the medium again once it returns [false]: the
    write, its fsync and the prune are each skipped. A file already at
    [serial] whose frame does not verify is replaced, not appended to. *)
val save :
  ?base:string ->
  ?keep:int ->
  ?live:(unit -> bool) ->
  Disk.t ->
  serial:int32 ->
  string ->
  unit

(** The newest snapshot whose frame verifies, with its serial.
    Charges disk reads (this is the recovery path). *)
val load_latest : ?base:string -> Disk.t -> (int32 * string) option

(** Serials of snapshots on the medium, newest first (unverified). *)
val on_disk : ?base:string -> Disk.t -> int32 list

(** Serial and durable framed size of the newest snapshot whose frame
    verifies — the one {!load_latest} returns. Free inspection. *)
val latest_intact : ?base:string -> Disk.t -> (int32 * int) option
