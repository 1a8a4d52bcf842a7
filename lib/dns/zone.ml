type hook = int

type t = {
  origin : Name.t;
  mutable soa : Rr.soa;
  db : Db.t;
  journal : Journal.t;
  mutable on_delta : (hook * (Journal.delta -> unit)) list;
  mutable next_hook : hook;
}

let in_zone_name origin name = Name.is_subdomain ~of_:origin name

let create ?journal_deltas ?journal_bytes ~origin ~soa records =
  let db = Db.create () in
  List.iter
    (fun (rr : Rr.t) ->
      if not (in_zone_name origin rr.name) then
        invalid_arg
          (Printf.sprintf "Zone.create: %s is outside zone %s"
             (Name.to_string rr.name) (Name.to_string origin));
      Db.add db rr)
    records;
  {
    origin;
    soa;
    db;
    journal =
      Journal.create ?max_deltas:journal_deltas ?max_bytes:journal_bytes ();
    on_delta = [];
    next_hook = 0;
  }

let simple ?journal_deltas ?journal_bytes ~origin records =
  let soa =
    {
      Rr.mname = Name.prepend "ns" origin;
      rname = Name.prepend "hostmaster" origin;
      serial = 1l;
      refresh = 3600l;
      retry = 600l;
      expire = 864000l;
      minimum = 3600l;
    }
  in
  create ?journal_deltas ?journal_bytes ~origin ~soa records

let origin t = t.origin
let soa t = t.soa
let db t = t.db
let journal t = t.journal
let serial t = t.soa.Rr.serial
let set_soa t soa = t.soa <- soa
let in_zone t name = in_zone_name t.origin name

let soa_rr t = Rr.make ~ttl:t.soa.Rr.minimum t.origin (Rr.Soa t.soa)

let axfr_records t = soa_rr t :: Db.all t.db
let count t = 1 + Db.count t.db

let add_delta_hook t f =
  let h = t.next_hook in
  t.next_hook <- h + 1;
  t.on_delta <- t.on_delta @ [ (h, f) ];
  h

let remove_delta_hook t h =
  t.on_delta <- List.filter (fun (h', _) -> h' <> h) t.on_delta

let on_delta t f = ignore (add_delta_hook t f)

let run_hooks t d = List.iter (fun (_, f) -> f d) t.on_delta

(* Write-ahead: the hooks see the delta first — a durability hook
   blocks here until it is on disk — and only then does anything in
   memory change, so neither a reader nor an IXFR client sees a
   transition that is not yet durable. *)
let record_delta t ~from_serial ~to_serial changes =
  run_hooks t { Journal.from_serial; to_serial; changes };
  Journal.record t.journal ~from_serial ~to_serial changes

let apply_delta t (d : Journal.delta) =
  if not (Int32.equal d.Journal.from_serial t.soa.Rr.serial) then
    invalid_arg
      (Printf.sprintf "Zone.apply_delta: delta starts at %ld, zone is at %ld"
         d.Journal.from_serial t.soa.Rr.serial);
  run_hooks t d;
  (* Nothing yields from here on: a fiber a hook spawned (a durable
     checkpoint) first runs with the zone at [to_serial]. *)
  Journal.apply_changes t.db d.Journal.changes;
  t.soa <- { t.soa with Rr.serial = d.Journal.to_serial };
  (* Journal the delta so this zone serves IXFR onwards. *)
  Journal.record t.journal ~from_serial:d.Journal.from_serial
    ~to_serial:d.Journal.to_serial d.Journal.changes
