let m_saves = Obs.Metrics.counter "store.snapshot.saves"
let m_loads = Obs.Metrics.counter "store.snapshot.loads"
let m_corrupt = Obs.Metrics.counter "store.snapshot.corrupt_skipped"
let m_bytes = Obs.Metrics.gauge "store.snapshot.bytes"

let snap_file base serial = Printf.sprintf "%s.%010ld.snap" base serial

let frame payload =
  let wr = Wire.Bytebuf.Wr.create ~initial:(String.length payload + 8) () in
  Wire.Bytebuf.Wr.u32 wr (Int32.of_int (String.length payload));
  Wire.Bytebuf.Wr.u32 wr (Wal.crc32 payload);
  Wire.Bytebuf.Wr.bytes wr payload;
  Wire.Bytebuf.Wr.contents wr

let unframe data =
  match
    let rd = Wire.Bytebuf.Rd.of_string data in
    let len = Int32.to_int (Wire.Bytebuf.Rd.u32 rd) in
    if len < 0 || len > Wire.Bytebuf.Rd.remaining rd - 4 then None
    else
      let crc = Wire.Bytebuf.Rd.u32 rd in
      let payload = Wire.Bytebuf.Rd.bytes rd len in
      if Int32.equal (Wal.crc32 payload) crc then Some payload else None
  with
  | v -> v
  | exception Wire.Bytebuf.Truncated -> None

let snaps_on disk ~base =
  let prefix = base ^ "." and suffix = ".snap" in
  List.filter_map
    (fun f ->
      if
        String.length f > String.length prefix + String.length suffix
        && String.sub f 0 (String.length prefix) = prefix
        && String.sub f
             (String.length f - String.length suffix)
             (String.length suffix)
           = suffix
      then
        try
          Some
            ( Int32.of_string
                (String.sub f (String.length prefix)
                   (String.length f - String.length prefix - String.length suffix)),
              f )
        with _ -> None
      else None)
    (Disk.files disk)
  |> List.sort (fun (a, _) (b, _) -> Int32.compare b a)

let save ?(base = "snap") ?(keep = 2) ?(live = fun () -> true) disk ~serial
    payload =
  let file = snap_file base serial in
  (* [live] is asked before each disk operation: a save whose owner
     died while it slept in a charge must not touch the medium again. *)
  if live () then begin
    (* A file at this serial that does not verify is a save that never
       completed (torn by a crash, or stopped before its fsync): start
       afresh instead of appending behind its bytes, which would leave
       the new frame unreadable. *)
    if Disk.exists disk ~file && unframe (Disk.durable_contents disk ~file) = None
    then Disk.delete disk ~file;
    ignore (Disk.append disk ~file (frame payload));
    if live () then begin
      Disk.fsync disk ~file;
      Obs.Metrics.incr m_saves;
      Obs.Metrics.set m_bytes (float_of_int (Disk.durable_size disk ~file));
      (* Prune superseded snapshots only after the new one is durable. *)
      if live () then
        List.iteri
          (fun i (_, f) -> if i >= keep then Disk.delete disk ~file:f)
          (snaps_on disk ~base)
    end
  end

let load_latest ?(base = "snap") disk =
  let rec go = function
    | [] -> None
    | (serial, file) :: rest -> (
        let data =
          Disk.read disk ~file ~off:0 ~len:(Disk.durable_size disk ~file)
        in
        match unframe data with
        | Some payload ->
            Obs.Metrics.incr m_loads;
            Some (serial, payload)
        | None ->
            (* Torn mid-save: fall back to the previous snapshot. *)
            Obs.Metrics.incr m_corrupt;
            go rest)
  in
  go (snaps_on disk ~base)

let on_disk ?(base = "snap") disk = List.map fst (snaps_on disk ~base)

let latest_intact ?(base = "snap") disk =
  List.find_map
    (fun (serial, file) ->
      match unframe (Disk.durable_contents disk ~file) with
      | Some _ -> Some (serial, Disk.durable_size disk ~file)
      | None -> None)
    (snaps_on disk ~base)
