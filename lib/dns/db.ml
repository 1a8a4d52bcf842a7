module Tbl = Hashtbl.Make (struct
  type t = Name.t

  let equal = Name.equal
  let hash = Name.hash
end)

type t = { tbl : Rr.t list ref Tbl.t }

let create () = { tbl = Tbl.create 64 }

let add t (rr : Rr.t) =
  match Tbl.find_opt t.tbl rr.name with
  | None -> Tbl.replace t.tbl rr.name (ref [ rr ])
  | Some cell ->
      let without =
        List.filter (fun (r : Rr.t) -> not (Rr.equal_rdata r.rdata rr.rdata)) !cell
      in
      cell := without @ [ rr ]

let lookup t name qtype =
  match Tbl.find_opt t.tbl name with
  | None -> []
  | Some cell ->
      List.filter (fun (r : Rr.t) -> Rr.matches ~qtype (Rr.rdata_type r.rdata)) !cell

let has_name t name = Tbl.mem t.tbl name

let remove_rrset t name rtype =
  match Tbl.find_opt t.tbl name with
  | None -> ()
  | Some cell ->
      let kept =
        List.filter (fun (r : Rr.t) -> Rr.rdata_type r.rdata <> rtype) !cell
      in
      if kept = [] then Tbl.remove t.tbl name else cell := kept

let remove_rr t name rdata =
  match Tbl.find_opt t.tbl name with
  | None -> ()
  | Some cell ->
      let kept =
        List.filter (fun (r : Rr.t) -> not (Rr.equal_rdata r.rdata rdata)) !cell
      in
      if kept = [] then Tbl.remove t.tbl name else cell := kept

let remove_name t name = Tbl.remove t.tbl name

let restore_name t name rrs =
  match (Tbl.find_opt t.tbl name, rrs) with
  | Some cell, _ :: _ -> cell := rrs (* in place: the name keeps its slot *)
  | None, _ :: _ -> Tbl.replace t.tbl name (ref rrs)
  | Some _, [] -> Tbl.remove t.tbl name
  | None, [] -> ()

let all t = Tbl.fold (fun _ cell acc -> !cell @ acc) t.tbl []
let names t = Tbl.fold (fun name _ acc -> name :: acc) t.tbl []
let count t = Tbl.fold (fun _ cell acc -> acc + List.length !cell) t.tbl 0
let clear t = Tbl.reset t.tbl
