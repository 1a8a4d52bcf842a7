(* Tests for the DNS server's update lane: updates commit write-ahead in
   batches off the serve loop, queries are never held behind a disk
   sync, and a retransmitted update is applied at most once. Every rig
   is a durable primary on a disk with the default (calibrated) cost,
   so each batch waits out a real WAL group commit. *)

open Helpers

let zname = Dns.Name.of_string "z"
let key i = Dns.Name.of_string (Printf.sprintf "k%d.z" i)
let overhead_ms = 5.0
let per_answer_ms = 0.65

type rig = {
  zone : Dns.Zone.t;
  disk : Store.Disk.t;
  durable : Dns.Durable.t;
  server : Dns.Server.t;
}

(* [k1.z] starts at address 1. Call inside a process. *)
let rig w =
  let zone = Dns.Zone.simple ~origin:zname [ Dns.Rr.make (key 1) (Dns.Rr.A 1l) ] in
  let disk = Store.Disk.create ~name:"lane" () in
  let durable = Dns.Durable.attach disk zone in
  let server =
    Dns.Server.create w.stacks.(0) ~service_overhead_ms:overhead_ms ~per_answer_ms
      ~allow_update:true ()
  in
  Dns.Server.add_zone server zone;
  Dns.Server.start server;
  { zone; disk; durable; server }

let set_msg id i v =
  Dns.Msg.update_request ~id ~zone:zname
    [
      Dns.Msg.Delete_rrset (key i, Dns.Rr.T_a);
      Dns.Msg.Add (Dns.Rr.make (key i) (Dns.Rr.A v));
    ]

let ack_serial (reply : Dns.Msg.t) =
  List.find_map
    (fun (rr : Dns.Rr.t) ->
      match rr.rdata with Dns.Rr.Soa s -> Some s.Dns.Rr.serial | _ -> None)
    reply.answers

(* One UPDATE over UDP: the ack's rcode and the serial it carries. *)
let exchange w r msg =
  let dst = Dns.Server.addr r.server in
  match Rpc.Rawrpc.call w.stacks.(1) ~dst (Dns.Msg.encode msg) with
  | Error e -> Error e
  | Ok payload ->
      let reply = Dns.Msg.decode payload in
      Ok (reply.Dns.Msg.rcode, ack_serial reply)

let send_update w r msg =
  match exchange w r msg with
  | Ok ack -> ack
  | Error e -> Alcotest.failf "update: %s" (Rpc.Control.error_to_string e)

(* Send in a child fiber; the outcome lands in the returned cell. *)
let send_update_async w r msg =
  let cell = ref None in
  Sim.Engine.spawn_child (fun () -> cell := Some (exchange w r msg));
  cell

(* The A addresses of [k<i>.z], and how long the query took. *)
let query_a w r i =
  let t0 = Sim.Engine.time () in
  match
    Rpc.Rawrpc.call w.stacks.(2) ~dst:(Dns.Server.addr r.server)
      (Dns.Msg.encode (Dns.Msg.query ~id:(100 + i) (key i) Dns.Rr.T_a))
  with
  | Error e -> Alcotest.failf "query: %s" (Rpc.Control.error_to_string e)
  | Ok payload ->
      let addrs =
        List.filter_map
          (fun (rr : Dns.Rr.t) -> match rr.rdata with Dns.Rr.A a -> Some a | _ -> None)
          (Dns.Msg.decode payload).Dns.Msg.answers
      in
      (addrs, Sim.Engine.time () -. t0)

let rec poll_until cond =
  if not (cond ()) then begin
    Sim.Engine.sleep 0.1;
    poll_until cond
  end

let holds zone i v =
  List.exists
    (fun (rr : Dns.Rr.t) -> Dns.Rr.equal_rdata rr.rdata (Dns.Rr.A v))
    (Dns.Db.lookup (Dns.Zone.db zone) (key i) Dns.Rr.T_a)

let recover r =
  match Dns.Durable.recover r.disk with
  | Some rec_ -> rec_
  | None -> Alcotest.fail "recovery found no image"

(* A query for the key while its update waits for the WAL fsync: the
   answer it gets, how long it took, and whether the update was acked
   by the time the answer arrived; then the answer after the ack and
   the latency of the same query on an idle server. *)
let query_during_fsync () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      let _, idle_ms = query_a w r 1 in
      let ack = send_update_async w r (set_msg 1 1 2l) in
      (* Past the update's service charge: the lane holds it in its
         WAL append, which takes ~28 ms. *)
      Sim.Engine.sleep (overhead_ms +. 5.0);
      if !ack <> None then Alcotest.fail "the update was acked before its fsync";
      let during, during_ms = query_a w r 1 in
      let acked_by_then = !ack <> None in
      poll_until (fun () -> !ack <> None);
      let after, _ = query_a w r 1 in
      (during, acked_by_then, after, during_ms, idle_ms))

(* (a) A reader never sees a record that is not yet durable. *)
let update_invisible_until_durable () =
  let during, acked_by_then, after, _, _ = query_during_fsync () in
  check_bool "the query was answered before the ack" false acked_by_then;
  check_bool "during the fsync: the old answer" true (during = [ 1l ]);
  check_bool "after the ack: the new answer" true (after = [ 2l ])

(* (b) The fsync runs on the lane, not the serve loop. *)
let query_not_held_by_fsync () =
  let _, _, _, during_ms, idle_ms = query_during_fsync () in
  if during_ms > idle_ms +. 1e-9 then
    Alcotest.failf
      "a query during the fsync took %.4f ms, an idle one %.4f ms \
       (service %.2f + marshal %.2f + transit)"
      during_ms idle_ms overhead_ms per_answer_ms

(* (c) Updates that queue during one fsync commit as one serial step:
   one group commit, one NOTIFY per subscriber, and every ack carries
   that step's serial. *)
let queued_updates_share_one_step () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      let notified = ref [] in
      let sub_port = 7000 in
      let _stop =
        Rpc.Rawrpc.serve w.stacks.(2) ~port:sub_port (fun ~src:_ ~reply payload ->
            let msg = Dns.Msg.decode payload in
            notified := ack_serial msg :: !notified;
            reply (Dns.Msg.encode (Dns.Msg.notify_ack ~request:msg)))
          ()
      in
      Dns.Server.register_notify r.server
        (Transport.Address.make (Transport.Netstack.ip w.stacks.(2)) sub_port);
      let wal = Dns.Durable.wal r.durable in
      let s0 = Dns.Zone.serial r.zone and commits0 = Store.Wal.group_commits wal in
      let first = send_update_async w r (set_msg 1 1 2l) in
      Sim.Engine.sleep (overhead_ms +. 1.0);
      let k = 3 in
      let batch =
        List.init k (fun j -> send_update_async w r (set_msg (10 + j) (10 + j) 5l))
      in
      poll_until (fun () -> List.for_all (fun c -> !c <> None) (first :: batch));
      Sim.Engine.sleep 100.0 (* let the NOTIFYs land *);
      let step1 = Int32.add s0 1l and step2 = Int32.add s0 2l in
      check_bool "the first update is its own step" true
        (!first = Some (Ok (Dns.Msg.No_error, Some step1)));
      List.iter
        (fun c ->
          check_bool "each queued ack carries the batch's serial" true
            (!c = Some (Ok (Dns.Msg.No_error, Some step2))))
        batch;
      check_bool "the zone moved by two steps" true
        (Int32.equal (Dns.Zone.serial r.zone) step2);
      check_int "one group commit per step" 2 (Store.Wal.group_commits wal - commits0);
      check_int "every update applied" (k + 1) (Dns.Server.updates_applied r.server);
      check_int "one NOTIFY for the batch" 1
        (List.length (List.filter (fun s -> s = Some step2) !notified));
      check_int "one NOTIFY per step" 2 (List.length !notified);
      List.iteri
        (fun j _ ->
          check_bool "the batch's records are live" true (holds r.zone (10 + j) 5l))
        batch)

(* (d) Power loss while a batch waits for its fsync: nothing in it was
   acked, and recovery returns the live pre-batch serial with every
   earlier acked key. *)
let crash_during_batch () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      List.iter
        (fun i ->
          check_bool "sequential update acked" true
            (fst (send_update w r (set_msg i i (Int32.of_int i))) = Dns.Msg.No_error))
        [ 2; 3; 4 ];
      let live = Dns.Zone.serial r.zone in
      let in_flight =
        List.map (fun i -> send_update_async w r (set_msg i i 9l)) [ 20; 21 ]
      in
      Sim.Engine.sleep ((2.0 *. overhead_ms) +. 5.0);
      check_bool "the batch is not acked yet" true
        (List.for_all (fun c -> !c = None) in_flight);
      check_bool "the zone has not moved" true
        (Int32.equal (Dns.Zone.serial r.zone) live);
      Store.Disk.crash r.disk;
      Dns.Server.stop r.server (* the power loss takes the server down too *);
      let rec_ = recover r in
      check_bool "recovered the live pre-batch serial" true
        (Int32.equal (Dns.Zone.serial rec_.Dns.Durable.zone) live);
      List.iter
        (fun i ->
          check_bool "an earlier acked key survives" true
            (holds rec_.Dns.Durable.zone i (Int32.of_int i)))
        [ 2; 3; 4 ];
      check_int "no gap in the log" 0 rec_.Dns.Durable.gap_deltas;
      poll_until (fun () -> List.for_all (fun c -> !c <> None) in_flight);
      check_bool "a stopped server acks nothing later" true
        (List.for_all
           (fun c ->
             match !c with Some (Error (Rpc.Control.Timeout _)) -> true | _ -> false)
           in_flight))

(* (e) A local caller inside a process queues behind the lane's batch
   instead of staging beside it: two deltas logged from one serial
   would leave recovery a gap. *)
let local_caller_joins_the_lane () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      let s0 = Dns.Zone.serial r.zone in
      let remote = send_update_async w r (set_msg 1 1 2l) in
      Sim.Engine.sleep (overhead_ms +. 5.0);
      check_bool "the remote update is in its fsync" true (!remote = None);
      let local = Dns.Server.handle r.server (set_msg 77 2 3l) in
      check_bool "the local update commits" true
        (local.Dns.Msg.rcode = Dns.Msg.No_error);
      check_bool "as the step after the remote one" true
        (ack_serial local = Some (Int32.add s0 2l));
      poll_until (fun () -> !remote <> None);
      check_bool "the remote update committed first" true
        (!remote = Some (Ok (Dns.Msg.No_error, Some (Int32.add s0 1l))));
      let live = Dns.Zone.serial r.zone in
      Store.Disk.crash r.disk;
      let rec_ = recover r in
      check_int "no gap in the log" 0 rec_.Dns.Durable.gap_deltas;
      check_bool "recovered the live serial" true
        (Int32.equal (Dns.Zone.serial rec_.Dns.Durable.zone) live);
      check_bool "both keys survive" true
        (holds rec_.Dns.Durable.zone 1 2l && holds rec_.Dns.Durable.zone 2 3l))

(* Outside a process nothing can wait for a batch that a stopped run
   left suspended in its WAL append, and staging beside it would log a
   second delta from the same serial: the local caller is refused, and
   commits normally once the batch has landed. *)
let local_caller_outside_a_process () =
  let w = make_world () in
  let rig_ = ref None in
  Sim.Engine.spawn w.engine (fun () -> rig_ := Some (rig w));
  Sim.Engine.run w.engine;
  let r = Option.get !rig_ in
  Sim.Engine.spawn w.engine (fun () -> ignore (send_update_async w r (set_msg 1 1 2l)));
  Sim.Engine.run_until w.engine (Sim.Engine.now w.engine +. overhead_ms +. 10.0);
  let s0 = Dns.Zone.serial r.zone in
  let refused = Dns.Server.handle r.server (set_msg 5 2 3l) in
  check_bool "refused while the batch is suspended" true
    (refused.Dns.Msg.rcode = Dns.Msg.Serv_fail);
  check_bool "the serial did not move" true (Int32.equal (Dns.Zone.serial r.zone) s0);
  Sim.Engine.run w.engine;
  check_bool "the suspended batch landed" true
    (Int32.equal (Dns.Zone.serial r.zone) (Int32.add s0 1l));
  let local = Dns.Server.handle r.server (set_msg 6 2 3l) in
  check_bool "then a local caller commits synchronously" true
    (ack_serial local = Some (Int32.add s0 2l));
  Store.Disk.crash r.disk;
  let rec_ = recover r in
  check_int "no gap in the log" 0 rec_.Dns.Durable.gap_deltas;
  check_bool "recovered the live serial" true
    (Int32.equal (Dns.Zone.serial rec_.Dns.Durable.zone) (Int32.add s0 2l))

(* The same request bytes from the same socket three times: once, again
   while the first is in flight (no answer of its own), and again after
   the ack (the cached ack). The zone moves once. Past the retry
   budget the entry is gone and the bytes count as a new update. *)
let retransmission_applies_once () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      let s0 = Dns.Zone.serial r.zone in
      let sock = Transport.Udp.bind_any w.stacks.(1) in
      let dst = Dns.Server.addr r.server in
      let payload = Dns.Msg.encode (set_msg 42 5 5l) in
      let recv_ack () =
        match Transport.Udp.recv_timeout sock 1_000.0 with
        | Some (_, reply) -> Dns.Msg.decode reply
        | None -> Alcotest.fail "no ack"
      in
      Transport.Udp.sendto sock ~dst payload;
      Sim.Engine.sleep (overhead_ms +. 5.0);
      Transport.Udp.sendto sock ~dst payload;
      let first = recv_ack () in
      check_bool "the in-flight copy gets no answer of its own" true
        (Transport.Udp.recv_timeout sock 200.0 = None);
      Transport.Udp.sendto sock ~dst payload;
      let again = recv_ack () in
      let step = Some (Int32.add s0 1l) in
      check_bool "the first ack carries the step" true (ack_serial first = step);
      check_bool "the repeat gets the same ack" true (ack_serial again = step);
      check_bool "the serial moved once" true
        (Int32.equal (Dns.Zone.serial r.zone) (Int32.add s0 1l));
      check_int "applied once" 1 (Dns.Server.updates_applied r.server);
      Sim.Engine.sleep (Rpc.Control.retry_budget_ms Rpc.Control.default_policy);
      Transport.Udp.sendto sock ~dst payload;
      check_bool "past the retry budget the bytes are a new update" true
        (ack_serial (recv_ack ()) = Some (Int32.add s0 2l));
      Transport.Udp.close sock)

(* NOTIFYs that reach a durable replica while its catch-up waits for
   the WAL fsync start no pull of their own: a second pull would fetch
   from the same serial and log a second delta from it, which leaves a
   fork in the journal and a gap in the log. The replica pulls once
   more after the catch-up has landed. *)
let durable_replica_pulls_one_at_a_time () =
  let w = make_world () in
  in_sim w (fun () ->
      let zone = Dns.Zone.simple ~origin:zname [ Dns.Rr.make (key 1) (Dns.Rr.A 1l) ] in
      let primary = Dns.Server.create w.stacks.(0) ~allow_update:true () in
      Dns.Server.add_zone primary zone;
      Dns.Server.start primary;
      let replica_zone =
        Dns.Zone.create ~origin:zname ~soa:(Dns.Zone.soa zone)
          (Dns.Db.all (Dns.Zone.db zone))
      in
      let s0 = Dns.Zone.serial replica_zone in
      let disk = Store.Disk.create ~name:"replica" () in
      let durable = Dns.Durable.attach disk replica_zone in
      let wal = Dns.Durable.wal durable in
      let replica_server = Dns.Server.create w.stacks.(1) () in
      Dns.Server.start replica_server;
      let secondary =
        Dns.Secondary.attach replica_server ~primary:(Dns.Server.addr primary)
          ~zone:zname ~refresh_ms:120_000.0 ~recovered:replica_zone ()
      in
      Dns.Server.register_notify primary (Dns.Server.addr replica_server);
      let update i v =
        let ack = Dns.Server.handle primary (set_msg (200 + i) i v) in
        check_bool "update acked" true (ack.Dns.Msg.rcode = Dns.Msg.No_error)
      in
      let appends0 = Store.Wal.appends wal in
      update 1 2l;
      (* The replica's catch-up has written its delta and waits for the
         group commit's fsync. *)
      poll_until (fun () -> Store.Wal.appends wal > appends0);
      check_bool "the catch-up is in its fsync" true
        (Int32.equal (Dns.Zone.serial replica_zone) s0);
      update 2 3l;
      update 3 4l;
      Sim.Engine.sleep 2_000.0;
      let live = Dns.Zone.serial zone in
      check_bool "the replica converged" true
        (Int32.equal (Dns.Secondary.serial secondary) live);
      let last =
        List.fold_left
          (fun from (d : Dns.Journal.delta) ->
            if not (Int32.equal d.Dns.Journal.from_serial from) then
              Alcotest.failf "journal delta %ld -> %ld follows serial %ld"
                d.Dns.Journal.from_serial d.Dns.Journal.to_serial from;
            d.Dns.Journal.to_serial)
          s0
          (Dns.Journal.deltas (Dns.Zone.journal replica_zone))
      in
      check_bool "the journal chains up to the live serial" true
        (Int32.equal last live);
      Dns.Secondary.detach secondary;
      Store.Disk.crash disk;
      let rec_ =
        match Dns.Durable.recover disk with
        | Some rec_ -> rec_
        | None -> Alcotest.fail "recovery found no image"
      in
      check_int "no gap in the log" 0 rec_.Dns.Durable.gap_deltas;
      check_bool "recovered the live serial" true
        (Int32.equal (Dns.Zone.serial rec_.Dns.Durable.zone) live);
      check_bool "every update survives" true
        (holds rec_.Dns.Durable.zone 1 2l
        && holds rec_.Dns.Durable.zone 2 3l
        && holds rec_.Dns.Durable.zone 3 4l);
      Dns.Server.stop primary;
      Dns.Server.stop replica_server)

(* A batch that touches two zones fixes both steps before the first
   zone's hooks yield. When the second zone moves meanwhile (here a
   second server shares it), its step commits nothing and its request
   gets Serv_fail; the rest of the batch is acked and the lane goes on. *)
let failed_step_answers_the_batch () =
  let w = make_world () in
  in_sim w (fun () ->
      let r = rig w in
      let yname = Dns.Name.of_string "y" and ykey = Dns.Name.of_string "k1.y" in
      let other = Dns.Zone.simple ~origin:yname [] in
      Dns.Server.add_zone r.server other;
      let peer = Dns.Server.create w.stacks.(1) ~allow_update:true () in
      Dns.Server.add_zone peer other;
      let set_y id v =
        Dns.Msg.update_request ~id ~zone:yname
          [ Dns.Msg.Add (Dns.Rr.make ykey (Dns.Rr.A v)) ]
      in
      let handle_async msg =
        let cell = ref None in
        Sim.Engine.spawn_child (fun () -> cell := Some (Dns.Server.handle r.server msg));
        cell
      in
      let wal = Dns.Durable.wal r.durable in
      let s0 = Dns.Zone.serial r.zone and y0 = Dns.Zone.serial other in
      let appends0 = Store.Wal.appends wal in
      let first = handle_async (set_msg 1 1 2l) in
      poll_until (fun () -> Store.Wal.appends wal > appends0);
      let on_z = handle_async (set_msg 2 2 3l) and on_y = handle_async (set_y 3 5l) in
      (* The second batch's first step waits for its fsync. *)
      poll_until (fun () -> Store.Wal.appends wal > appends0 + 1);
      check_bool "the peer commits to the shared zone" true
        ((Dns.Server.handle peer (set_y 4 7l)).Dns.Msg.rcode = Dns.Msg.No_error);
      poll_until (fun () -> List.for_all (fun c -> !c <> None) [ first; on_z; on_y ]);
      let rcode c = (Option.get !c).Dns.Msg.rcode in
      check_bool "the first batch committed" true
        (ack_serial (Option.get !first) = Some (Int32.add s0 1l));
      check_bool "the step on the unmoved zone is acked" true
        (ack_serial (Option.get !on_z) = Some (Int32.add s0 2l));
      check_bool "the step on the moved zone fails" true (rcode on_y = Dns.Msg.Serv_fail);
      check_bool "the moved zone holds only the peer's step" true
        (Int32.equal (Dns.Zone.serial other) (Int32.add y0 1l)
        && Dns.Db.lookup (Dns.Zone.db other) ykey Dns.Rr.T_a
           |> List.map (fun (rr : Dns.Rr.t) -> rr.rdata)
           = [ Dns.Rr.A 7l ]);
      let again = Dns.Server.handle r.server (set_y 5 5l) in
      check_bool "the lane goes on" true (ack_serial again = Some (Int32.add y0 2l)))

let suite =
  [
    Alcotest.test_case "update invisible until durable" `Quick
      update_invisible_until_durable;
    Alcotest.test_case "query not held by the fsync" `Quick query_not_held_by_fsync;
    Alcotest.test_case "queued updates share one step" `Quick
      queued_updates_share_one_step;
    Alcotest.test_case "crash during a batch" `Quick crash_during_batch;
    Alcotest.test_case "local caller joins the lane" `Quick local_caller_joins_the_lane;
    Alcotest.test_case "local caller outside a process" `Quick
      local_caller_outside_a_process;
    Alcotest.test_case "retransmission applies once" `Quick retransmission_applies_once;
    Alcotest.test_case "failed step answers the batch" `Quick
      failed_step_answers_the_batch;
    Alcotest.test_case "durable replica pulls one at a time" `Quick
      durable_replica_pulls_one_at_a_time;
  ]
