open Transport

let serve stack ~port ?(service_overhead_ms = 0.0) ?name handler () =
  let sock = Udp.bind stack ~port in
  let running = ref true in
  let pname =
    match name with Some n -> n | None -> Printf.sprintf "rawrpc:%d" port
  in
  Sim.Engine.spawn_child ~name:pname (fun () ->
      while !running do
        let src, payload = Udp.recv sock in
        if service_overhead_ms > 0.0 then Sim.Engine.sleep service_overhead_ms;
        (* The reply capability outlives this iteration: a handler may
           hand it to another fiber and answer later. Once the server
           stops, late answers are dropped like the socket's traffic. *)
        let reply response = if !running then Udp.sendto sock ~dst:src response in
        try handler ~src ~reply payload
        with Failure _ | Invalid_argument _ ->
          () (* a crashed handler stays silent; the client times out *)
      done);
  fun () ->
    running := false;
    Udp.close sock

let call stack ~dst ?(timeout = 1000.0) ?(attempts = 3) payload =
  let sock = Udp.bind_any stack in
  let t0 = Sim.Engine.time () in
  let attempt ~timeout =
    Udp.sendto sock ~dst payload;
    match Udp.recv_timeout sock timeout with
    | Some (_, response) -> Some response
    | None -> None
  in
  let result =
    match Control.with_retries ~attempts ~timeout attempt with
    | Some response -> Ok response
    | None -> Error (Control.Timeout { elapsed_ms = Sim.Engine.time () -. t0 })
  in
  Udp.close sock;
  result
