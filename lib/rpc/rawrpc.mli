(** The Raw HRPC protocol suite: request/response message passing with
    a program's {e native} wire format.

    Section 3 of the paper: the HNS talks to BIND not through the
    standard BIND library but through "an HRPC interface to BIND ...
    built on top of our Raw HRPC protocol suite, which allows HRPC
    clients to make calls to any message passing program that conforms
    with the basic RPC paradigm of make a request and wait for a
    response".

    Accordingly this module adds {e no} framing of its own: the payload
    is exactly the server's native message (a DNS packet, for BIND).
    Response matching uses a fresh ephemeral UDP socket per exchange,
    the way a resolver does; retransmission handles simulated loss. *)

(** [serve stack ~port ?service_overhead_ms handler] spawns a
    sequential service loop: it charges [service_overhead_ms] per
    request, then runs [handler ~src ~reply request]. The handler
    answers by calling [reply response] — at once, or later from
    another fiber, which frees the loop to take the next request —
    or never, to stay silent (letting the client time out). A reply
    made after the stop function ran is dropped. Returns a stop
    function. *)
val serve :
  Transport.Netstack.stack ->
  port:int ->
  ?service_overhead_ms:float ->
  ?name:string ->
  (src:Transport.Address.t -> reply:(string -> unit) -> string -> unit) ->
  unit ->
  unit -> unit

(** [call stack ~dst payload] sends and waits for the single response.
    Defaults: 1000 ms timeout, 3 attempts, doubling backoff. *)
val call :
  Transport.Netstack.stack ->
  dst:Transport.Address.t ->
  ?timeout:float ->
  ?attempts:int ->
  string ->
  (string, Control.error) result
