(** Sliding-window time series over the simulation's virtual clock.

    A [Timeseries.t] keeps the samples observed during the last
    [window_ms] of virtual time and answers windowed questions: event
    rate, percentiles, mean, max. Samples that slide out of the window
    are pruned lazily on the next observation or read.

    Unlike {!Sim.Stats} (which accumulates forever), a window answers
    "how are we doing {e now}" — the shape SLO burn rates need.

    A window belongs to the simulation run whose process last touched
    it. The first access from a process of another {!Sim.Engine.t}
    empties the window before it proceeds, so a run never sees an
    earlier run's samples. Outside any process, reads prune against
    the owning engine's clock ([0.] before any process touched the
    window).

    Observing costs O(log n) comparisons plus one bounded blit;
    {!count} and {!percentile} are O(1) beyond pruning. Percentiles
    are exact and bit-identical to sorting the window with
    [List.sort compare]. *)

type t

(** [create ~window_ms ()] makes an empty window. [max_samples]
    (default [8192]) bounds memory: beyond it the oldest samples are
    dropped even if still inside the window. *)
val create : ?max_samples:int -> window_ms:float -> unit -> t

val window_ms : t -> float

(** Record a sample at the current virtual time. *)
val observe : t -> float -> unit

(** Samples currently inside the window. *)
val count : t -> int

(** Sample values currently inside the window, oldest first. *)
val values : t -> float list

(** Events per virtual second over the window. *)
val rate_per_s : t -> float

(** Exact percentile (linear interpolation) over the windowed samples.
    Raises [Invalid_argument] when the window is empty or [p] is
    outside [0, 100]. *)
val percentile : t -> float -> float

type summary = {
  n : int;
  rate_per_s : float;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}

(** Windowed summary; all-zero when the window is empty. *)
val summary : t -> summary

val clear : t -> unit
