type stat = {
  watermark : int;
  now : int;
  alive : int;
  pages : int;
  batches : int;
  acked : int;
  wal_syncs : int;
  health : Durable.health;
  horizon : int;
  published_ns : int64;
}

let zero =
  {
    watermark = 0;
    now = 0;
    alive = 0;
    pages = 0;
    batches = 0;
    acked = 0;
    wal_syncs = 0;
    health = Durable.Healthy;
    horizon = 0;
    published_ns = 0L;
  }

type t = stat Atomic.t

(* Publication stamps the monotonic clock itself, so snapshot age (now −
   published_ns) is measured at a single site and cannot be forgotten by
   a caller assembling the stat. *)
let create s = Atomic.make { s with published_ns = Telemetry.Tracer.now_ns () }
let publish t s = Atomic.set t { s with published_ns = Telemetry.Tracer.now_ns () }
let read t = Atomic.get t

let pp_stat ppf s =
  Format.fprintf ppf
    "watermark=%d now=%d alive=%d pages=%d batches=%d acked=%d wal_syncs=%d horizon=%d \
     health=%a"
    s.watermark s.now s.alive s.pages s.batches s.acked s.wal_syncs s.horizon
    Durable.pp_health s.health
