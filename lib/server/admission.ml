type config = { max_in_flight : int; max_queue_depth : int }

let default_config = { max_in_flight = 1024; max_queue_depth = 256 }

type t = {
  cfg : config;
  mutable in_flight : int;
  mutable shed : int;
  mutable rejected_ro : int;
  mutable standby : bool;
}

let create ?(config = default_config) () =
  if config.max_in_flight < 1 then invalid_arg "Admission: max_in_flight must be >= 1";
  if config.max_queue_depth < 1 then invalid_arg "Admission: max_queue_depth must be >= 1";
  { cfg = config; in_flight = 0; shed = 0; rejected_ro = 0; standby = false }

type decision = Admit | Shed | Reject_read_only

(* Order matters: the standby refusal is checked before the load limits —
   a follower answers its writes with the truthful [Read_only] even under
   load, and refused writes never consume in-flight slots queries could
   use. *)
let admit t ~queue_depth ~write =
  if write && t.standby then begin
    t.rejected_ro <- t.rejected_ro + 1;
    Reject_read_only
  end
  else if t.in_flight >= t.cfg.max_in_flight then begin
    t.shed <- t.shed + 1;
    Shed
  end
  else if write && queue_depth >= t.cfg.max_queue_depth then begin
    t.shed <- t.shed + 1;
    Shed
  end
  else begin
    t.in_flight <- t.in_flight + 1;
    Admit
  end

let release t =
  if t.in_flight <= 0 then invalid_arg "Admission.release: nothing in flight";
  t.in_flight <- t.in_flight - 1

let set_standby t v = t.standby <- v
let standby t = t.standby
let in_flight t = t.in_flight
let shed t = t.shed
let rejected_read_only t = t.rejected_ro
let config t = t.cfg
