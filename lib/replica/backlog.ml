type t = {
  cap : int;
  frames : bytes Queue.t;  (* payloads for seqs floor+1 .. hi, in order *)
  mutable floor : int;
  mutable hi : int;
  mutable evicted : int;
}

let seq_of = Durable.record_seq

let create ?(cap = 1 lsl 16) ~floor () =
  if cap < 1 then invalid_arg "Replica.Backlog: cap must be >= 1";
  if floor < 0 then invalid_arg "Replica.Backlog: floor must be >= 0";
  { cap; frames = Queue.create (); floor; hi = floor; evicted = 0 }

let floor t = t.floor
let hi t = t.hi
let length t = Queue.length t.frames
let evicted t = t.evicted

let add t frame =
  let seq = seq_of frame in
  (* The first frame re-anchors an empty backlog: a leader opened over an
     existing WAL sees records from before its current watermark (their
     history is what lets a cold follower catch up without a snapshot). *)
  if Queue.is_empty t.frames then begin
    t.floor <- seq - 1;
    t.hi <- seq - 1
  end;
  if seq <= t.hi then () (* duplicate: already held or already evicted *)
  else if seq <> t.hi + 1 then
    invalid_arg
      (Printf.sprintf "Replica.Backlog: sequence gap (frame %d over tail %d)" seq t.hi)
  else begin
    Queue.add frame t.frames;
    t.hi <- seq;
    while Queue.length t.frames > t.cap do
      ignore (Queue.pop t.frames);
      t.floor <- t.floor + 1;
      t.evicted <- t.evicted + 1
    done
  end

let from t ~after ~max_frames ~max_bytes =
  if after < t.floor then None
  else begin
    let skip = after - t.floor in
    let acc = ref [] and taken = ref 0 and bytes = ref 0 and i = ref 0 in
    (try
       Queue.iter
         (fun f ->
           if !i >= skip then begin
             let cost = 8 + Bytes.length f in
             (* The byte budget never blocks the first frame: a single
                oversized record must still make progress (alone, in its
                own message) rather than stall the subscriber forever. *)
             if !taken >= max_frames || (!taken > 0 && !bytes + cost > max_bytes) then
               raise Exit;
             acc := f :: !acc;
             incr taken;
             bytes := !bytes + cost
           end;
           incr i)
         t.frames
     with Exit -> ());
    Some (List.rev !acc)
  end
