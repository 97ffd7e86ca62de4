(* The host's speed right now, for scaling host times.

   The hosts this benchmark runs on are shared: the same repetition can
   take half as long again while a neighbour is busy, and such spells
   last longer than a run. Each repetition therefore times this fixed
   loop just before and just after itself, and its host times are
   reported scaled to a host on which the loop takes [reference_s]
   ("reference seconds"). The loop is the benchmark's own code, never
   the system's, so a change to the system cannot move it. Like the
   simulator, it mostly allocates and drops small blocks, which made it
   follow the simulator's slow spells more closely than loops that only
   compute or only stream memory. *)

let reference_s = 0.025

let loop () =
  let keep = ref [] in
  for i = 0 to 600_000 do
    keep := Array.make 20 i :: !keep;
    if i land 1023 = 0 then keep := []
  done;
  ignore (Sys.opaque_identity !keep)

(* Seconds the loop takes now, from a collected heap. *)
let measure () =
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  loop ();
  float_of_int (Spans.now_ns () - t0) /. 1e9

(* Factor that turns host seconds measured now into reference seconds. *)
let factor ~before ~after = reference_s /. ((before +. after) /. 2.0)
