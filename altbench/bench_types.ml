(* What every workload hands back to the runner, and small helpers the
   workloads share. *)

module Drive = Alto_disk.Drive
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address

type size =
  | Full  (** The size the benchmark measures. *)
  | Small  (** A seconds-long cut of the same workload for the self-tests. *)

type outcome = {
  ops : int;  (** Operations, as the workload defines one — the unit of [host_ops_per_s]. *)
  attempted : int;  (** Every answer an oracle checked (at least [ops]). *)
  failed : int;  (** Answers that were errors or wrong. *)
  sim_ops_per_s : float;
  sim_p50_us : int;
  sim_p99_us : int;
  sim_words_per_s : float;
  extra : (string * float) list;
      (** Per-layer values only the workload can know (its own sim
          headline, oracle-side counts), by metric name. *)
  notes : string list;  (** Extra report lines, printed once per run. *)
  drives : Drive.t list;
      (** The packs the workload ended on; the runner digests them once
          the phase's books are closed. *)
}

(* A workload builds its inputs and system from the seed and returns the
   measured phase, ready to run. *)
type workload = size -> seed:int -> unit -> outcome

(* Run on every pack a workload has built, once set-up is done: the
   self-tests damage packs here, behind the oracles' backs. *)
let tamper : (Drive.t -> unit) ref = ref ignore

(* Nearest-rank percentile of a sample, [p] in [0, 1]. *)
let percentile (sample : int array) p =
  let n = Array.length sample in
  if n = 0 then 0
  else begin
    let s = Array.copy sample in
    Array.sort Int.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median_us sample = percentile sample 0.5

let per_s count us = if us <= 0 then 0.0 else float_of_int count /. (float_of_int us /. 1e6)

(* Every sector of every drive — header, label and value — folded into
   one digest: two runs ended on the same packs iff this matches. *)
let image_digest drives =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun d ->
      for s = 0 to Drive.sector_count d - 1 do
        let sec = Drive.peek d (Disk_address.of_index s) in
        List.iter
          (fun part ->
            Array.iter
              (fun w -> Buffer.add_uint16_le buf (Alto_machine.Word.to_int w))
              (Sector.part_of sec part))
          [ Sector.Header; Sector.Label; Sector.Value ]
      done)
    drives;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Tally of checked answers. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1
