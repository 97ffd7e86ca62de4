(* The per-layer books of one measured phase.

   The layers below the ones the benchmark calls keep their own
   instruments: [Obs] counters and histograms, and the [Prof] tree of
   simulated microseconds. Both are process-global, so a phase starts by
   resetting them ([Obs.reset] resets the tree too); everything read
   afterwards is a delta over the phase. Work the benchmark does between
   operations — damaging a pack, reading files back for an oracle — runs
   under {!untimed}, which takes it off every book: counters, span tree,
   host clock and allocation alike. Histograms cannot be un-observed, so
   no workload may run histogram-feeding work (server requests, replica
   exchanges) under {!untimed}. *)

module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let counter_now name =
  match Obs.find name with Some (Obs.Counter n) -> n | Some (Obs.Histogram _) | None -> 0

(* Simulated microseconds under every topmost span of this name. *)
let rec prof_sum (node : Prof.snapshot) name =
  if String.equal node.Prof.name name then node.Prof.total_us
  else List.fold_left (fun acc c -> acc + prof_sum c name) 0 node.Prof.children

(* All four disk components summed over the tree: the span profiler's
   side of the motion ledger. *)
let prof_disk_now () =
  let t = Prof.disk_totals () in
  t.Prof.t_seek_us + t.Prof.t_rotation_us + t.Prof.t_transfer_us + t.Prof.t_retry_us

let prof_retry_now () = (Prof.disk_totals ()).Prof.t_retry_us

(* Excluded deltas, keyed by counter name or by ["prof:" ^ span]. *)
let excluded : (string, int) Hashtbl.t = Hashtbl.create 64
let excluded_ns = ref 0
let excluded_words = ref 0.0
let start_ns = ref 0
let start_minor = ref 0.0
let start_major = ref 0

(* The scavenger's passes, as it names its [Prof] child spans. *)
let scavenger_passes =
  [ "sweep"; "verify"; "evacuate"; "free"; "links"; "leaders"; "directories"; "root"; "orphans"; "rebuild" ]

(* Span names whose simulated totals the metrics read. *)
let watched_spans =
  [ "page.read"; "page.write"; "world.outload_us"; "world.inload_us" ]
  @ List.map (fun p -> "scavenger." ^ p) scavenger_passes

let start () =
  Obs.reset ();
  Hashtbl.reset excluded;
  excluded_ns := 0;
  excluded_words := 0.0;
  start_minor := Gc.minor_words ();
  start_major := (Gc.quick_stat ()).Gc.major_collections;
  start_ns := Spans.now_ns ()

let counters_now () =
  List.filter_map
    (fun (name, m) -> match m with Obs.Counter n -> Some (name, n) | Obs.Histogram _ -> None)
    (Obs.snapshot ())

let prof_now () =
  let tree = Prof.tree () in
  ("prof:disk", prof_disk_now ())
  :: ("prof:retry", prof_retry_now ())
  :: List.map (fun n -> ("prof:" ^ n, prof_sum tree n)) watched_spans

let add_excluded key v = if v <> 0 then Hashtbl.replace excluded key (v + Option.value ~default:0 (Hashtbl.find_opt excluded key))

let untimed f =
  let spans_were = !Spans.enabled in
  Spans.enabled := false;
  let t0 = Spans.now_ns () and w0 = Gc.minor_words () in
  let c0 = counters_now () and p0 = prof_now () in
  let result = Fun.protect ~finally:(fun () -> Spans.enabled := spans_were) f in
  let c1 = counters_now () and p1 = prof_now () in
  let diff before after =
    List.iter
      (fun (k, v) -> add_excluded k (v - Option.value ~default:0 (List.assoc_opt k before)))
      after
  in
  diff c0 c1;
  diff p0 p1;
  excluded_words := !excluded_words +. (Gc.minor_words () -. w0);
  excluded_ns := !excluded_ns + (Spans.now_ns () - t0);
  result

let excl key = Option.value ~default:0 (Hashtbl.find_opt excluded key)

(* Phase-delta readers. *)
let count name = counter_now name - excl name
let prof name = prof_sum (Prof.tree ()) name - excl ("prof:" ^ name)
let prof_disk () = prof_disk_now () - excl "prof:disk"
let prof_retry () = prof_retry_now () - excl "prof:retry"

let hist_p99 name = match Obs.find name with Some (Obs.Histogram s) -> s.Obs.p99 | Some (Obs.Counter _) | None -> 0

type phase = { host_ns : int; minor_words : float; major_collections : int }

let stop () =
  let now = Spans.now_ns () in
  {
    host_ns = now - !start_ns - !excluded_ns;
    minor_words = Gc.minor_words () -. !start_minor -. !excluded_words;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - !start_major;
  }

(* E17's identity over the phase: the drive's seek + rotation + transfer
   counters against the disk time the span tree charged. Returns the
   two sides. *)
let motion_balance () =
  let drive = count "disk.seek_us" + count "disk.rotational_wait_us" + count "disk.transfer_us" in
  (drive, prof_disk ())
