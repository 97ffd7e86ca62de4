(* One benchmark run: repetitions of a workload's set-up and measured
   phase until the time is up, then every metric, by name and unit.

   Every repetition replays the same seed from a fresh registry, so its
   simulated results must come out identical; the runner checks that, as
   it checks the books of every phase and every oracle's verdict. With
   tracing off it reports the end-to-end metrics; with tracing on it
   interleaves untraced and traced repetitions, reports the per-layer
   metrics, and writes the spans of the last traced repetition as a
   Chrome trace. *)

open Bench_types
module Obs = Alto_obs.Obs
module J = Alto_obs.Json

type better = Higher | Lower

(* [Sim] values repeat exactly for a seed and go into the fingerprint;
   [Host] values are measured on the host clock or allocator. *)
type kind = Sim | Host

type def = { name : string; unit : string; better : better; kind : kind }

let def ?(kind = Sim) name unit better = { name; unit; better; kind }

let end_to_end =
  [
    def ~kind:Host "setup_s" "s" Lower;
    def ~kind:Host "host_ops_per_s" "1/s" Higher;
    def ~kind:Host "peak_heap_mb" "MB" Lower;
    def "sim_ops_per_s" "1/s" Higher;
    def "sim_p50_ms" "ms" Lower;
    def "sim_p99_ms" "ms" Lower;
    def "sim_words_per_s" "words/s" Higher;
  ]

let called_layers =
  Spans.[ File; Directory; Hints; World; Scavenger; Fsck; File_server; Replica ]


let per_layer =
  List.concat_map
    (fun l ->
      let n = Spans.layer_name l in
      [
        def (n ^ ".calls") "count" Lower;
        def ~kind:Host (n ^ ".host_self_ms") "ms" Lower;
        def ~kind:Host (n ^ ".alloc_kw") "kw" Lower;
      ])
    called_layers
  @ [
      def "drive.ops" "count" Lower;
      def "drive.seeks" "count" Lower;
      def "drive.seek_ms" "ms" Lower;
      def "drive.rotation_ms" "ms" Lower;
      def "drive.transfer_ms" "ms" Lower;
      def "drive.words_read" "words" Lower;
      def "drive.words_written" "words" Lower;
      def "reliable.retries" "count" Lower;
      def "reliable.exhausted" "count" Lower;
      def "reliable.retry_ms" "ms" Lower;
      def "sched.sweeps" "count" Lower;
      def "sched.requests_per_sweep" "ratio" Higher;
      def "sched.merged_batches" "count" Higher;
      def "bio.hit_ratio" "ratio" Higher;
      def "bio.fills" "count" Lower;
      def "bio.fill_use_ratio" "ratio" Higher;
      def "bio.evictions" "count" Lower;
      def "bio.sectors_per_flush" "ratio" Higher;
      def "label_cache.hit_ratio" "ratio" Higher;
      def "label_cache.invalidations" "count" Lower;
      def "page.read_ms" "ms" Lower;
      def "page.write_ms" "ms" Lower;
      def "fs.page_allocations" "count" Lower;
      def "fs.label_check_aborts" "count" Lower;
      def "hints.hit_ratio" "ratio" Higher;
      def "directory.lookups" "count" Lower;
      def "world.outload_ms" "ms" Lower;
      def "world.inload_ms" "ms" Lower;
    ]
  @ List.map (fun p -> def ("scavenger." ^ p ^ "_ms") "ms" Lower) Books.scavenger_passes
  @ [
      def "scavenger.repairs" "count" Lower;
      def "fsck.findings" "count" Lower;
      def "fsck.violations" "count" Lower;
      def "server.nak_frac" "ratio" Lower;
      def "server.queue_wait_p99_ms" "ms" Lower;
      def "server.service_p99_ms" "ms" Lower;
      def "activity.steps" "count" Lower;
      def "activity.shared_sweeps" "count" Higher;
      def "generator.lag_p99_ms" "ms" Lower;
      def "net.dropped" "count" Lower;
      def "net.duped" "count" Lower;
      def "net.delayed" "count" Lower;
      def "replica.resends" "count" Lower;
      def "replica.timeouts" "count" Lower;
      def "replica.rtt_p99_ms" "ms" Lower;
      def "replica.pages_repaired" "count" Lower;
      def "audit.digests" "count" Lower;
      def "trace.spans" "count" Lower;
      def ~kind:Host "bench.trace_overhead_pct" "%" Lower;
      def ~kind:Host "gc.minor_words_per_op" "words/op" Lower;
      def ~kind:Host "gc.major_collections" "count" Lower;
      def "sim_swap_s" "s" Lower;
      def "sim_scavenge_s" "s" Lower;
      def "sim_fsck_s" "s" Lower;
      def "sim_max_rps_at_slo" "1/s" Higher;
      def "sim_rebuild_s" "s" Lower;
      def "failed_frac" "ratio" Lower;
    ]

let workloads : (string * workload) list =
  [ ("session", Session.setup); ("scavenge", Scavenge.setup); ("serve", Serve.setup); ("rebuild", Rebuild.setup) ]

(* {1 One repetition} *)

type rep = {
  speed : float;  (** [Calib.factor] around the repetition. *)
  setup_s : float;  (** Raw host seconds. *)
  peak_words : int;  (** Largest major heap seen during the repetition. *)
  phase : Books.phase;
  outcome : outcome;
  sim : (string * float) list;  (** Every [Sim] per-layer value, in [per_layer] order. *)
  balance : int * int;
  spans : (Spans.layer * Spans.layer_total) list option;  (** Traced repetitions only. *)
  fingerprint : string;
}

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let ms us = float_of_int us /. 1000.0

(* The simulated per-layer values of the phase just measured. *)
let sim_layer_values (o : outcome) calls =
  let c = Books.count in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name o.extra) in
  let fixed =
    [
      ("drive.ops", float_of_int (c "disk.operations"));
      ("drive.seeks", float_of_int (c "disk.seeks"));
      ("drive.seek_ms", ms (c "disk.seek_us"));
      ("drive.rotation_ms", ms (c "disk.rotational_wait_us"));
      ("drive.transfer_ms", ms (c "disk.transfer_us"));
      ("drive.words_read", float_of_int (c "disk.words_read"));
      ("drive.words_written", float_of_int (c "disk.words_written"));
      ("reliable.retries", float_of_int (c "disk.retries"));
      ("reliable.exhausted", float_of_int (c "disk.retry_exhausted"));
      ("reliable.retry_ms", ms (Books.prof_retry ()));
      ("sched.sweeps", float_of_int (c "disk.sched.sweeps"));
      ("sched.requests_per_sweep", ratio (c "disk.sched.requests") (c "disk.sched.sweeps"));
      ("sched.merged_batches", float_of_int (c "disk.sched.merged_batches"));
      ("bio.hit_ratio", ratio (c "fs.bio.hits") (c "fs.bio.hits" + c "fs.bio.misses"));
      ("bio.fills", float_of_int (c "fs.bio.fills"));
      ("bio.fill_use_ratio", ratio (c "fs.bio.hits") (c "fs.bio.fill_sectors"));
      ("bio.evictions", float_of_int (c "fs.bio.evictions"));
      ("bio.sectors_per_flush", ratio (c "fs.bio.flushed_sectors") (c "fs.bio.flushes"));
      ( "label_cache.hit_ratio",
        ratio (c "fs.label_cache.hits") (c "fs.label_cache.hits" + c "fs.label_cache.misses") );
      ("label_cache.invalidations", float_of_int (c "fs.label_cache.invalidations"));
      ("page.read_ms", ms (Books.prof "page.read"));
      ("page.write_ms", ms (Books.prof "page.write"));
      ("fs.page_allocations", float_of_int (c "fs.page_allocations"));
      ("fs.label_check_aborts", float_of_int (c "fs.label_check_aborts"));
      ( "hints.hit_ratio",
        ratio (c "fs.hints.direct.hits") (c "fs.hints.resolutions" + c "fs.hints.failures") );
      ("world.outload_ms", ms (Books.prof "world.outload_us"));
      ("world.inload_ms", ms (Books.prof "world.inload_us"));
    ]
    @ List.map (fun p -> ("scavenger." ^ p ^ "_ms", ms (Books.prof ("scavenger." ^ p)))) Books.scavenger_passes
    @ [
        ("fsck.findings", float_of_int (c "fs.fsck.findings"));
        ("fsck.violations", float_of_int (c "fs.fsck.violations"));
        ("server.nak_frac", ratio (c "server.naks") (c "server.reqs" + c "server.naks"));
        ("server.queue_wait_p99_ms", ms (Books.hist_p99 "trace.wait_us"));
        ("server.service_p99_ms", ms (Books.hist_p99 "trace.service_us"));
        ("activity.steps", float_of_int (c "server.activities.steps"));
        ("activity.shared_sweeps", float_of_int (c "server.activities.shared_sweeps"));
        ("net.dropped", float_of_int (c "net.dropped"));
        ("net.duped", float_of_int (c "net.duped"));
        ("net.delayed", float_of_int (c "net.delayed"));
        ("replica.resends", float_of_int (c "repl.resends"));
        ("replica.timeouts", float_of_int (c "repl.timeouts"));
        ("replica.rtt_p99_ms", ms (Books.hist_p99 "repl.rtt_us"));
        ("replica.pages_repaired", float_of_int (c "repl.pages_repaired"));
        ("audit.digests", float_of_int (c "fs.audit.digests"));
        ("trace.spans", float_of_int (c "trace.spans"));
        ("failed_frac", ratio o.failed o.attempted);
      ]
  in
  List.filter_map
    (fun d ->
      if d.kind = Host then None
      else
        match List.assoc_opt d.name fixed with
        | Some v -> Some (d.name, v)
        | None -> (
            match List.assoc_opt d.name calls with
            | Some v -> Some (d.name, v)
            | None -> Some (d.name, extra d.name)))
    per_layer

(* Canonical text of everything simulated: the digest two runs of one
   seed must share, and two seeds must not. *)
let fingerprint_of ~workload ~seed (o : outcome) sim image =
  let b = Buffer.create 4096 in
  let line k v = Buffer.add_string b (Printf.sprintf "%s=%s\n" k v) in
  line "workload" workload;
  line "seed" (string_of_int seed);
  line "ops" (string_of_int o.ops);
  line "attempted" (string_of_int o.attempted);
  line "failed" (string_of_int o.failed);
  line "sim_ops_per_s" (Printf.sprintf "%.17g" o.sim_ops_per_s);
  line "sim_p50_us" (string_of_int o.sim_p50_us);
  line "sim_p99_us" (string_of_int o.sim_p99_us);
  line "sim_words_per_s" (Printf.sprintf "%.17g" o.sim_words_per_s);
  List.iter (fun (k, v) -> line k (Printf.sprintf "%.17g" v)) sim;
  line "image" image;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The major heap's size, sampled at the end of every major cycle: the
   high-water mark of one repetition (the runtime's own top-heap figure
   never falls, so it cannot tell repetitions apart). *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let heap_peak = ref 0
let (_ : Gc.alarm) = Gc.create_alarm (fun () -> heap_peak := max !heap_peak (heap_words ()))

let run_rep (w : workload) size ~workload ~seed ~traced =
  let before = Calib.measure () in
  Gc.full_major ();
  heap_peak := heap_words ();
  (* Each repetition replays from a fresh registry: trace ids, counters
     and the span tree restart, so the set-up itself is identical. *)
  Obs.reset ();
  let t0 = Spans.now_ns () in
  let phase_fn = w size ~seed in
  let setup_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  if traced then Spans.reset ();
  Books.start ();
  Spans.enabled := traced;
  let outcome = Fun.protect ~finally:(fun () -> Spans.enabled := false) phase_fn in
  let phase = Books.stop () in
  let peak_words = max !heap_peak (heap_words ()) in
  let speed = Calib.factor ~before ~after:(Calib.measure ()) in
  let calls =
    List.map (fun l -> (Spans.layer_name l ^ ".calls", float_of_int (Spans.totals l).Spans.l_calls)) called_layers
  in
  (* Untraced repetitions count no calls; traced ones supply them. *)
  let sim = sim_layer_values outcome (if traced then calls else []) in
  let balance = Books.motion_balance () in
  let spans = if traced then Some (List.map (fun l -> (l, Spans.totals l)) called_layers) else None in
  let image = image_digest outcome.drives in
  let fingerprint_sim = List.filter (fun (k, _) -> not (String.ends_with ~suffix:".calls" k)) sim in
  {
    speed;
    setup_s;
    peak_words;
    phase;
    (* Drop the packs: a run keeps every repetition, and ten 2.5 MB
       packs would swell the heap the next repetition is measured in. *)
    outcome = { outcome with drives = [] };
    sim;
    balance;
    spans;
    fingerprint = fingerprint_of ~workload ~seed outcome fingerprint_sim image;
  }

(* {1 A whole run} *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  trace_file : string option;  (** Where a traced run writes its Chrome trace. *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (def * float) list;  (** In declaration order. *)
  fingerprint : string;
  problems : string list;  (** Why [correct] is false. *)
  notes : string list;
  reps : (bool * float * float * float * float) list;
      (** Per repetition: traced, raw set-up s, raw phase host s, speed factor, peak heap MB. *)
}

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host seconds of the phase, in reference seconds (see [Calib]). *)
let phase_ref_s r = float_of_int r.phase.Books.host_ns /. 1e9 *. r.speed

let heap_mb r = float_of_int (r.peak_words * (Sys.word_size / 8)) /. 1e6

let host_ops_per_s r =
  let s = phase_ref_s r in
  if s <= 0.0 then 0.0 else float_of_int r.outcome.ops /. s

let run cfg =
  let w =
    match List.assoc_opt cfg.workload workloads with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ cfg.workload)
  in
  let start = Spans.now_ns () in
  let elapsed () = float_of_int (Spans.now_ns () - start) /. 1e9 in
  (* Untraced runs repeat at least three times (set-up is a median);
     traced runs alternate untraced and traced, at least two of each. *)
  let min_reps = if cfg.trace then 4 else 3 in
  let rec loop acc i =
    if i >= min_reps && elapsed () >= cfg.seconds then List.rev acc
    else begin
      let traced = cfg.trace && i mod 2 = 1 in
      let r = run_rep w cfg.size ~workload:cfg.workload ~seed:cfg.seed ~traced in
      loop (r :: acc) (i + 1)
    end
  in
  let reps = loop [] 0 in
  let first = List.hd reps in
  let untraced = List.filter (fun r -> r.spans = None) reps in
  let traced = List.filter (fun r -> r.spans <> None) reps in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iteri
    (fun i (r : rep) ->
      if not (String.equal r.fingerprint first.fingerprint) then
        problem "repetition %d's simulated results differ from repetition 0's" i;
      let drive, prof = r.balance in
      if drive <> prof then
        problem "motion books drift in repetition %d: drive counters %d us, span tree %d us" i drive prof)
    reps;
  let attempted = List.fold_left (fun acc r -> acc + r.outcome.attempted) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + r.outcome.failed) 0 reps in
  if failed > 0 then problem "%d of %d checked answers were wrong or failed" failed attempted;
  let o = first.outcome in
  (* Each called layer's host figures, median over traced phases; self
     time in reference milliseconds. *)
  let layer_host =
    List.concat_map
      (fun l ->
        let from pick () =
          median (List.filter_map (fun r -> Option.map (fun s -> pick r (List.assoc l s)) r.spans) traced)
        in
        let n = Spans.layer_name l in
        [
          (n ^ ".host_self_ms", from (fun r t -> t.Spans.l_self_ms *. r.speed));
          (n ^ ".alloc_kw", from (fun _ t -> t.Spans.l_alloc_kw));
        ])
      called_layers
  in
  let value d =
    match d.name with
    | "setup_s" -> median (List.map (fun r -> r.setup_s *. r.speed) reps)
    | "host_ops_per_s" -> median (List.map host_ops_per_s untraced)
    | "peak_heap_mb" -> median (List.map heap_mb reps)
    | "sim_ops_per_s" -> o.sim_ops_per_s
    | "sim_p50_ms" -> ms o.sim_p50_us
    | "sim_p99_ms" -> ms o.sim_p99_us
    | "sim_words_per_s" -> o.sim_words_per_s
    | "bench.trace_overhead_pct" ->
        let host rs = median (List.map phase_ref_s rs) in
        let u = host untraced and t = host traced in
        if u <= 0.0 then 0.0 else (t -. u) /. u *. 100.0
    | "gc.minor_words_per_op" ->
        median (List.map (fun r -> r.phase.Books.minor_words /. float_of_int (max 1 r.outcome.ops)) untraced)
    | "gc.major_collections" ->
        median (List.map (fun r -> float_of_int r.phase.Books.major_collections) untraced)
    | name -> (
        match List.assoc_opt name layer_host with
        | Some figure -> figure ()
        | None -> (
            let source = match traced with r :: _ -> r | [] -> first in
            match List.assoc_opt name source.sim with Some v -> v | None -> 0.0))
  in
  let defs = if cfg.trace then per_layer else end_to_end in
  let metrics = List.map (fun d -> (d, value d)) defs in
  (match cfg.trace_file with
  | Some path when traced <> [] ->
      (* Only a traced repetition resets the recorder, so it still
         holds the last traced repetition's spans. *)
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (J.to_string (Spans.chrome_json ~name:cfg.workload)))
  | _ -> ());
  {
    correct = !problems = [];
    attempted;
    failed;
    metrics;
    fingerprint = first.fingerprint;
    problems = List.rev !problems;
    notes = o.notes;
    reps =
      List.map
        (fun (r : rep) ->
          (r.spans <> None, r.setup_s, float_of_int r.phase.Books.host_ns /. 1e9, r.speed, heap_mb r))
        reps;
  }

(* The last line of a run's output. *)
let result_json r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (d, v) -> (d.name, J.Obj [ ("value", J.Float v); ("unit", J.String d.unit) ]))
                r.metrics) );
       ])

