(* Self-tests of the benchmark: small cuts of every workload pass their
   oracles, the simulated fingerprint follows the seed, damage behind an
   oracle's back is counted as failure, and the metric table matches
   BENCHMARK.json. *)

open Altbench
module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Label = Alto_fs.Label
module File_id = Alto_fs.File_id

let workloads = List.map fst Runner.workloads

let run ?(trace = false) workload seed =
  Runner.run
    {
      Runner.workload;
      seed;
      seconds = 0.0;
      trace;
      size = Bench_types.Small;
      trace_file = None;
    }

let metric r name =
  match List.find_opt (fun ((d : Runner.def), _) -> d.Runner.name = name) r.Runner.metrics with
  | Some (_, v) -> v
  | None -> Alcotest.failf "metric %s missing" name

let small_runs_pass () =
  List.iter
    (fun w ->
      let r = run w 1 in
      if not r.Runner.correct then
        Alcotest.failf "%s: %s" w (String.concat "; " r.Runner.problems);
      Alcotest.(check int) (w ^ " failed") 0 r.Runner.failed;
      Alcotest.(check bool) (w ^ " attempted") true (r.Runner.attempted > 0);
      Alcotest.(check bool) (w ^ " sim ops/s") true (metric r "sim_ops_per_s" > 0.0))
    workloads

let traced_run_reports_layers () =
  let r = run ~trace:true "session" 1 in
  Alcotest.(check bool) "correct" true r.Runner.correct;
  Alcotest.(check bool) "file calls" true (metric r "file.calls" > 0.0);
  Alcotest.(check bool) "file self time" true (metric r "file.host_self_ms" > 0.0);
  Alcotest.(check bool) "drive ops" true (metric r "drive.ops" > 0.0);
  Alcotest.(check (float 0.0)) "no failures" 0.0 (metric r "failed_frac");
  ignore (metric r "bench.trace_overhead_pct" : float)

let fingerprint_follows_seed () =
  List.iter
    (fun w ->
      let a = run w 3 and b = run w 3 and c = run w 4 in
      Alcotest.(check string) (w ^ " same seed") a.Runner.fingerprint b.Runner.fingerprint;
      Alcotest.(check bool) (w ^ " other seed") false (String.equal a.Runner.fingerprint c.Runner.fingerprint))
    workloads

(* Flip one byte in every user data page, under the file system. *)
let corrupt drive =
  for s = 0 to Drive.sector_count drive - 1 do
    let a = Disk_address.of_index s in
    let sec = Drive.peek drive a in
    match Label.of_words (Sector.part_of sec Sector.Label) with
    | Ok l
      when l.Label.page >= 1 && l.Label.length > 0
           && (not (File_id.is_directory l.Label.fid))
           && l.Label.fid.File_id.serial >= File_id.first_user_serial ->
        let value = Sector.part_of sec Sector.Value in
        value.(0) <- Word.of_int (Word.to_int value.(0) lxor 0x0101);
        Drive.poke drive a Sector.Value value
    | Ok _ | Error _ -> ()
  done

let tampering_is_caught () =
  Fun.protect
    ~finally:(fun () -> Bench_types.tamper := ignore)
    (fun () ->
      Bench_types.tamper := corrupt;
      List.iter
        (fun w ->
          let r = run w 1 in
          Alcotest.(check bool) (w ^ " flagged") false r.Runner.correct;
          Alcotest.(check bool) (w ^ " failures counted") true (r.Runner.failed > 0))
        workloads)

(* The "name" fields of one array of BENCHMARK.json. *)
let names_in json section =
  let start = Str.search_forward (Str.regexp_string ("\"" ^ section ^ "\"")) json 0 in
  let stop = String.index_from json start ']' in
  let body = String.sub json start (stop - start) in
  let re = Str.regexp "\"name\": *\"\\([^\"]*\\)\"" in
  let rec go pos acc =
    match Str.search_forward re body pos with
    | i -> go (i + 1) (Str.matched_group 1 body :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let table_matches_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let names defs = List.map (fun (d : Runner.def) -> d.Runner.name) defs in
  Alcotest.(check (list string)) "end_to_end" (names Runner.end_to_end) (names_in json "end_to_end");
  Alcotest.(check (list string)) "per_layer" (names Runner.per_layer) (names_in json "per_layer");
  Alcotest.(check (list string)) "workloads" workloads (names_in json "workloads")

let () =
  Alcotest.run "altbench"
    [
      ( "altbench",
        [
          Alcotest.test_case "small runs pass every oracle" `Quick small_runs_pass;
          Alcotest.test_case "traced run reports per-layer metrics" `Quick traced_run_reports_layers;
          Alcotest.test_case "fingerprint follows the seed" `Quick fingerprint_follows_seed;
          Alcotest.test_case "corruption behind an oracle is caught" `Quick tampering_is_caught;
          Alcotest.test_case "metric table matches BENCHMARK.json" `Quick table_matches_benchmark_json;
        ] );
    ]
