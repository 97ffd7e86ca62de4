(* The AltOS benchmark's command line.

     main.exe --workload session|scavenge|serve|rebuild --seed N
              --seconds S --trace 0|1 [--trace-file F]

   Prints a readable report, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones. *)

open Altbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-file F]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        if !seconds = None then usage ();
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--trace-file" :: v :: rest ->
        trace_file := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      if not (List.mem_assoc workload Runner.workloads) then begin
        Printf.eprintf "unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map fst Runner.workloads));
        exit 2
      end;
      let cfg =
        {
          Runner.workload;
          seed;
          seconds;
          trace;
          size = Bench_types.Full;
          trace_file = (if trace then !trace_file else None);
        }
      in
      let r = Runner.run cfg in
      Printf.printf "altbench %s seed %d: %d repetitions, %s run\n" workload seed
        (List.length r.Runner.reps) (if trace then "traced" else "untraced");
      List.iteri
        (fun i (traced, setup, host, speed, heap) ->
          Printf.printf "  rep %2d: set-up %.4f s, phase %.4f s host, speed factor %.3f, peak heap %.2f MB%s\n" i setup
            host speed heap
            (if traced then " (traced)" else ""))
        r.Runner.reps;
      List.iter (fun n -> Printf.printf "  %s\n" n) r.Runner.notes;
      List.iter
        (fun ((d : Runner.def), v) -> Printf.printf "  %-32s %16.6f %s\n" d.Runner.name v d.Runner.unit)
        r.Runner.metrics;
      Printf.printf "fingerprint %s\n" r.Runner.fingerprint;
      List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) r.Runner.problems;
      print_endline (Runner.result_json r)
  | _ -> usage ()
