(* The causal span profiler and the on-pack flight recorder: span trees
   accumulate by code path and survive exceptions, disk charges land in
   the span that caused them and balance the drive's aggregate counters
   exactly, the flight record sealed before a crash is adopted at the
   next boot and readable through the executive, and fixed-seed runs
   produce byte-identical span trees and pack images. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sector = Alto_disk.Sector
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Flight = Alto_fs.Flight
module System = Alto_os.System
module Executive = Alto_os.Executive
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Trace = Alto_obs.Trace

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let fresh () = Obs.reset ()

let create_file fs name content =
  match File.create fs ~name with
  | Error e -> Alcotest.failf "create %s: %a" name File.pp_error e
  | Ok file -> (
      (match File.write_bytes file ~pos:0 content with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write %s: %a" name File.pp_error e);
      (match File.flush_leader file with
      | Ok () -> ()
      | Error e -> Alcotest.failf "flush %s: %a" name File.pp_error e);
      match Directory.open_root fs with
      | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
      | Ok root -> (
          match Directory.add root ~name (File.leader_name file) with
          | Ok () -> file
          | Error e -> Alcotest.failf "add %s: %a" name Directory.pp_error e))

let find_exn tree name =
  match Prof.find tree name with
  | Some s -> s
  | None -> Alcotest.failf "span %s missing from the tree" name

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {2 The span tree} *)

let test_nested_spans_accumulate () =
  fresh ();
  let clock = Sim_clock.create () in
  for _ = 1 to 3 do
    Prof.span clock "outer" (fun () ->
        Sim_clock.advance_us clock 10;
        Prof.span clock "inner" (fun () -> Sim_clock.advance_us clock 5))
  done;
  let t = Prof.tree () in
  let outer = find_exn t "outer" in
  Alcotest.(check (list string))
    "root has one child" [ "outer" ]
    (List.map (fun (s : Prof.snapshot) -> s.Prof.name) t.Prof.children);
  Alcotest.(check int) "outer calls" 3 outer.Prof.calls;
  Alcotest.(check int) "outer total" 45 outer.Prof.total_us;
  Alcotest.(check int) "outer self" 30 outer.Prof.self_us;
  (match outer.Prof.children with
  | [ inner ] ->
      Alcotest.(check string) "inner nested" "inner" inner.Prof.name;
      Alcotest.(check int) "inner calls" 3 inner.Prof.calls;
      Alcotest.(check int) "inner total" 15 inner.Prof.total_us;
      Alcotest.(check int) "inner self" 15 inner.Prof.self_us
  | _ -> Alcotest.fail "outer should have exactly the inner child");
  (* Same name under a different parent is a different node. *)
  Prof.span clock "inner" (fun () -> Sim_clock.advance_us clock 2);
  let t = Prof.tree () in
  let top_inner =
    List.find
      (fun (s : Prof.snapshot) -> s.Prof.name = "inner")
      t.Prof.children
  in
  Alcotest.(check int) "top-level inner is its own node" 2 top_inner.Prof.total_us;
  Alcotest.(check int) "root total sums children" 47 t.Prof.total_us

let test_exception_still_closes_the_span () =
  fresh ();
  let clock = Sim_clock.create () in
  (try
     Prof.span clock "boom" (fun () ->
         Sim_clock.advance_us clock 7;
         failwith "bang")
   with Failure _ -> ());
  Prof.span clock "after" (fun () -> Sim_clock.advance_us clock 2);
  let t = Prof.tree () in
  let boom = find_exn t "boom" in
  Alcotest.(check int) "raising span still charged" 7 boom.Prof.total_us;
  Alcotest.(check (list string))
    "the next span is a sibling, not a child" [ "after"; "boom" ]
    (List.map (fun (s : Prof.snapshot) -> s.Prof.name) t.Prof.children);
  Alcotest.(check int) "boom has no children" 0 (List.length boom.Prof.children)

let test_notes_mark_zero_cost_causes () =
  fresh ();
  let clock = Sim_clock.create () in
  Prof.span clock "parent" (fun () ->
      Sim_clock.advance_us clock 4;
      Prof.note "hit";
      Prof.note "hit");
  let parent = find_exn (Prof.tree ()) "parent" in
  match parent.Prof.children with
  | [ hit ] ->
      Alcotest.(check string) "note nests under its cause" "hit" hit.Prof.name;
      Alcotest.(check int) "note counts calls" 2 hit.Prof.calls;
      Alcotest.(check int) "note costs nothing" 0 hit.Prof.total_us;
      Alcotest.(check int) "parent keeps its self time" 4 parent.Prof.self_us
  | _ -> Alcotest.fail "expected exactly the note child"

let test_retry_motion_files_under_retry () =
  fresh ();
  let clock = Sim_clock.create () in
  Prof.span clock "op" (fun () ->
      Prof.charge Seek 5;
      Prof.with_retry (fun () ->
          Prof.charge Seek 3;
          Prof.charge Rotation 2));
  let op = find_exn (Prof.tree ()) "op" in
  Alcotest.(check int) "first-attempt seek" 5 op.Prof.seek_us;
  Alcotest.(check int) "no rotation outside retry" 0 op.Prof.rotation_us;
  Alcotest.(check int) "retry motion pooled" 5 op.Prof.retry_us;
  Alcotest.(check int) "disk_us sums the components" 10 (Prof.disk_us op)

(* {2 Integration: attribution balances the drive's books} *)

let test_disk_charges_balance_the_counters () =
  fresh ();
  let drive = Drive.create ~pack_id:5 tiny in
  let fs = Fs.format drive in
  Obs.reset ();
  let clock = Fs.clock fs in
  let file =
    Obs.time clock "test.op_us" (fun () ->
        create_file fs "Books.dat" (String.make 3000 'b'))
  in
  let (_ : (Bytes.t, File.error) result) =
    Obs.time clock "test.op_us" (fun () -> File.read_bytes file ~pos:0 ~len:3000)
  in
  let t = Prof.tree () in
  let op = find_exn t "test.op_us" in
  Alcotest.(check bool) "the operation cost simulated time" true
    (op.Prof.total_us > 0);
  (* The cost is attributed: some span below the operation carries disk
     charges, and the page layer shows up as the cause. *)
  let charged =
    List.exists (fun s -> Prof.disk_us s > 0) (Prof.flatten op)
  in
  Alcotest.(check bool) "disk time lands inside the operation" true charged;
  let (_ : Prof.snapshot) = find_exn op "page.read" in
  (* Conservation: the four components summed over the whole tree are
     exactly the drive's motion counters — not within a tolerance. *)
  let counter name =
    match Obs.find name with
    | Some (Obs.Counter v) -> v
    | _ -> Alcotest.failf "no counter %s" name
  in
  let totals = Prof.disk_totals () in
  Alcotest.(check int) "seek+retry vs disk counters"
    (counter "disk.seek_us" + counter "disk.rotational_wait_us"
    + counter "disk.transfer_us")
    (totals.Prof.t_seek_us + totals.Prof.t_rotation_us
    + totals.Prof.t_transfer_us + totals.Prof.t_retry_us)

(* The retry ladder's recalibrations move the heads too: with restores
   in the mix, the span tree and the request tracer must still each sum
   to exactly the drive's motion counters. *)
let test_restores_balance_every_book () =
  fresh ();
  let drive = Drive.create ~pack_id:5 tiny in
  let clock = Drive.clock drive in
  Drive.set_soft_errors drive ~seed:5 ~rate:0.8;
  let ctx = Trace.start ~clock ~origin:"test" ~name:"salvage" in
  Prof.span clock "salvage" (fun () ->
      Trace.with_current (Some ctx) (fun () ->
          for i = 0 to 40 do
            let (_ : (unit, Drive.error) result) =
              Reliable.run ~policy:Reliable.salvage_policy drive
                (Disk_address.of_index (i * 29 mod Drive.sector_count drive))
                { Drive.op_none with value = Some Drive.Read }
                ~value:(Array.make Sector.value_words Word.zero) ()
            in
            ()
          done));
  Trace.finish ctx ~status:"done";
  let counter name =
    match Obs.find name with
    | Some (Obs.Counter v) -> v
    | _ -> Alcotest.failf "no counter %s" name
  in
  Alcotest.(check bool) "the ladder restored" true (counter "disk.restores" > 0);
  let motion =
    counter "disk.seek_us" + counter "disk.rotational_wait_us" + counter "disk.transfer_us"
  in
  let t = Prof.disk_totals () in
  Alcotest.(check int) "span tree vs disk counters" motion
    (t.Prof.t_seek_us + t.Prof.t_rotation_us + t.Prof.t_transfer_us + t.Prof.t_retry_us);
  let a_s, a_r, a_x = Trace.attributed () in
  let u_s, u_r, u_x = Trace.untraced () in
  Alcotest.(check int) "tracer vs disk counters" motion (a_s + a_r + a_x + u_s + u_r + u_x)

(* The executive's [profile] prints {!Prof.pp}: the tree, then the
   hottest spans by self time. *)
let test_profile_command_prints_the_tree () =
  fresh ();
  let system = System.boot ~drive:(Drive.create ~pack_id:8 tiny) () in
  Keyboard.feed (System.keyboard system) "scavenge\nprofile 3\nquit\n";
  let (_ : Executive.outcome) = Executive.run system in
  let lines = Display.lines (System.display system) in
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let rec split seen = function
    | [] -> Alcotest.fail "no \"top 3 by self time:\" line"
    | line :: rest when starts_with "top 3 by self time:" line -> (seen, rest)
    | line :: rest ->
        let node = starts_with "scavenger." (String.trim line) && contains line "x total" in
        split (seen || node) rest
  in
  let scavenger_seen, rows = split false lines in
  Alcotest.(check bool) "a scavenger. node precedes the top list" true scavenger_seen;
  match rows with
  | a :: b :: c :: _ ->
      List.iter
        (fun row ->
          if not (contains row "us self (") then Alcotest.failf "not a top row: %S" row)
        [ a; b; c ]
  | _ -> Alcotest.failf "fewer than three top rows"

(* {2 The flight recorder} *)

(* Runs before any test adopts a record: a pack that predates the
   recorder mounts and recovers exactly as before. *)
let test_old_pack_without_a_record_boots () =
  fresh ();
  let drive = Drive.create ~pack_id:6 tiny in
  let fs = Fs.format drive in
  let (_ : File.t) = create_file fs "Old.dat" "pre-recorder pack" in
  Alcotest.(check bool) "mutation left the pack dirty" true (Fs.dirty fs);
  let system = System.boot ~drive () in
  Alcotest.(check bool) "recovery ran and cleaned the pack" false
    (Fs.dirty (System.fs system));
  Alcotest.(check bool) "nothing was adopted" true (Flight.adopted () = None);
  Keyboard.feed (System.keyboard system) "blackbox\nquit\n";
  let (_ : Executive.outcome) = Executive.run system in
  Alcotest.(check bool) "blackbox reports the absence" true
    (contains
       (Display.contents (System.display system))
       "no flight record adopted")

let test_flight_record_round_trip () =
  fresh ();
  let drive = Drive.create ~pack_id:7 tiny in
  let system = System.boot ~drive () in
  Keyboard.feed (System.keyboard system) "put Log.txt black box test\nquit\n";
  let outcome = Executive.run system in
  Alcotest.(check bool) "first session quit" true outcome.Executive.quit;
  Alcotest.(check bool) "quit left the pack clean" false
    (Fs.dirty (System.fs system));
  (* The shutdown sealed a record into the catalogue. *)
  (match Directory.open_root (System.fs system) with
  | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  | Ok root -> (
      match Directory.lookup root Flight.file_name with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.failf "%s not catalogued" Flight.file_name
      | Error e -> Alcotest.failf "lookup: %a" Directory.pp_error e));
  (* The next incarnation crashes: a mutation with no clean shutdown. *)
  let (_ : File.t) = create_file (System.fs system) "Unsaved.dat" "lost work" in
  Alcotest.(check bool) "crash left the pack dirty" true
    (Fs.dirty (System.fs system));
  (* Reboot. The dirty mount adopts the record sealed at the last quit,
     then recovery cleans the volume. *)
  let reborn = System.boot ~drive () in
  Alcotest.(check bool) "recovery cleaned the pack" false
    (Fs.dirty (System.fs reborn));
  (match Flight.adopted () with
  | None -> Alcotest.fail "no flight record adopted"
  | Some record ->
      Alcotest.(check bool) "record carries the magic" true
        (contains record "altos.flight/1");
      Alcotest.(check bool) "record names its reason" true
        (contains record "\"reason\":\"quit\"");
      Alcotest.(check bool) "record snapshots the metrics" true
        (contains record "\"metrics\""));
  (* And the executive can read the black box aloud. *)
  Keyboard.feed (System.keyboard reborn) "blackbox\nquit\n";
  let (_ : Executive.outcome) = Executive.run reborn in
  Alcotest.(check bool) "blackbox prints the record" true
    (contains (Display.contents (System.display reborn)) "altos.flight/1")

(* {2 Determinism} *)

let test_fixed_seed_runs_are_identical () =
  let run () =
    Obs.reset ();
    (* Drain the recorder's ring so both runs seal from the same state,
       then re-arm it: the flight file's bytes are part of the image. *)
    Flight.disable ();
    Flight.enable ();
    let drive = Drive.create ~pack_id:11 tiny in
    let fs = Fs.format drive in
    Drive.set_soft_errors drive ~seed:77 ~rate:0.0;
    let clock = Fs.clock fs in
    Obs.time clock "run.session_us" (fun () ->
        let a = create_file fs "A.dat" (String.make 700 'a') in
        let (_ : File.t) = create_file fs "B.dat" (String.make 1400 'b') in
        (match File.read_bytes a ~pos:0 ~len:700 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "read: %a" File.pp_error e);
        match Scavenger.scavenge drive with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "scavenge: %s" msg);
    (Prof.tree (), drive)
  in
  let tree1, drive1 = run () in
  let tree2, drive2 = run () in
  Alcotest.(check bool) "span trees identical" true (tree1 = tree2);
  let n = Drive.sector_count drive1 in
  Alcotest.(check int) "same pack size" n (Drive.sector_count drive2);
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let a = Drive.peek drive1 (Disk_address.of_index i) in
    let b = Drive.peek drive2 (Disk_address.of_index i) in
    if a <> b then incr mismatches
  done;
  Alcotest.(check int) "pack images byte-identical" 0 !mismatches

let () =
  Alcotest.run "alto prof"
    [
      ( "spans",
        [
          ("nested spans accumulate", `Quick, test_nested_spans_accumulate);
          ("exception still closes", `Quick, test_exception_still_closes_the_span);
          ("notes mark zero-cost causes", `Quick, test_notes_mark_zero_cost_causes);
          ("retry motion files under retry", `Quick, test_retry_motion_files_under_retry);
          ("charges balance the counters", `Quick, test_disk_charges_balance_the_counters);
          ("restores balance every book", `Quick, test_restores_balance_every_book);
          ("profile prints the tree", `Quick, test_profile_command_prints_the_tree);
        ] );
      ( "flight",
        [
          ("old pack without a record", `Quick, test_old_pack_without_a_record_boots);
          ("round trip across a crash", `Quick, test_flight_record_round_trip);
        ] );
      ( "determinism",
        [ ("fixed-seed runs identical", `Quick, test_fixed_seed_runs_are_identical) ] );
    ]
