(* Crash consistency: the power fails at an arbitrary disk-operation
   boundary in the middle of real workloads; one scavenge later the
   volume must be sound and no file may ever contain torn or alien
   bytes. This is the property §3.3's label discipline was designed
   for — "recovery from crashes and resistance to misuse" (§1). *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fault = Alto_disk.Fault
module Reliable = Alto_disk.Reliable
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Flight = Alto_fs.Flight
module Checkpoint = Alto_world.Checkpoint
module World = Alto_world.World
module System = Alto_os.System
module Crash_harness = Alto_os.Crash_harness

let small_geometry = { Geometry.diablo_31 with Geometry.model = "crash"; cylinders = 25 }

(* Deterministic per-version page contents: any readable page of file
   [seed] must match version 1 or version 2 exactly. *)
let pattern ~seed ~version n =
  String.init n (fun i -> Char.chr (32 + (((i / 17) + (seed * 31) + (version * 47)) mod 90)))

let build () =
  let drive = Drive.create ~pack_id:3 small_geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  (* Ten files with version-1 contents. *)
  let files =
    List.init 10 (fun seed ->
        let name = Printf.sprintf "C%02d.dat" seed in
        let file =
          match File.create fs ~name with Ok f -> f | Error _ -> failwith "create"
        in
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:1 (800 + (seed * 300))) with
        | Ok () -> ()
        | Error _ -> failwith "write");
        (match Directory.add root ~name (File.leader_name file) with
        | Ok () -> ()
        | Error _ -> failwith "add");
        (name, seed, file))
  in
  (drive, fs, root, files)

(* The workload that gets interrupted: overwrite every file with
   version 2 (some longer, some shorter), delete two files, create two
   new ones. *)
let workload fs root files =
  List.iter
    (fun (name, seed, file) ->
      if seed mod 5 = 3 then begin
        (match File.delete file with Ok () -> () | Error _ -> ());
        match Directory.remove root name with Ok _ -> () | Error _ -> ()
      end
      else begin
        let n = 800 + (seed * 300) + if seed mod 2 = 0 then 600 else -300 in
        (match File.truncate file ~len:0 with Ok () -> () | Error _ -> ());
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:2 n) with
        | Ok () -> ()
        | Error _ -> ());
        match File.flush_leader file with Ok () -> () | Error _ -> ()
      end)
    files;
  List.iter
    (fun seed ->
      let name = Printf.sprintf "N%02d.dat" seed in
      match File.create fs ~name with
      | Ok f -> (
          (match File.write_bytes f ~pos:0 (pattern ~seed:(seed + 50) ~version:2 1200) with
          | Ok () -> ()
          | Error _ -> ());
          match Directory.add root ~name (File.leader_name f) with
          | Ok () -> ()
          | Error _ -> ())
      | Error _ -> ())
    [ 90; 91 ]

(* After recovery: every page of every catalogued file must match the
   corresponding page of some version of that file's pattern — no torn
   pages, no alien bytes. *)
let verify fs' =
  let root' =
    match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root after"
  in
  let entries =
    match Directory.entries root' with Ok e -> e | Error _ -> failwith "entries"
  in
  List.iter
    (fun (e : Directory.entry) ->
      let name = e.Directory.entry_name in
      let seed =
        if String.length name >= 3 && (name.[0] = 'C' || name.[0] = 'N') then
          match int_of_string_opt (String.sub name 1 2) with
          | Some s -> Some (if name.[0] = 'N' then s - 40 else s)
          | None -> None
        else None
      in
      match seed with
      | None -> () (* SysDir etc. *)
      | Some seed -> (
          match File.open_leader fs' e.Directory.entry_file with
          | Error err ->
              Alcotest.failf "%s unopenable after recovery: %a" name File.pp_error err
          | Ok f -> (
              let len = File.byte_length f in
              match File.read_bytes f ~pos:0 ~len with
              | Error err -> Alcotest.failf "%s unreadable: %a" name File.pp_error err
              | Ok bytes ->
                  let got = Bytes.to_string bytes in
                  (* Compare page by page against both versions (a crash
                     mid-overwrite legitimately leaves a prefix of v2 and
                     a suffix of v1 at page granularity). *)
                  let v1 = pattern ~seed ~version:1 (len + 4096) in
                  let v2 = pattern ~seed ~version:2 (len + 4096) in
                  let pages = (len + 511) / 512 in
                  for p = 0 to pages - 1 do
                    let lo = p * 512 in
                    let plen = min 512 (len - lo) in
                    let slice = String.sub got lo plen in
                    let matches v = String.equal slice (String.sub v lo plen) in
                    if not (matches v1 || matches v2) then
                      Alcotest.failf "%s page %d holds torn or alien bytes" name p
                  done)))
    entries

let crash_at budget =
  let drive, fs, root, files = build () in
  Drive.set_power_budget drive (Some budget);
  let crashed =
    match workload fs root files with
    | () -> false
    | exception Drive.Power_failure -> true
  in
  Drive.set_power_budget drive None;
  (* The machine is gone; all in-core state (fs handle, file handles,
     the allocation map!) is lost. Recovery starts from the drive. *)
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge after crash at %d: %s" budget msg
  | Ok (fs', _report) ->
      verify fs';
      (match Fs.mount drive with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "remount after crash at %d: %s" budget msg);
      crashed

let test_crash_sweep_early () =
  (* Crash inside the first few dozen operations — mid-truncate,
     mid-free, mid-first-write. *)
  List.iter
    (fun budget -> ignore (crash_at budget))
    [ 0; 1; 2; 3; 5; 8; 13; 21; 34; 55 ]

let test_crash_sweep_dense () =
  (* A dense sweep across one region of the workload. *)
  for budget = 60 to 90 do
    ignore (crash_at budget)
  done

let test_no_crash_baseline () =
  (* With a huge budget the workload completes and still verifies. *)
  Alcotest.(check bool) "did not crash" false (crash_at 1_000_000)

let prop_crash_anywhere =
  QCheck.Test.make ~name:"crash at any operation leaves a recoverable pack" ~count:40
    QCheck.(int_bound 400)
    (fun budget ->
      match crash_at budget with _ -> true | exception _ -> false)

let test_crash_during_world_swap () =
  (* OutLoad is hundreds of sequential writes; a crash mid-swap must
     leave both the volume and the previous world file usable. *)
  let geometry = { Geometry.diablo_31 with Geometry.model = "w"; cylinders = 80 } in
  let drive = Drive.create ~pack_id:4 geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let state =
    match Checkpoint.state_file fs ~directory:root ~name:"W.state" with
    | Ok f -> f
    | Error _ -> failwith "state"
  in
  let memory = Alto_machine.Memory.create () in
  let cpu = Alto_machine.Cpu.create memory in
  Alto_machine.Memory.write memory 1234 (Word.of_int 0xAAAA);
  (match World.out_load cpu state with Ok () -> () | Error _ -> failwith "first save");
  (* Second save dies halfway through. *)
  Alto_machine.Memory.write memory 1234 (Word.of_int 0xBBBB);
  Drive.set_power_budget drive (Some 150);
  (match World.out_load cpu state with
  | Ok () -> Alcotest.fail "should have crashed"
  | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Drive.set_power_budget drive None;
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', _) -> (
      let root' =
        match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root"
      in
      match Directory.lookup root' "W.state" with
      | Ok (Some e) -> (
          match File.open_leader fs' e.Directory.entry_file with
          | Error err -> Alcotest.failf "state file unopenable: %a" File.pp_error err
          | Ok f -> (
              (* The image is a page-level mix of old and new world; both
                 had 0xAAAA or 0xBBBB at 1234, and everything else equal,
                 so the restored world must be coherent except possibly
                 that word. *)
              match World.read_saved_memory f ~pos:1234 ~len:1 with
              | Ok [| w |] ->
                  let v = Word.to_int w in
                  Alcotest.(check bool) "word is one of the two versions" true
                    (v = 0xAAAA || v = 0xBBBB)
              | Ok _ | Error _ ->
                  (* A crash very early can leave the header mid-write;
                     peek_registers failing cleanly is acceptable — what
                     is not acceptable is a crash of our own machinery. *)
                  ()))
      | Ok None | Error _ -> Alcotest.fail "state file lost entirely")

(* {2 The crash point and the torn sector} *)

(* A small committed volume plus one file with a delayed overwrite
   pending in the track buffers — the flush sweep is the write the
   crash-point tests aim at. *)
let committed_with_pending_overwrite () =
  let drive, fs, _root, files = build () in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush2");
  let _, _, f0 = List.hd files in
  (match File.write_bytes f0 ~pos:0 (pattern ~seed:0 ~version:2 800) with
  | Ok () -> ()
  | Error _ -> failwith "overwrite");
  (drive, fs)

let torn_sectors drive =
  List.filter
    (fun i -> Drive.is_torn drive (Disk_address.of_index i))
    (List.init (Drive.sector_count drive) Fun.id)

let test_clean_crash_point_tears_nothing () =
  let drive, fs = committed_with_pending_overwrite () in
  Drive.set_crash_point drive ~after_writes:0 ();
  Alcotest.(check bool) "armed" true (Drive.crash_pending drive);
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Alcotest.(check bool) "fired" false (Drive.crash_pending drive);
  Alcotest.(check (list int)) "no sector torn" [] (torn_sectors drive)

let test_cancelled_crash_point_never_fires () =
  let drive, fs = committed_with_pending_overwrite () in
  Drive.set_crash_point drive ~tear:Drive.Torn_value ~after_writes:3 ();
  Drive.clear_crash_point drive;
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  Alcotest.(check (list int)) "no sector torn" [] (torn_sectors drive)

let test_torn_sector_fails_until_rewritten () =
  let drive, fs = committed_with_pending_overwrite () in
  Drive.set_crash_point drive ~tear:Drive.Torn_value ~after_writes:0 ();
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Drive.clear_crash_point drive;
  let addr =
    match torn_sectors drive with
    | [ i ] -> Disk_address.of_index i
    | l -> Alcotest.failf "expected one torn sector, found %d" (List.length l)
  in
  (* The torn part is detectably unreadable... *)
  let buf = Array.make Sector.value_words Word.zero in
  (match
     Reliable.run ~policy:Reliable.salvage_policy drive addr
       { Drive.op_none with value = Some Drive.Read }
       ~value:buf ()
   with
  | Ok () -> Alcotest.fail "a torn value must not read back"
  | Error _ -> ());
  (* ...and a full rewrite of the part heals it, as production paths do. *)
  (match
     Reliable.run drive addr
       { Drive.op_none with value = Some Drive.Write }
       ~value:(Array.make Sector.value_words (Word.of_int 0x5A5A))
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healing rewrite failed: %a" Drive.pp_error e);
  Alcotest.(check bool) "torn state cleared" false (Drive.is_torn drive addr);
  match
    Reliable.run ~policy:Reliable.salvage_policy drive addr
      { Drive.op_none with value = Some Drive.Read }
      ~value:buf ()
  with
  | Ok () -> Alcotest.(check int) "fresh words" 0x5A5A (Word.to_int buf.(0))
  | Error e -> Alcotest.failf "healed sector unreadable: %a" Drive.pp_error e

(* {2 The flight recorder's own seal} *)

let test_damaged_flight_seal_reads_as_absent () =
  let drive = Drive.create ~pack_id:6 small_geometry in
  let fs = Fs.format drive in
  Flight.enable ();
  Flight.flush ~reason:"test" fs;
  (match Flight.adopt fs with
  | Some _ -> ()
  | None -> Alcotest.fail "an intact seal must adopt");
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let log =
    match Directory.lookup root Flight.file_name with
    | Ok (Some e) -> (
        match File.open_leader fs e.Directory.entry_file with
        | Ok f -> f
        | Error _ -> failwith "open log")
    | Ok None | Error _ -> failwith "no flight record file"
  in
  (* One byte garbled mid-payload: the checksum must reject the seal. *)
  let len = File.byte_length log in
  (match File.write_bytes log ~pos:(len - 10) "X" with
  | Ok () -> ()
  | Error _ -> failwith "garble");
  (match Flight.adopt fs with
  | None -> ()
  | Some _ -> Alcotest.fail "a garbled seal must read as absent");
  (* A truncated record — the torn tail a crash mid-seal leaves — must
     fail the header's length check, not hand garbage to a consumer. *)
  (match File.truncate log ~len:(len - 7) with
  | Ok () -> ()
  | Error _ -> failwith "truncate");
  (match Flight.adopt fs with
  | None -> ()
  | Some _ -> Alcotest.fail "a truncated seal must read as absent");
  Flight.disable ()

(* {2 Boot meets an unmountable pack} *)

let test_boot_scavenges_before_formatting () =
  let drive, fs, _root, _files = build () in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (* Garble the descriptor's leader label: the pack no longer mounts,
     but every file is still on the platter — boot must reach for the
     scavenger, not the formatter. *)
  Fault.corrupt_part
    (Random.State.make [| 7 |])
    drive Fs.descriptor_leader_address Sector.Label;
  (match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mount should fail on a garbled descriptor"
  | Error _ -> ());
  let sys = System.boot ~drive () in
  let fs' = System.fs sys in
  let root' =
    match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root"
  in
  (match Directory.lookup root' "C00.dat" with
  | Ok (Some e) -> (
      match File.open_leader fs' e.Directory.entry_file with
      | Ok f -> Alcotest.(check int) "C00.dat intact" 800 (File.byte_length f)
      | Error err -> Alcotest.failf "C00.dat unopenable: %a" File.pp_error err)
  | Ok None -> Alcotest.fail "C00.dat lost: boot formatted instead of scavenging"
  | Error e -> Alcotest.failf "root entries: %a" Directory.pp_error e);
  Flight.disable ()

(* {2 The harness, in miniature} *)

let test_harness_small_sweep () =
  let t = Crash_harness.run ~points_per_workload:3 () in
  List.iter print_endline t.Crash_harness.violation_log;
  Alcotest.(check int) "no invariant violations" 0 t.Crash_harness.violations;
  Alcotest.(check int) "45 trials" 45 t.Crash_harness.trials;
  Alcotest.(check bool) "crash points fired" true (t.Crash_harness.crash_points > 0);
  Alcotest.(check bool) "torn variants fired" true (t.Crash_harness.torn_points > 0)

let () =
  Alcotest.run "alto crash consistency"
    [
      ( "power failure",
        [
          ("early sweep", `Quick, test_crash_sweep_early);
          ("dense sweep", `Quick, test_crash_sweep_dense);
          ("baseline without crash", `Quick, test_no_crash_baseline);
          ("mid world swap", `Quick, test_crash_during_world_swap);
          QCheck_alcotest.to_alcotest ~verbose:false prop_crash_anywhere;
        ] );
      ( "crash points and torn sectors",
        [
          ("a clean crash point tears nothing", `Quick, test_clean_crash_point_tears_nothing);
          ("a cancelled crash point never fires", `Quick, test_cancelled_crash_point_never_fires);
          ("a torn sector fails until rewritten", `Quick, test_torn_sector_fails_until_rewritten);
          ("a damaged flight seal reads as absent", `Quick, test_damaged_flight_seal_reads_as_absent);
          ("boot scavenges before formatting", `Quick, test_boot_scavenges_before_formatting);
          ("the harness in miniature", `Quick, test_harness_small_sweep);
        ] );
    ]
