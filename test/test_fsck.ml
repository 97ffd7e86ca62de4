(* The offline checker: a pure read-only pass over a pack image, run
   against healthy volumes, wrecks, and torn survivors of a crash. It
   needs no live [System] — a raw drive is enough — and its verdict is
   the oracle the crash-injection harness gates on: violations are
   broken recovery promises, findings are damage the self-healing
   machinery absorbs. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Bio = Alto_fs.Bio
module Directory = Alto_fs.Directory
module Fsck = Alto_fs.Fsck
module Scavenger = Alto_fs.Scavenger

let geometry = { Geometry.diablo_31 with Geometry.model = "fsck"; cylinders = 25 }

let pattern seed n =
  String.init n (fun i -> Char.chr (32 + ((i + (seed * 13)) mod 90)))

(* A committed pack: six catalogued files, every delayed write flushed,
   the descriptor marked clean — a consistency point. *)
let build ?(pack_id = 21) () =
  let drive = Drive.create ~pack_id geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let files =
    List.init 6 (fun seed ->
        let name = Printf.sprintf "F%02d.dat" seed in
        let f =
          match File.create fs ~name with Ok f -> f | Error _ -> failwith "create"
        in
        (match File.write_bytes f ~pos:0 (pattern seed (600 + (seed * 300))) with
        | Ok () -> ()
        | Error _ -> failwith "write");
        (match Directory.add root ~name (File.leader_name f) with
        | Ok () -> ()
        | Error _ -> failwith "add");
        (name, f))
  in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "mark_clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush2");
  (drive, fs, root, files)

let has_class cls issues =
  List.exists (fun i -> String.equal i.Fsck.i_class cls) issues

let test_clean_verdict_on_committed_pack () =
  let drive, _, _, _ = build () in
  let r = Fsck.check drive in
  if not (Fsck.clean r) then
    Alcotest.failf "committed pack not clean:@.%a" Fsck.pp_report r;
  Alcotest.(check bool) "descriptor mounts" true r.Fsck.descriptor_ok;
  Alcotest.(check bool) "6 catalogued files" true (r.Fsck.counts.Fsck.catalogued >= 6);
  Alcotest.(check int) "no orphans" 0 r.Fsck.counts.Fsck.orphans

let test_runs_offline_on_a_wreck () =
  (* An unformatted drive: no descriptor, no files, no live [System] —
     the checker must still sweep the labels and report, not raise. *)
  let drive = Drive.create ~pack_id:22 geometry in
  let r = Fsck.check drive in
  Alcotest.(check bool) "descriptor unmountable" false r.Fsck.descriptor_ok;
  Alcotest.(check bool) "reported as a violation" true
    (has_class "descriptor" r.Fsck.violations);
  Alcotest.(check int) "whole pack swept" (Drive.sector_count drive)
    r.Fsck.counts.Fsck.sectors

let test_check_is_read_only () =
  let drive, _, _, _ = build () in
  let before = Drive.write_ops drive in
  ignore (Fsck.check drive : Fsck.report);
  Alcotest.(check int) "no writing operations" before (Drive.write_ops drive)

let test_dangling_entry_is_a_violation () =
  let drive, fs, _, files = build () in
  (* Delete the file's pages but leave the catalogue entry standing:
     a promise [ls] makes and [open] breaks. *)
  let _, f0 = List.hd files in
  (match File.delete f0 with Ok () -> () | Error _ -> failwith "delete");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  let r = Fsck.check drive in
  Alcotest.(check bool) "dangling entry flagged" true
    (has_class "dangling-entry" r.Fsck.violations)

let test_garbled_leader_label_then_scavenge () =
  let drive, fs, root, _ = build () in
  let addr =
    match Directory.lookup root "F01.dat" with
    | Ok (Some e) -> e.Directory.entry_file.Alto_fs.Page.addr
    | Ok None | Error _ -> failwith "lookup"
  in
  ignore fs;
  Fault.corrupt_part (Random.State.make [| 41 |]) drive addr Sector.Label;
  let r = Fsck.check drive in
  Alcotest.(check bool) "headless catalogued file is a violation" true
    (r.Fsck.violations <> []);
  Alcotest.(check bool) "unparseable label is a finding" true
    (has_class "garbage-label" r.Fsck.findings);
  (* The cure the report prescribes: one scavenge, then a second check
     must find every promise restored. *)
  match Scavenger.scavenge ~verify_values:true drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, _) ->
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

let test_torn_page_detected_then_scavenge () =
  let drive, fs, _, files = build () in
  (* Overwrite one committed file (same length), leave the new value
     delayed in the track buffers, and tear the first write of the
     flush sweep — a committed catalogued page is now torn. *)
  let _, f3 = List.nth files 3 in
  (match File.write_bytes f3 ~pos:0 (pattern 77 (600 + (3 * 300))) with
  | Ok () -> ()
  | Error _ -> failwith "overwrite");
  Drive.set_crash_point drive ~tear:Drive.Torn_value ~after_writes:0 ();
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Drive.clear_crash_point drive;
  let torn = ref 0 in
  for i = 0 to Drive.sector_count drive - 1 do
    if Drive.is_torn drive (Disk_address.of_index i) then incr torn
  done;
  Alcotest.(check int) "exactly one sector torn" 1 !torn;
  let r = Fsck.check drive in
  Alcotest.(check bool) "torn catalogued page is a violation" true
    (has_class "torn-page" r.Fsck.violations);
  match Scavenger.scavenge ~verify_values:true drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, _) ->
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

let root_leader fs =
  match Fs.root_dir fs with Some fn -> fn.Alto_fs.Page.addr | None -> failwith "root"

let test_garbled_root_leader_then_scavenge () =
  (* The root's leader keeps its label but its value will not parse, so
     the root does not open. Whatever the scavenger makes of that, the
     checker must pass it. *)
  let drive, fs, _, _ = build () in
  Fault.corrupt_part (Random.State.make [| 43 |]) drive (root_leader fs) Sector.Value;
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, _) ->
      let r = Fsck.check drive in
      if not (Fsck.clean r) then
        Alcotest.failf "scavenged pack not clean:@.%a" Fsck.pp_report r

let test_rebuilt_root_is_catalogued () =
  (* The old root's leader will not read, so the scavenger makes a new
     root under a fresh file id and adopts the old one as an orphan. The
     checker must take the root the descriptor names, not the constant
     root id, or it calls the new root an orphan. *)
  let drive, fs, _, _ = build () in
  Drive.set_value_unreadable drive (root_leader fs) true;
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, report) ->
      Alcotest.(check bool) "root rebuilt" true report.Scavenger.root_rebuilt;
      let r = Fsck.check drive in
      if has_class "orphan" r.Fsck.findings then
        Alcotest.failf "the rebuilt root is called an orphan:@.%a" Fsck.pp_report r

let test_unreadable_descriptor_fails_the_scavenge () =
  (* The descriptor's leader takes writes but its data surface will not
     read back, so no rebuilt descriptor can mount. A value-verifying
     scavenge must say so, not return a pack that fails to mount. *)
  let drive, _, _, _ = build () in
  let leader = Disk_address.of_index 1 in
  Drive.set_value_unreadable drive leader true;
  (match Scavenger.scavenge ~verify_values:true drive with
  | Ok _ -> Alcotest.fail "scavenge returned Ok on a pack that cannot mount"
  | Error _ -> ());
  Alcotest.(check bool) "the pack indeed does not mount" true
    (Result.is_error (Fs.mount drive))

let () =
  Alcotest.run "alto fsck"
    [
      ( "offline checker",
        [
          ("clean verdict on a committed pack", `Quick, test_clean_verdict_on_committed_pack);
          ("runs offline on a wreck", `Quick, test_runs_offline_on_a_wreck);
          ("the check is read-only", `Quick, test_check_is_read_only);
          ("dangling entry is a violation", `Quick, test_dangling_entry_is_a_violation);
          ("garbled leader label, then scavenge", `Quick, test_garbled_leader_label_then_scavenge);
          ("torn page detected, then scavenge", `Quick, test_torn_page_detected_then_scavenge);
          ("garbled root leader, then scavenge", `Quick, test_garbled_root_leader_then_scavenge);
          ("rebuilt root is catalogued", `Quick, test_rebuilt_root_is_catalogued);
          ( "unreadable descriptor fails the scavenge",
            `Quick,
            test_unreadable_descriptor_fails_the_scavenge );
        ] );
    ]
