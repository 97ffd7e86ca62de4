(* The distributed audit: identical packs digest identically and keep
   agreeing; a corrupted replica loses its vote 2-vs-1 and is repaired
   back to byte-identity (final pack images compared whole); a node
   whose entire pack is lost re-joins and is rebuilt from the crowd with
   zero pages lost; and the whole drama replays byte-identically for a
   fixed seed even while the net drops, duplicates and delays. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Audit = Alto_fs.Audit
module Net = Alto_net.Net
module Replica = Alto_server.Replica
module File_server = Alto_server.File_server
module System = Alto_os.System
module Executive = Alto_os.Executive
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module Obs = Alto_obs.Obs

let small = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 6 }
let addr i = Disk_address.of_index i

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let counter name =
  match Obs.find name with
  | Some (Obs.Counter v) -> v
  | Some (Obs.Histogram _) | None -> 0

let body seed n = String.init n (fun i -> Char.chr (32 + (((i * 11) + seed) mod 95)))

let file_name i = Printf.sprintf "replica-%d.dat" i
(* Sized so the content (leaders + data + descriptor + root) spans more
   than one 24-sector audit slice: a rebuilt virgin pack then provably
   needs repairs in at least two slices, not just the first. *)
let file_sizes = [| 120; 700; 1; 2048; 513; 9000; 4200 |]

let make_file fs root name n seed =
  let file = check_ok File.pp_error "create" (File.create fs ~name) in
  if n > 0 then check_ok File.pp_error "write" (File.write_bytes file ~pos:0 (body seed n));
  check_ok File.pp_error "flush" (File.flush_leader file);
  check_ok Directory.pp_error "add" (Directory.add root ~name (File.leader_name file))

let pack_image drive =
  List.init (Drive.sector_count drive) (fun i ->
      let s = Drive.peek drive (addr i) in
      ( Array.to_list (Sector.part_of s Sector.Header),
        Array.to_list (Sector.part_of s Sector.Label),
        Array.to_list (Sector.part_of s Sector.Value) ))

(* Replicas are provisioned the way real ones would be: one pack is
   built, then cloned sector-for-sector. (Building each by replaying
   the same operations would NOT be byte-identical — leader pages carry
   creation timestamps, and the shared clock moves between nodes.) *)
let clone_pack src dst =
  for i = 0 to Drive.sector_count src - 1 do
    let s = Drive.peek src (addr i) in
    Drive.poke dst (addr i) Sector.Header (Sector.part_of s Sector.Header);
    Drive.poke dst (addr i) Sector.Label (Sector.part_of s Sector.Label);
    Drive.poke dst (addr i) Sector.Value (Sector.part_of s Sector.Value)
  done

let node_names = [| "alto-a"; "alto-b"; "alto-c" |]

let mk_world ?(m = 3) () =
  let clock = Sim_clock.create () in
  let net = Net.create ~clock () in
  let drives = Array.init m (fun _ -> Drive.create ~clock ~pack_id:1 small) in
  let fs0 = Fs.format drives.(0) in
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs0) in
  Array.iteri (fun i n -> make_file fs0 root (file_name i) n i) file_sizes;
  (match Fs.flush fs0 with Ok () -> () | Error _ -> Alcotest.fail "flush");
  for i = 1 to m - 1 do
    clone_pack drives.(0) drives.(i)
  done;
  let fleet = Replica.create ~clock net in
  let nodes =
    Array.init m (fun i ->
        let fs =
          if i = 0 then fs0
          else
            match Fs.mount drives.(i) with
            | Ok fs -> fs
            | Error msg -> Alcotest.failf "mount clone %d: %s" i msg
        in
        Replica.join fleet ~name:node_names.(i) fs)
  in
  (clock, net, drives, fleet, nodes)

let check_images_equal what drives =
  let reference = pack_image drives.(0) in
  Array.iteri
    (fun i d ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: pack %d byte-identical to pack 0" what i)
          true
          (pack_image d = reference))
    drives

let run_to_laps fleet nodes ~laps =
  let target = Array.map (fun n -> Replica.laps n + laps) nodes in
  let arrived () =
    Array.for_all2 (fun n t -> Replica.laps n >= t) nodes target
  in
  if not (Replica.run_until fleet arrived) then
    Alcotest.failf "fleet stalled short of %d laps" laps

(* {2 Digest agreement on identical packs} *)

let test_agreement () =
  let _, _, drives, fleet, nodes = mk_world () in
  let divergent0 = counter "repl.divergent" in
  run_to_laps fleet nodes ~laps:2;
  Alcotest.(check int) "no divergence" divergent0 (counter "repl.divergent");
  Array.iter
    (fun n ->
      Alcotest.(check int)
        (Replica.name n ^ " repaired nothing")
        0 (Replica.slices_repaired n);
      Alcotest.(check int) (Replica.name n ^ " lost nothing") 0 (Replica.pages_lost n);
      Alcotest.(check bool)
        (Replica.name n ^ " last vote agrees")
        true
        (String.length (Replica.last_vote n) >= 5
        && String.sub (Replica.last_vote n) 0 5 = "agree"))
    nodes;
  check_images_equal "after agreement laps" drives;
  (* The digest primitive itself: equal on equals, sensitive to a flip. *)
  let d0 = Audit.digest (Replica.fs nodes.(0)) ~start:24 ~k:24 in
  let d1 = Audit.digest (Replica.fs nodes.(1)) ~start:24 ~k:24 in
  Alcotest.(check bool) "slice digests agree" true (Int64.equal d0 d1)

(* {2 Divergence vote, 2-vs-1, and repair byte-identity} *)

let test_divergence_repair () =
  let _, _, drives, fleet, nodes = mk_world () in
  (* Corrupt node C in two different slices: a value flip and a label
     smash — the kinds of damage the patrol alone cannot undo, because
     locally there is nothing to vote against. *)
  let c = nodes.(2) in
  Drive.poke drives.(2) (addr 40) Sector.Value
    (Array.make Sector.value_words (Word.of_int 0xBEEF));
  Drive.poke drives.(2) (addr 70) Sector.Label
    (Array.make Sector.label_words (Word.of_int 0x1234));
  run_to_laps fleet nodes ~laps:2;
  Alcotest.(check bool) "C repaired >= 2 slices" true (Replica.slices_repaired c >= 2);
  Alcotest.(check int) "A repaired nothing" 0 (Replica.slices_repaired nodes.(0));
  Alcotest.(check int) "B repaired nothing" 0 (Replica.slices_repaired nodes.(1));
  Alcotest.(check int) "no pages lost" 0 (Replica.pages_lost c);
  Alcotest.(check bool) "repairs counted globally" true (counter "repl.repairs" >= 2);
  Alcotest.(check bool) "winners served pages" true
    (Replica.pages_served nodes.(0) + Replica.pages_served nodes.(1) > 0);
  check_images_equal "after 2-vs-1 repair" drives

(* {2 Re-join after whole-pack loss} *)

let read_back fs i =
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs) in
  match Directory.lookup root (file_name i) with
  | Error e -> Alcotest.failf "lookup %s: %a" (file_name i) Directory.pp_error e
  | Ok None -> Alcotest.failf "%s missing after rebuild" (file_name i)
  | Ok (Some entry) ->
      let file =
        check_ok File.pp_error "open" (File.open_leader fs entry.Directory.entry_file)
      in
      let n = File.byte_length file in
      Bytes.to_string (check_ok File.pp_error "read" (File.read_bytes file ~pos:0 ~len:n))

let wreck_pack drive =
  let junk_label = Array.make Sector.label_words (Word.of_int 0xDEAD) in
  let junk_value = Array.make Sector.value_words (Word.of_int 0xDEAD) in
  for i = 0 to Drive.sector_count drive - 1 do
    Drive.poke drive (addr i) Sector.Label junk_label;
    Drive.poke drive (addr i) Sector.Value junk_value
  done

let test_rejoin_after_pack_loss () =
  let _, _, drives, fleet, nodes = mk_world () in
  run_to_laps fleet nodes ~laps:1;
  let c = nodes.(2) in
  wreck_pack drives.(2);
  Replica.rejoin c;
  Alcotest.(check int) "rejoins counted" 1 (counter "repl.rejoins" - 0 |> min 1);
  (* Two further laps: the first votes every slice divergent and
     rebuilds it (remounting the repaired descriptor at the boundary),
     the second confirms convergence. *)
  run_to_laps fleet nodes ~laps:2;
  Alcotest.(check bool) "rebuild complete" true (not (Replica.rebuilding c));
  Alcotest.(check int) "zero pages lost" 0 (Replica.pages_lost c);
  (* Slices already agreeing (runs of free sectors — a virgin volume
     matches the reference there) need no repair; every slice holding
     descriptor or file content was voted divergent and streamed back. *)
  Alcotest.(check bool) "divergent slices repaired" true
    (Replica.slices_repaired c >= 2);
  check_images_equal "after whole-pack rebuild" drives;
  (* The rebuilt volume is not just byte-identical, it is alive: every
     file reads back through the remounted Fs. *)
  Array.iteri
    (fun i n ->
      Alcotest.(check string)
        (Printf.sprintf "%s intact on rebuilt C" (file_name i))
        (body i n) (read_back (Replica.fs c) i))
    file_sizes

(* {2 Fixed-seed determinism under net faults} *)

let stats n =
  ( Replica.cursor n,
    Replica.laps n,
    Replica.slices_audited n,
    Replica.slices_repaired n,
    Replica.pages_repaired n,
    Replica.pages_served n,
    Replica.pages_lost n,
    Replica.last_vote n )

let faulty_scenario () =
  let clock, net, drives, fleet, nodes = mk_world () in
  Net.set_faults net ~drop:0.08 ~dup:0.05 ~delay:0.15 ~delay_us:3_000 ~seed:91 ();
  (* Sector faults on every node too: the digests must see through
     transient lies via the retry ladder. *)
  Array.iteri (fun i d -> Drive.set_soft_errors d ~seed:(100 + i) ~rate:0.002) drives;
  run_to_laps fleet nodes ~laps:1;
  wreck_pack drives.(2);
  Replica.rejoin nodes.(2);
  run_to_laps fleet nodes ~laps:2;
  ( Array.map pack_image drives,
    Array.map stats nodes,
    Net.fault_census net,
    Sim_clock.now_us clock )

let test_determinism_under_faults () =
  let images1, stats1, census1, t1 = faulty_scenario () in
  let images2, stats2, census2, t2 = faulty_scenario () in
  Alcotest.(check bool) "pack images replay" true (images1 = images2);
  Alcotest.(check bool) "per-node stats replay" true (stats1 = stats2);
  Alcotest.(check bool) "fault census replays" true (census1 = census2);
  Alcotest.(check int) "simulated time replays" t1 t2;
  (* And the repaired node converged in both runs. *)
  let images, st, _, _ = (images1, stats1, census1, t1) in
  Alcotest.(check bool) "repaired under faults" true (images.(2) = images.(0));
  let _, _, _, _, _, _, lost, _ = st.(2) in
  Alcotest.(check int) "zero lost under faults" 0 lost

(* {2 Tracing over the replica wire: duplicates must not double-bill}

   A dup-heavy net resends digest and page requests; each resend does
   real disk work on the responder, but the asking audit's trace must
   absorb each (kind, seq, responder) exactly once — extra copies run
   unbilled, counted in [trace.remote_dups], and the global attribution
   books still balance against the drive's motion counters. *)

module Trace = Alto_obs.Trace

let test_dups_billed_once () =
  Obs.reset ();
  let _, net, drives, fleet, nodes = mk_world () in
  (* Duplication only: every packet that exists arrives, many twice, so
     remote dedup is exercised without timeout noise. *)
  Net.set_faults net ~dup:0.4 ~seed:23 ();
  Drive.poke drives.(2) (addr 40) Sector.Value
    (Array.make Sector.value_words (Word.of_int 0xBEEF));
  run_to_laps fleet nodes ~laps:2;
  let _, duped, _ = Net.fault_census net in
  Alcotest.(check bool) "the wire duplicated requests" true (duped > 0);
  Alcotest.(check bool) "duplicates ran unbilled" true
    (counter "trace.remote_dups" > 0);
  Alcotest.(check bool) "the divergence was still repaired" true
    (Replica.slices_repaired nodes.(2) > 0);
  check_images_equal "after dup-heavy repair" drives;
  (* No audit heard the same peer's digest twice. *)
  List.iter
    (fun (i : Trace.info) ->
      Array.iter
        (fun peer ->
          let key = "digest:" ^ peer in
          let heard =
            List.length (List.filter (fun (m, _) -> String.equal m key) i.Trace.marks)
          in
          Alcotest.(check bool)
            (Printf.sprintf "trace %d heard %s at most once" i.Trace.id peer)
            true (heard <= 1))
        node_names)
    (Trace.infos ());
  (* And the books balance to the microsecond: a double bill would push
     attributed past what the drives actually moved. *)
  let a_s, a_r, a_x = Trace.attributed () in
  let u_s, u_r, u_x = Trace.untraced () in
  Alcotest.(check int) "attribution balances the motion counters"
    (counter "disk.seek_us" + counter "disk.rotational_wait_us"
    + counter "disk.transfer_us")
    (a_s + a_r + a_x + u_s + u_r + u_x)

(* {2 The executive peers command and OS wiring} *)

let test_peers_command () =
  let clock = Sim_clock.create () in
  let net = Net.create ~clock () in
  let system = System.boot ~geometry:small () in
  let fleet = Replica.create ~clock net in
  let node =
    Replica.join fleet ~name:"alto-solo" ~on_new_fs:(System.set_fs system)
      (System.fs system)
  in
  System.set_replica_tick system (fun () -> Replica.tick node);
  System.set_peer_report system (fun () -> Replica.report fleet);
  Keyboard.feed (System.keyboard system) "peers\nquit\n";
  ignore (Executive.run system);
  let screen = Display.contents (System.display system) in
  let contains needle =
    let nl = String.length needle and sl = String.length screen in
    let rec go i = i + nl <= sl && (String.sub screen i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cursor line shown" true (contains "alto-solo");
  Alcotest.(check bool) "net census shown" true (contains "net:");
  (* The idle-moment ReplicaTick ran alongside the patrol: a solo node
     audits unopposed, so the executive session advanced its cursor. *)
  Alcotest.(check bool) "audit advanced at idle" true (Replica.slices_audited node > 0)

(* The digest is compared across machines, so its value is part of the
   wire protocol: pin it for a fixed slice, once with every sector
   legible and once with one that hard-fails into the sentinel. *)
let test_digest_value_pinned () =
  let drive = Drive.create ~pack_id:7 small in
  let fs = Fs.format drive in
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs) in
  make_file fs root "pinned.dat" 3000 5;
  check_ok Fs.pp_error "flush" (Fs.flush fs);
  Alcotest.(check int64) "all legible" 0x89ccd49a782e56f2L (Audit.digest fs ~start:0 ~k:24);
  Drive.set_bad drive (addr 9) true;
  Alcotest.(check int64) "sector 9 hard-fails" 0xc9c90cf1d573b89dL (Audit.digest fs ~start:0 ~k:24)

let () =
  Alcotest.run "alto_replica"
    [
      ( "audit",
        [
          ("agreement", `Quick, test_agreement);
          ("2-vs-1 divergence repair", `Quick, test_divergence_repair);
          ("rejoin after pack loss", `Quick, test_rejoin_after_pack_loss);
          ("determinism under faults", `Quick, test_determinism_under_faults);
          ("duplicates billed once", `Quick, test_dups_billed_once);
          ("peers command", `Quick, test_peers_command);
          ("digest value pinned", `Quick, test_digest_value_pinned);
        ] );
    ]
