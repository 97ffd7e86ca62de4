(* Bio's remembered-label table: generation-policed coherence (entries
   die on label writes, quarantine, retry evidence and relocation; a
   world restore drops everything), the table answering with the track
   buffers disabled, and Page operations leaving a byte-identical pack
   with or without it. Also the bad-sector table's overflow guard and
   the elevator's outcome order. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Obs = Alto_obs.Obs
module Fs = Alto_fs.Fs
module Bio = Alto_fs.Bio
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Patrol = Alto_fs.Patrol
module Directory = Alto_fs.Directory
module World = Alto_world.World
module Checkpoint = Alto_world.Checkpoint

let small_geometry = { Geometry.diablo_31 with Geometry.model = "bio"; cylinders = 25 }

let counter name =
  match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0

let ok pp = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" pp e

(* A raw drive with a standalone bio on top — no file system, so the
   tests can watch single sectors. *)
let raw_bio ?tracks () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let bio = Bio.create drive in
  Option.iter (Bio.set_tracks bio) tracks;
  (drive, bio)

let addr i = Disk_address.of_index i

let distinct_label tag =
  Array.init Sector.label_words (fun k -> Word.of_int (tag + k))

let image drive =
  List.init (Drive.sector_count drive) (fun s ->
      let sec = Drive.peek drive (addr s) in
      ( Array.to_list (Sector.part_of sec Sector.Header),
        Array.to_list (Sector.part_of sec Sector.Label),
        Array.to_list (Sector.part_of sec Sector.Value) ))

(* {2 Remembered labels} *)

let write_sector drive a ~label ~value =
  match
    Drive.run drive a
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label ~value ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Drive.pp_error e

let zero_value () = Array.make Sector.value_words Word.zero

let page_ok what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what Page.pp_error e

let test_label_write_evicts () =
  let drive, bio = raw_bio () in
  let words = distinct_label 1 in
  write_sector drive (addr 5) ~label:words ~value:(zero_value ());
  Bio.note_label bio (addr 5) words;
  (match Bio.label bio (addr 5) with
  | Some got -> Alcotest.(check bool) "remembered words intact" true (got = words)
  | None -> Alcotest.fail "entry vanished immediately");
  let invalidations0 = counter "fs.label_cache.invalidations" in
  (* Any label write stales the copy, even one writing identical bits. *)
  write_sector drive (addr 5) ~label:words ~value:(zero_value ());
  (match Bio.label bio (addr 5) with
  | None -> ()
  | Some _ -> Alcotest.fail "a label write left the remembered copy alive");
  Alcotest.(check int) "invalidation counted" (invalidations0 + 1)
    (counter "fs.label_cache.invalidations")

let test_retry_evidence_evicts () =
  let drive, bio = raw_bio () in
  let words = Array.make Sector.label_words Word.zero in
  write_sector drive (addr 7) ~label:words ~value:(zero_value ());
  Bio.note_label bio (addr 7) words;
  (* Make the surface misread, then read through the ladder until a soft
     error actually trips: that retry evidence must kill the entry even
     though no label was written. *)
  Drive.set_soft_errors drive ~seed:21 ~rate:0.9;
  let soft0 = counter "disk.soft_errors" in
  let tripped = ref false in
  for _ = 1 to 20 do
    if not !tripped then begin
      (match
         Reliable.run ~policy:Reliable.salvage_policy drive (addr 7)
           { Drive.op_none with value = Some Drive.Read }
           ~value:(zero_value ()) ()
       with
      | Ok () | Error _ -> ());
      if counter "disk.soft_errors" > soft0 then tripped := true
    end
  done;
  Alcotest.(check bool) "a soft error tripped" true !tripped;
  match Bio.label bio (addr 7) with
  | None -> ()
  | Some _ -> Alcotest.fail "retry evidence left the remembered copy alive"

let small_volume () =
  let drive = Drive.create ~pack_id:3 { small_geometry with Geometry.cylinders = 3 } in
  (drive, Fs.format drive)

let file_with fs ~name ~bytes =
  let file = ok File.pp_error (File.create fs ~name) in
  ok File.pp_error (File.write_bytes file ~pos:0 (String.make bytes 'x'));
  file

let test_quarantine_evicts () =
  let _drive, fs = small_volume () in
  let file = file_with fs ~name:"Victim.dat" ~bytes:600 in
  let fn = ok File.pp_error (File.page_name file 1) in
  (* The write primed the entry; confirm, then quarantine the sector. *)
  (match Bio.label (Fs.bio fs) fn.Page.addr with
  | Some _ -> ()
  | None -> Alcotest.fail "the page's label was not primed");
  Fs.quarantine fs fn.Page.addr;
  match Bio.label (Fs.bio fs) fn.Page.addr with
  | None -> ()
  | Some _ -> Alcotest.fail "a quarantined sector's label survived in core"

(* A remembered label must never mask a sector that has since gone bad:
   the generation bump on [set_bad] forces the miss, and the disk then
   tells the truth. *)
let test_no_stale_masking () =
  let drive, bio = raw_bio () in
  let fid = File_id.make ~serial:200 ~version:1 () in
  let label =
    Label.make ~fid ~page:0 ~length:12 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  write_sector drive (addr 11) ~label:(Label.to_words label) ~value:(zero_value ());
  let fn = Page.full_name fid ~page:0 ~addr:(addr 11) in
  ignore (page_ok "prime" (Page.read_label ~bio drive fn) : Label.t);
  Drive.set_bad drive (addr 11) true;
  match Page.read_label ~bio drive fn with
  | Error (Page.Hint_failed Drive.Bad_sector) -> ()
  | Ok _ -> Alcotest.fail "a remembered label masked a bad sector"
  | Error e -> Alcotest.failf "unexpected: %a" Page.pp_error e

(* The patrol moves a page between sectors with operations a drive-level
   bump does not always cover (the old sector's retirement write may be
   absorbed or fail). The explicit generation bumps on both ends must
   guarantee that nothing cached can resurrect the page at its old
   address, nor mask the fresh label at the new one. *)
let test_relocation_bumps_both_generations () =
  let drive, fs = small_volume () in
  let bio = Fs.bio fs in
  Drive.set_soft_errors drive ~seed:11 ~rate:0.0;
  let file = file_with fs ~name:"Moving.dat" ~bytes:700 in
  let fn = ok File.pp_error (File.page_name file 1) in
  let src = fn.Page.addr in
  ignore (page_ok "prime" (Page.read_label ~bio drive fn) : Label.t);
  Alcotest.(check bool) "primed" true (Bio.label bio src <> None);
  let gens_before =
    Array.init (Drive.sector_count drive) (fun i -> Drive.label_generation drive (addr i))
  in
  Drive.set_marginal drive src ~rate:0.8 ~growth:1.0 ~degrade_after:50;
  let patrol = Patrol.create fs in
  let budget = ref 60 in
  while Patrol.relocated patrol < 1 && !budget > 0 do
    ignore (Patrol.tick patrol : Patrol.report);
    decr budget
  done;
  Alcotest.(check bool) "the page was relocated" true (Patrol.relocated patrol >= 1);
  File.invalidate_hints file;
  let dst = (ok File.pp_error (File.page_name file 1)).Page.addr in
  Alcotest.(check bool) "the page moved" true (not (Disk_address.equal src dst));
  Alcotest.(check bool) "source generation advanced" true
    (Drive.label_generation drive src > gens_before.(Disk_address.to_index src));
  Alcotest.(check bool) "destination generation advanced" true
    (Drive.label_generation drive dst > gens_before.(Disk_address.to_index dst));
  Alcotest.(check bool) "nothing cached survives at the source" true
    (Bio.label bio src = None);
  (* The resurrection attempt: the stale full name must be refuted by
     the disk, never answered from a cached copy. *)
  match Page.read_label ~bio drive fn with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a relocated page answered at its old address"

let test_world_restore_evicts () =
  let drive =
    Drive.create ~pack_id:9 { Geometry.diablo_31 with Geometry.model = "world"; cylinders = 80 }
  in
  let fs = Fs.format drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let file =
    ok Checkpoint.pp_error (Checkpoint.state_file fs ~directory:root ~name:"World.state")
  in
  let cpu = Cpu.create (Memory.create ()) in
  ok World.pp_error (World.out_load cpu file);
  Alcotest.(check bool) "the save primed labels" true (Bio.cached_labels (Fs.bio fs) > 0);
  Alcotest.(check bool) "and buffered sectors" true (Bio.cached_sectors (Fs.bio fs) > 0);
  ok World.pp_error (World.in_load cpu file ~message:[||]);
  Alcotest.(check int) "the restore forgot every label" 0 (Bio.cached_labels (Fs.bio fs));
  Alcotest.(check int) "and dropped every buffer" 0 (Bio.cached_sectors (Fs.bio fs))

(* With the track buffers disabled the label table still answers: the
   second chain walk costs no disk operation at all. *)
let test_labels_survive_disabled_tracks () =
  let drive, bio = raw_bio ~tracks:0 () in
  let fid = File_id.make ~serial:300 ~version:1 () in
  let fn pn = Page.full_name fid ~page:pn ~addr:(addr (20 + pn)) in
  for pn = 0 to 3 do
    let label =
      Label.make ~fid ~page:pn ~length:Sector.bytes_per_page ~next:Disk_address.nil
        ~prev:Disk_address.nil
    in
    write_sector drive (fn pn).Page.addr ~label:(Label.to_words label) ~value:(zero_value ())
  done;
  let walk () =
    for pn = 0 to 3 do
      ignore (page_ok "read_label" (Page.read_label ~bio drive (fn pn)) : Label.t)
    done
  in
  walk ();
  let ops0 = counter "disk.operations" in
  let hits0 = counter "fs.label_cache.hits" in
  walk ();
  Alcotest.(check int) "no disk operation" ops0 (counter "disk.operations");
  Alcotest.(check int) "four label hits" (hits0 + 4) (counter "fs.label_cache.hits");
  Alcotest.(check int) "no track buffered" 0 (Bio.cached_tracks bio)

(* One invalidate sheds both kinds of entry for the sector, and only for
   that sector. *)
let test_invalidate_drops_both () =
  let drive, bio = raw_bio () in
  Drive.poke drive (addr 3) Sector.Label (distinct_label 0x4000);
  Bio.fill bio (addr 0);
  Alcotest.(check bool) "label remembered by the fill" true (Bio.cached_labels bio > 0);
  Alcotest.(check bool) "sector buffered" true (Bio.peek bio (addr 3) <> None);
  Bio.invalidate bio (addr 3);
  Alcotest.(check bool) "sector dropped" true (Bio.peek bio (addr 3) = None);
  Alcotest.(check bool) "label forgotten" true (Bio.label bio (addr 3) = None);
  Alcotest.(check bool) "the neighbour is untouched" true (Bio.peek bio (addr 4) <> None)

(* {2 The overflow guard} *)

let test_quarantine_overflow () =
  let drive = Drive.create ~pack_id:3 { small_geometry with Geometry.cylinders = 5 } in
  let fs = Fs.format drive in
  let free =
    List.filter
      (fun i -> Fs.is_free_in_map fs (addr i))
      (List.init (Drive.sector_count drive) Fun.id)
  in
  Alcotest.(check bool) "enough free sectors to overflow" true (List.length free > 64);
  let overflow0 = counter "fs.quarantine_overflow" in
  List.iteri (fun k i -> if k < 65 then Fs.quarantine fs (addr i)) free;
  Alcotest.(check int) "the table stops at 64" 64 (List.length (Fs.bad_sector_table fs));
  Alcotest.(check int) "the 65th was counted as overflow" (overflow0 + 1)
    (counter "fs.quarantine_overflow");
  let spilled = addr (List.nth free 64) in
  Alcotest.(check bool) "not in the table" false (Fs.quarantined fs spilled);
  Alcotest.(check bool) "but still busy for this mount" false (Fs.is_free_in_map fs spilled)

(* {2 Page operations with and without the cache}

   The same Page-level op sequence, uncached, with only the label table
   (no track buffers) and with the whole cache, must leave bit-identical
   packs: a hit saves motion and time, never changes what is read or
   written. *)

let test_cached_run_matches_uncached () =
  let fid = File_id.make ~serial:500 ~version:1 () in
  let pages = 8 in
  let base = 10 in
  let page_addr pn = addr (base + pn) in
  let link pn = if pn < 0 || pn >= pages then Disk_address.nil else page_addr pn in
  let page_label pn =
    Label.make ~fid ~page:pn ~length:Sector.bytes_per_page ~next:(link (pn + 1))
      ~prev:(link (pn - 1))
  in
  let page_value seed pn =
    Array.init Sector.value_words (fun i -> Word.of_int ((seed + (pn * 31) + i) land 0xFFFF))
  in
  let fn pn = Page.full_name fid ~page:pn ~addr:(page_addr pn) in
  let run tracks =
    let drive = Drive.create ~pack_id:3 small_geometry in
    let bio =
      Option.map
        (fun tracks ->
          let bio = Bio.create drive in
          Bio.set_tracks bio tracks;
          bio)
        tracks
    in
    for pn = 0 to pages - 1 do
      write_sector drive (page_addr pn) ~label:(Label.to_words (page_label pn))
        ~value:(page_value 0 pn)
    done;
    let ops0 = counter "disk.operations" in
    (* Three chain walks (the read_label path the hint ladder uses)... *)
    for _pass = 1 to 3 do
      for pn = 0 to pages - 1 do
        let got = page_ok "read_label" (Page.read_label ?bio drive (fn pn)) in
        Alcotest.(check int) "linked length" Sector.bytes_per_page got.Label.length
      done
    done;
    (* ...then reads, overwrites, and a length change. *)
    for pn = 0 to pages - 1 do
      let _, value = page_ok "read" (Page.read ?bio drive (fn pn)) in
      Alcotest.(check bool) "value intact" true (value = page_value 0 pn)
    done;
    for pn = 0 to pages - 1 do
      ignore (page_ok "write" (Page.write ?bio drive (fn pn) (page_value 7 pn)) : Label.t)
    done;
    page_ok "rewrite_label"
      (Page.rewrite_label ?bio drive
         (fn (pages - 1))
         ~new_label:
           (Label.make ~fid ~page:(pages - 1) ~length:100 ~next:Disk_address.nil
              ~prev:(link (pages - 2)))
         ~value:(zero_value ()));
    Option.iter (fun b -> ignore (Bio.flush b : Bio.flush_report)) bio;
    (image drive, counter "disk.operations" - ops0)
  in
  let uncached_image, uncached_ops = run None in
  let hits0 = counter "fs.label_cache.hits" in
  let labels_image, labels_ops = run (Some 0) in
  Alcotest.(check bool) "the label table was hit" true (counter "fs.label_cache.hits" > hits0);
  Alcotest.(check bool) "label hits saved disk operations" true (labels_ops < uncached_ops);
  let cached_image, _ = run (Some 16) in
  Alcotest.(check bool) "identical pack images (labels only)" true
    (uncached_image = labels_image);
  Alcotest.(check bool) "identical pack images (whole cache)" true
    (uncached_image = cached_image)

(* {2 The elevator} *)

(* Outcomes come back in the caller's order however the elevator
   reorders the disk's work. *)
let test_batch_outcome_order () =
  let drive = Drive.create ~pack_id:3 { small_geometry with Geometry.cylinders = 3 } in
  let n = Drive.sector_count drive in
  let marks =
    Array.init n (fun i ->
        let label = Array.make Sector.label_words Word.zero in
        label.(0) <- Word.of_int (i + 1);
        write_sector drive (addr i) ~label ~value:(zero_value ());
        label.(0))
  in
  (* Request the pack back to front: the elevator will visit it front to
     back, and every outcome must still land in the caller's slot. *)
  let buffers = Array.init n (fun _ -> Array.make Sector.label_words Word.zero) in
  let requests =
    Array.init n (fun j ->
        Sched.request ~label:buffers.(j)
          (addr (n - 1 - j))
          { Drive.op_none with label = Some Drive.Read })
  in
  let outcomes = Sched.run_batch drive requests in
  Array.iteri
    (fun j outcome ->
      (match outcome.Sched.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch read %d: %a" j Drive.pp_error e);
      Alcotest.(check int)
        (Printf.sprintf "slot %d" j)
        (Word.to_int marks.(n - 1 - j))
        (Word.to_int buffers.(j).(0)))
    outcomes

let () =
  Alcotest.run "alto bio labels"
    [
      ( "invalidation",
        [
          ("label write evicts", `Quick, test_label_write_evicts);
          ("retry evidence evicts", `Quick, test_retry_evidence_evicts);
          ("quarantine evicts", `Quick, test_quarantine_evicts);
          ("no stale masking", `Quick, test_no_stale_masking);
          ("relocation bumps both generations", `Quick, test_relocation_bumps_both_generations);
          ("world restore evicts", `Quick, test_world_restore_evicts);
          ("labels survive disabled tracks", `Quick, test_labels_survive_disabled_tracks);
          ("one invalidate drops both", `Quick, test_invalidate_drops_both);
        ] );
      ("overflow", [ ("bad table refuses the 65th", `Quick, test_quarantine_overflow) ]);
      ("determinism", [ ("cached equals uncached", `Quick, test_cached_run_matches_uncached) ]);
      ("elevator", [ ("outcomes in caller order", `Quick, test_batch_outcome_order) ]);
    ]
