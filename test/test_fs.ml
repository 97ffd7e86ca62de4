(* File-system core: format/mount, allocation protocol, files, directories. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Leader = Alto_fs.Leader
module Obs = Alto_obs.Obs

let counter name = match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0

let small_geometry =
  (* A small disk keeps tests fast while exercising every code path. *)
  {
    Geometry.diablo_31 with
    Geometry.model = "test disk";
    cylinders = 20;
  }

let fresh_fs ?(geometry = small_geometry) () =
  let drive = Drive.create ~pack_id:7 geometry in
  (drive, Fs.format drive)

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let fs_ok what r = check_ok Fs.pp_error what r
let file_ok what r = check_ok File.pp_error what r
let dir_ok what r = check_ok Directory.pp_error what r

(* {2 format / mount} *)

let test_format_then_mount () =
  let drive, fs = fresh_fs () in
  Alcotest.(check bool) "root directory exists" true (Fs.root_dir fs <> None);
  let fs' =
    match Fs.mount drive with Ok fs -> fs | Error e -> Alcotest.failf "mount: %s" e
  in
  Alcotest.(check int) "free count survives mount" (Fs.free_count fs) (Fs.free_count fs');
  Alcotest.(check bool) "root survives mount" true (Fs.root_dir fs' <> None)

let test_mount_rejects_unformatted () =
  let drive = Drive.create ~pack_id:1 small_geometry in
  match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mounted an unformatted pack"
  | Error _ -> ()

let test_mount_rejects_corrupt_descriptor () =
  let drive, _fs = fresh_fs () in
  let junk = Array.make Sector.value_words (Word.of_int 0xDEAD) in
  Drive.poke drive Fs.descriptor_leader_address Sector.Value junk;
  match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mounted despite a destroyed descriptor leader"
  | Error _ -> ()

let test_boot_page_never_allocated () =
  let _drive, fs = fresh_fs () in
  Alcotest.(check bool) "DA0 busy" false (Fs.is_free_in_map fs Fs.boot_address)

(* {2 allocation protocol} *)

let test_allocate_writes_label_and_value () =
  let drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let value = Array.make Sector.value_words (Word.of_int 0xBEEF) in
  let label addr =
    ignore addr;
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr = fs_ok "allocate" (Fs.allocate_page fs ~label ~value) in
  let sector = Drive.peek drive addr in
  Alcotest.(check int) "value written" 0xBEEF (Word.to_int sector.Sector.value.(0));
  match Label.classify sector.Sector.label with
  | Label.Valid l ->
      Alcotest.(check bool) "fid matches" true (File_id.equal l.Label.fid fid)
  | Label.Free | Label.Bad | Label.Garbage _ -> Alcotest.fail "label not valid"

let test_stale_map_hint_is_survived () =
  let drive, fs = fresh_fs () in
  (* Lie in the map: mark a busy page (the descriptor leader) free. *)
  Fs.mark_free fs Fs.descriptor_leader_address;
  let before = counter "fs.stale_map_hits" in
  (* Force allocation to try the liar first. *)
  let free_before = Fs.free_count fs in
  let rec exhaust n =
    if n = 0 then ()
    else
      let fid = Fs.fresh_fid fs in
      let label _ =
        Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil ~prev:Disk_address.nil
      in
      match Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.zero) with
      | Ok _ -> exhaust (n - 1)
      | Error Fs.Disk_full -> ()
      | Error e -> Alcotest.failf "allocate: %a" Fs.pp_error e
  in
  exhaust free_before;
  let after = counter "fs.stale_map_hits" in
  Alcotest.(check bool) "the lie was caught by the label check" true (after > before);
  (* The descriptor leader was never overwritten. *)
  match Label.classify (Drive.peek drive Fs.descriptor_leader_address).Sector.label with
  | Label.Valid l ->
      Alcotest.(check bool) "still the descriptor's page" true
        (File_id.equal l.Label.fid File_id.descriptor)
  | Label.Free | Label.Bad | Label.Garbage _ ->
      Alcotest.fail "descriptor page damaged by a stale map hint"

let test_free_page_writes_ones () =
  let drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let label _ =
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr =
    fs_ok "allocate"
      (Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.one))
  in
  fs_ok "free" (Fs.free_page fs (Page.full_name fid ~page:1 ~addr));
  let sector = Drive.peek drive addr in
  (match Label.classify sector.Sector.label with
  | Label.Free -> ()
  | Label.Valid _ | Label.Bad | Label.Garbage _ -> Alcotest.fail "label not freed");
  Alcotest.(check int) "value is ones" 0xffff (Word.to_int sector.Sector.value.(100));
  Alcotest.(check bool) "map bit cleared" true (Fs.is_free_in_map fs addr)

let test_free_page_refuses_wrong_name () =
  let _drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let other = Fs.fresh_fid fs in
  let label _ =
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr =
    fs_ok "allocate"
      (Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.one))
  in
  match Fs.free_page fs (Page.full_name other ~page:1 ~addr) with
  | Ok () -> Alcotest.fail "freed a page under the wrong name"
  | Error (Fs.Page_error _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Fs.pp_error e

let test_disk_full () =
  let _drive, fs = fresh_fs () in
  let rec fill () =
    let fid = Fs.fresh_fid fs in
    let label _ =
      Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil ~prev:Disk_address.nil
    in
    match Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.zero) with
    | Ok _ -> fill ()
    | Error Fs.Disk_full -> ()
    | Error e -> Alcotest.failf "allocate: %a" Fs.pp_error e
  in
  fill ();
  Alcotest.(check int) "no free pages left" 0 (Fs.free_count fs)

(* {2 files} *)

let test_create_and_reopen () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Quux.txt") in
  Alcotest.(check int) "empty" 0 (File.byte_length file);
  Alcotest.(check int) "one data page" 1 (File.last_page file);
  let reopened = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check string) "leader name" "Quux.txt" (File.leader reopened).Leader.name;
  Alcotest.(check int) "length" 0 (File.byte_length reopened)

let lorem n =
  String.init n (fun i -> Char.chr (32 + ((i * 7) mod 95)))

let test_write_read_roundtrip () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Data.") in
  let payload = lorem 2000 in
  file_ok "write" (File.write_bytes file ~pos:0 payload);
  Alcotest.(check int) "length" 2000 (File.byte_length file);
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:2000) in
  Alcotest.(check string) "roundtrip" payload (Bytes.to_string got);
  (* Partial read across a page boundary. *)
  let got = file_ok "read" (File.read_bytes file ~pos:500 ~len:100) in
  Alcotest.(check string) "mid read" (String.sub payload 500 100) (Bytes.to_string got)

let test_overwrite_middle () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Data.") in
  file_ok "write" (File.write_bytes file ~pos:0 (String.make 1500 'a'));
  file_ok "patch" (File.write_bytes file ~pos:700 "HELLO");
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:1500)) in
  Alcotest.(check string) "patched" "HELLO" (String.sub got 700 5);
  Alcotest.(check char) "before intact" 'a' got.[699];
  Alcotest.(check char) "after intact" 'a' got.[705];
  Alcotest.(check int) "length unchanged" 1500 (File.byte_length file)

let test_append_grows () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Grow.") in
  for i = 1 to 5 do
    file_ok "append" (File.append_bytes file (String.make 300 (Char.chr (64 + i))))
  done;
  Alcotest.(check int) "length" 1500 (File.byte_length file);
  Alcotest.(check int) "pages" 3 (File.last_page file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:1500)) in
  Alcotest.(check char) "first chunk" 'A' got.[0];
  Alcotest.(check char) "last chunk" 'E' got.[1499]

let test_exactly_full_page_then_append () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Full.") in
  file_ok "write" (File.write_bytes file ~pos:0 (String.make 512 'x'));
  Alcotest.(check int) "one full page" 1 (File.last_page file);
  file_ok "append" (File.append_bytes file "y");
  Alcotest.(check int) "second page" 2 (File.last_page file);
  Alcotest.(check int) "513 bytes" 513 (File.byte_length file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:510 ~len:3)) in
  Alcotest.(check string) "boundary" "xxy" got

let test_truncate () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Trunc.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 2000));
  let free_before = Fs.free_count fs in
  file_ok "truncate" (File.truncate file ~len:600);
  Alcotest.(check int) "length" 600 (File.byte_length file);
  Alcotest.(check int) "pages" 2 (File.last_page file);
  Alcotest.(check bool) "pages reclaimed" true (Fs.free_count fs > free_before);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:600)) in
  Alcotest.(check string) "content preserved" (String.sub (lorem 2000) 0 600) got;
  file_ok "truncate to zero" (File.truncate file ~len:0);
  Alcotest.(check int) "empty" 0 (File.byte_length file);
  Alcotest.(check int) "still one data page" 1 (File.last_page file)

let test_delete_reclaims_everything () =
  let _drive, fs = fresh_fs () in
  let before = Fs.free_count fs in
  let file = file_ok "create" (File.create fs ~name:"Doomed.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 3000));
  file_ok "delete" (File.delete file);
  Alcotest.(check int) "all pages back" before (Fs.free_count fs)

let test_stale_hint_recovery () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Hints.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 2500));
  (* Forget everything, then read: the handle must re-derive addresses
     by chasing links from the leader. *)
  File.invalidate_hints file;
  Alcotest.(check int) "no hints" 0 (File.hinted_pages file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:2000 ~len:100)) in
  Alcotest.(check string) "read after invalidation"
    (String.sub (lorem 2500) 2000 100)
    got;
  Alcotest.(check bool) "hints relearned" true (File.hinted_pages file > 0)

let test_leader_dates_advance () =
  let drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Dated.") in
  let created = (File.leader file).Leader.created_s in
  Alto_machine.Sim_clock.advance_us (Drive.clock drive) 5_000_000;
  file_ok "write" (File.write_bytes file ~pos:0 "data");
  file_ok "flush" (File.flush_leader file);
  let reopened = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  let l = File.leader reopened in
  Alcotest.(check int) "created preserved" created l.Leader.created_s;
  Alcotest.(check bool) "written advanced" true (l.Leader.written_s > created);
  (* Reading updates the in-core read date; the next leader flush
     persists it — the paper's "dates of … last read" (§3.2). *)
  Alto_machine.Sim_clock.advance_us (Drive.clock drive) 5_000_000;
  let (_ : Bytes.t) = file_ok "read" (File.read_bytes reopened ~pos:0 ~len:4) in
  file_ok "flush" (File.flush_leader reopened);
  let again = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check bool) "read date advanced" true
    ((File.leader again).Leader.read_s > l.Leader.written_s)

(* {2 directories} *)

let test_directory_add_lookup_remove () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Memo.txt") in
  dir_ok "add" (Directory.add root ~name:"Memo.txt" (File.leader_name file));
  (match dir_ok "lookup" (Directory.lookup root "Memo.txt") with
  | Some e ->
      Alcotest.(check bool) "fid matches" true
        (File_id.equal e.Directory.entry_file.Page.abs.Page.fid (File.fid file))
  | None -> Alcotest.fail "entry not found");
  Alcotest.(check bool) "absent name" true
    (dir_ok "lookup" (Directory.lookup root "Nothing.") = None);
  Alcotest.(check bool) "removed" true (dir_ok "remove" (Directory.remove root "Memo.txt"));
  Alcotest.(check bool) "gone" true (dir_ok "lookup" (Directory.lookup root "Memo.txt") = None);
  Alcotest.(check bool) "remove again" false
    (dir_ok "remove" (Directory.remove root "Memo.txt"))

let test_directory_slot_reuse () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let add name =
    let file = file_ok "create" (File.create fs ~name) in
    dir_ok "add" (Directory.add root ~name (File.leader_name file))
  in
  add "Aaaa.";
  add "Bbbb.";
  add "Cccc.";
  let size_before = File.byte_length root in
  ignore (dir_ok "remove" (Directory.remove root "Bbbb."));
  add "Dddd.";
  (* Same-sized entry reuses the freed slot: the directory didn't grow. *)
  Alcotest.(check int) "slot reused" size_before (File.byte_length root);
  let names =
    List.map (fun e -> e.Directory.entry_name) (dir_ok "entries" (Directory.entries root))
  in
  Alcotest.(check (list string)) "live entries" [ "Aaaa."; "Dddd."; "Cccc." ] names

let test_directory_duplicate_rejected () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Once.") in
  dir_ok "add" (Directory.add root ~name:"Once." (File.leader_name file));
  match Directory.add root ~name:"Once." (File.leader_name file) with
  | Ok () -> Alcotest.fail "duplicate entry accepted"
  | Error (Directory.Malformed _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Directory.pp_error e

let test_directory_graph () =
  (* Directories can form an arbitrary graph: a file in two directories,
     a subdirectory containing its parent. *)
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let sub = dir_ok "create sub" (Directory.create fs ~name:"Subdir.") in
  dir_ok "enter sub" (Directory.add root ~name:"Subdir." (File.leader_name sub));
  dir_ok "parent link" (Directory.add sub ~name:"Parent." (File.leader_name root));
  let file = file_ok "create" (File.create fs ~name:"Shared.") in
  dir_ok "in root" (Directory.add root ~name:"Shared." (File.leader_name file));
  dir_ok "in sub" (Directory.add sub ~name:"SharedToo." (File.leader_name file));
  let from_sub =
    match dir_ok "lookup" (Directory.lookup sub "SharedToo.") with
    | Some e -> e.Directory.entry_file
    | None -> Alcotest.fail "missing"
  in
  let via = file_ok "open via sub" (File.open_leader fs from_sub) in
  Alcotest.(check bool) "same file" true (File_id.equal (File.fid via) (File.fid file))

let test_update_address () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Mov.") in
  dir_ok "add" (Directory.add root ~name:"Mov." (File.leader_name file));
  let fake = Disk_address.of_index 17 in
  Alcotest.(check bool) "updated" true
    (dir_ok "update" (Directory.update_address root "Mov." fake));
  match dir_ok "lookup" (Directory.lookup root "Mov.") with
  | Some e ->
      Alcotest.(check bool) "address changed" true
        (Disk_address.equal e.Directory.entry_file.Page.addr fake)
  | None -> Alcotest.fail "entry vanished"

let test_serial_counter_persists () =
  (* File ids must never repeat across a remount: the serial counter is
     part of the descriptor. *)
  let drive, fs = fresh_fs () in
  let f1 = file_ok "create" (File.create fs ~name:"A.") in
  (match Fs.flush fs with Ok () -> () | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  let fs' = match Fs.mount drive with Ok f -> f | Error m -> Alcotest.failf "%s" m in
  let f2 = file_ok "create after remount" (File.create fs' ~name:"B.") in
  Alcotest.(check bool) "ids distinct across remount" false
    (File_id.equal (File.fid f1) (File.fid f2));
  Alcotest.(check bool) "serial advanced" true
    ((File.fid f2).File_id.serial > (File.fid f1).File_id.serial)

let test_nonstandard_disk_geometry () =
  (* §5.2: "a program using a large non-standard disk … include[s] a
     package that implements only the disk object" and reuses every
     standard package. Here the non-standard disk is just a different
     shape; streams, directories and the scavenger neither know nor
     care. *)
  let geometry =
    {
      Geometry.diablo_31 with
      Geometry.model = "non-standard video disk";
      cylinders = 330;
      heads = 4;
      sectors_per_track = 10;
      rotation_us = 24_000;
    }
  in
  (match Geometry.validate geometry with
  | Ok () -> ()
  | Error e -> Alcotest.failf "geometry: %s" e);
  let drive = Drive.create ~pack_id:9 geometry in
  let fs = Fs.format drive in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Big.dat") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 4000));
  dir_ok "add" (Directory.add root ~name:"Big.dat" (File.leader_name file));
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:4000) in
  Alcotest.(check string) "standard packages over a non-standard disk" (lorem 4000)
    (Bytes.to_string got);
  (* The shape is absolute data in the descriptor; a remount recovers it. *)
  (match Fs.mount drive with
  | Ok fs' -> Alcotest.(check bool) "shape round-trips" true (Geometry.equal (Fs.geometry fs') geometry)
  | Error m -> Alcotest.failf "mount: %s" m);
  match Alto_fs.Scavenger.scavenge drive with
  | Ok (_, report) ->
      Alcotest.(check int) "scavenger too" 0 report.Alto_fs.Scavenger.pages_lost
  | Error m -> Alcotest.failf "scavenge: %s" m

(* Property: random directory traffic matches an association-list
   model (names unique, order preserved for the survivors). *)
let prop_directory_matches_model =
  QCheck.Test.make ~name:"random directory ops match an assoc model" ~count:25
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 2) (int_bound 11)))
    (fun ops ->
      let drive = Drive.create ~pack_id:5 small_geometry in
      let fs = Fs.format drive in
      let root =
        match Directory.open_root fs with Ok r -> r | Error _ -> QCheck.assume_fail ()
      in
      (* A small pool of files to point entries at. *)
      let pool =
        Array.init 4 (fun i ->
            match File.create fs ~name:(Printf.sprintf "Pool%d." i) with
            | Ok f -> File.leader_name f
            | Error _ -> QCheck.assume_fail ())
      in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, k) ->
          if !ok then
            let name = Printf.sprintf "N%d." k in
            match op with
            | 0 -> (
                let fn = pool.(k mod Array.length pool) in
                match Directory.add root ~name fn with
                | Ok () ->
                    if List.mem_assoc name !model then ok := false
                    else model := !model @ [ (name, fn) ]
                | Error (Directory.Malformed _) ->
                    if not (List.mem_assoc name !model) then ok := false
                | Error _ -> ok := false)
            | 1 -> (
                match Directory.remove root name with
                | Ok removed ->
                    if removed <> List.mem_assoc name !model then ok := false
                    else model := List.remove_assoc name !model
                | Error _ -> ok := false)
            | _ -> (
                match Directory.lookup root name with
                | Ok (Some e) -> (
                    match List.assoc_opt name !model with
                    | Some fn ->
                        if
                          not
                            (File_id.equal e.Directory.entry_file.Page.abs.Page.fid
                               fn.Page.abs.Page.fid)
                        then ok := false
                    | None -> ok := false)
                | Ok None -> if List.mem_assoc name !model then ok := false
                | Error _ -> ok := false))
        ops;
      (* Final sweep: the live entries equal the model as a set (slot
         reuse reorders the file, so order is not insertion order). *)
      !ok
      &&
      match Directory.entries root with
      | Error _ -> false
      | Ok entries ->
          List.sort compare
            (List.map (fun (e : Directory.entry) -> e.Directory.entry_name) entries)
          = List.sort compare (List.map fst !model))

let suite =
  [
    ("format then mount", `Quick, test_format_then_mount);
    ("mount rejects unformatted", `Quick, test_mount_rejects_unformatted);
    ("mount rejects corrupt descriptor", `Quick, test_mount_rejects_corrupt_descriptor);
    ("boot page never allocated", `Quick, test_boot_page_never_allocated);
    ("allocate writes label+value", `Quick, test_allocate_writes_label_and_value);
    ("stale map hint survived", `Quick, test_stale_map_hint_is_survived);
    ("free writes ones", `Quick, test_free_page_writes_ones);
    ("free refuses wrong name", `Quick, test_free_page_refuses_wrong_name);
    ("disk full", `Quick, test_disk_full);
    ("create and reopen", `Quick, test_create_and_reopen);
    ("write/read roundtrip", `Quick, test_write_read_roundtrip);
    ("overwrite middle", `Quick, test_overwrite_middle);
    ("append grows", `Quick, test_append_grows);
    ("full page then append", `Quick, test_exactly_full_page_then_append);
    ("truncate", `Quick, test_truncate);
    ("delete reclaims", `Quick, test_delete_reclaims_everything);
    ("stale hint recovery", `Quick, test_stale_hint_recovery);
    ("leader dates", `Quick, test_leader_dates_advance);
    ("directory add/lookup/remove", `Quick, test_directory_add_lookup_remove);
    ("directory slot reuse", `Quick, test_directory_slot_reuse);
    ("directory duplicate rejected", `Quick, test_directory_duplicate_rejected);
    ("directory graph", `Quick, test_directory_graph);
    ("directory update address", `Quick, test_update_address);
    ("serial counter persists", `Quick, test_serial_counter_persists);
    ("non-standard disk geometry", `Quick, test_nonstandard_disk_geometry);
    QCheck_alcotest.to_alcotest ~verbose:false prop_directory_matches_model;
  ]

let () = Alcotest.run "alto_fs" [ ("fs", suite) ]
