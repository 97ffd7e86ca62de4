(* [scavenge] — whole-pack analysis, batch.

   A 2.5 MB Diablo 31 pack filled to about 75 % with seeded files. Each
   round damages the pack behind the file system's back — garbled
   labels on live data pages, dropped root-directory entries, orphaned
   pages claiming a file that does not exist — then runs [Fsck.check],
   [Scavenger.scavenge] and [Fsck.check] again. One operation is one of
   those passes. The oracles: the last check finds no violations, every
   file whose pages were not garbled reads back byte-identical under its
   name (a dropped entry must be re-adopted under its leader name), and
   garbled files are re-baselined to what the scavenger salvaged. *)

open Bench_types
module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Fsck = Alto_fs.Fsck

type params = {
  geometry : Geometry.t;
  fill : float;
  file_bytes : int * int;
  rounds : int;
  garble : int;
  drop : int;
  orphan : int;
}

let params = function
  | Full ->
      {
        geometry = Geometry.diablo_31;
        fill = 0.75;
        file_bytes = (1000, 9000);
        rounds = 4;
        garble = 4;
        drop = 4;
        orphan = 4;
      }
  | Small ->
      {
        geometry = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 24 };
        fill = 0.75;
        file_bytes = (500, 3000);
        rounds = 1;
        garble = 2;
        drop = 2;
        orphan = 2;
      }

let fail what pp e = Format.kasprintf failwith "scavenge %s: %a" what pp e
let settle fs = ignore (Alto_fs.Bio.flush (Fs.bio fs))

(* The out-of-band oracle: a catalogued file's pages, found by following
   label links on the platter from its directory entry. It trusts
   neither the file layer nor the caches, and costs no simulated time. *)
let chain drive (leader : Page.full_name) =
  let n = Drive.sector_count drive in
  let rec walk addr page acc steps =
    if Disk_address.is_nil addr || steps > n then Some (List.rev acc)
    else if Disk_address.to_index addr >= n then None
    else
      let sec = Drive.peek drive addr in
      match Label.of_words (Sector.part_of sec Sector.Label) with
      | Ok l when File_id.equal l.Label.fid leader.Page.abs.Page.fid && l.Label.page = page ->
          walk l.Label.next (page + 1) ((addr, l, Sector.part_of sec Sector.Value) :: acc) (steps + 1)
      | Ok _ | Error _ -> None
  in
  walk leader.Page.addr 0 [] 0

let raw_contents drive leader =
  Option.map
    (fun pages ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (_, (l : Label.t), value) ->
          if l.Label.page > 0 then
            for i = 0 to l.Label.length - 1 do
              let w = Word.to_int value.(i / 2) in
              Buffer.add_char b (Char.chr (if i mod 2 = 0 then w lsr 8 else w land 0xff))
            done)
        pages;
      Buffer.contents b)
    (chain drive leader)

let catalogue fs =
  let root = match Directory.open_root fs with Ok r -> r | Error e -> fail "open root" Directory.pp_error e in
  let entries = match Directory.entries root with Ok es -> es | Error e -> fail "entries" Directory.pp_error e in
  let by_name = Hashtbl.create 512 in
  List.iter (fun e -> Hashtbl.replace by_name e.Directory.entry_name e.Directory.entry_file) entries;
  (root, by_name)

let setup size ~seed =
  let p = params size in
  let g = Gen.create seed in
  let g_corpus = Gen.split g and g_damage = Gen.split g in
  let drive = Drive.create ~pack_id:1 p.geometry in
  let fs = Fs.format drive in
  let clock = Fs.clock fs in
  let root = match Directory.open_root fs with Ok r -> r | Error e -> fail "open root" Directory.pp_error e in
  (* The reference model: every catalogued file's name and bytes. *)
  let model : (string, string) Hashtbl.t = Hashtbl.create 512 in
  let names = ref [] in
  let total = Drive.sector_count drive in
  let target_busy = int_of_float (p.fill *. float_of_int total) in
  let i = ref 0 in
  while total - Fs.free_count fs < target_busy do
    let name = Printf.sprintf "F%04d.dat" !i in
    incr i;
    let lo, hi = p.file_bytes in
    let data = Gen.text g_corpus (Gen.range g_corpus lo hi) in
    let f = match File.create fs ~name with Ok f -> f | Error e -> fail "create" File.pp_error e in
    (match File.write_bytes f ~pos:0 data with Ok () -> () | Error e -> fail "fill" File.pp_error e);
    (match File.flush_leader f with Ok () -> () | Error e -> fail "leader" File.pp_error e);
    (match Directory.add root ~name (File.leader_name f) with Ok () -> () | Error e -> fail "catalogue" Directory.pp_error e);
    Hashtbl.replace model name data;
    names := name :: !names
  done;
  settle fs;
  (match Fs.flush fs with Ok () -> () | Error e -> fail "flush" Fs.pp_error e);
  let names = Array.of_list (List.rev !names) in
  !tamper drive;
  fun () ->
    let t = tally () in
    let fs = ref fs in
    let passes = ref [] and scavenges = ref [] and fscks = ref [] in
    let words = ref 0 in
    let repairs = ref 0 in
    (* One timed pass: simulated latency and the words the drive read. *)
    let pass f =
      let t0 = Sim_clock.now_us clock and w0 = Books.counter_now "disk.words_read" in
      let r = Spans.op f in
      let dt = Sim_clock.now_us clock - t0 in
      words := !words + (Books.counter_now "disk.words_read" - w0);
      passes := dt :: !passes;
      (r, dt)
    in
    let fsck () =
      let report, dt = pass (fun () -> Spans.span Spans.Fsck (fun () -> Fsck.check drive)) in
      fscks := dt :: !fscks;
      report
    in
    for _round = 1 to p.rounds do
      (* Damage, off the books: the pack is the workload's input. *)
      let garbled =
        Books.untimed (fun () ->
            let fs = !fs in
            settle fs;
            let root, by_name = catalogue fs in
            let live = Array.of_list (List.filter (Hashtbl.mem model) (Array.to_list names)) in
            let chosen = Hashtbl.create 16 in
            let rec choose () =
              let n = Gen.pick g_damage live in
              if Hashtbl.mem chosen n then choose () else (Hashtbl.replace chosen n (); n)
            in
            let dropped = List.init p.drop (fun _ -> choose ()) in
            (* A file the scavenger truncated to nothing has no data page
               left to garble; pick another. *)
            let data_pages name =
              match Option.bind (Hashtbl.find_opt by_name name) (chain drive) with
              | Some (_leader :: data) -> data
              | Some [] | None -> []
            in
            let rec garbleable () =
              let name = choose () in
              if data_pages name = [] then garbleable () else name
            in
            let garbled = List.init p.garble (fun _ -> garbleable ()) in
            List.iter
              (fun name ->
                match Directory.remove root name with
                | Ok true -> ()
                | Ok false | Error _ -> failwith ("scavenge: could not drop " ^ name))
              dropped;
            settle fs;
            List.iter
              (fun name ->
                let data = data_pages name in
                let addr, _, _ = List.nth data (Gen.int g_damage (List.length data)) in
                let rec garbage () =
                  let w = Array.init Sector.label_words (fun _ -> Word.of_int (Gen.int g_damage 0x10000)) in
                  w.(0) <- Word.of_int (Word.to_int w.(0) lor 0x4000);
                  match Label.classify w with Label.Garbage _ -> w | _ -> garbage ()
                in
                Drive.poke drive addr Sector.Label (garbage ()))
              garbled;
            (* Orphans: free sectors whose labels now claim page 2 of a
               file that has no leader. *)
            let placed = ref 0 and tries = ref 0 in
            while !placed < p.orphan && !tries < 10_000 do
              incr tries;
              let addr = Disk_address.of_index (1 + Gen.int g_damage (Drive.sector_count drive - 1)) in
              let sec = Drive.peek drive addr in
              if Label.classify (Sector.part_of sec Sector.Label) = Label.Free then begin
                let fid = File_id.make ~serial:(File_id.max_serial - (1000 * (1 + !placed))) ~version:1 () in
                let label =
                  Label.make ~fid ~page:2 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
                in
                Drive.poke drive addr Sector.Label (Label.to_words label);
                Drive.poke drive addr Sector.Value
                  (Array.init Sector.value_words (fun _ -> Word.of_int (Gen.int g_damage 0x10000)));
                incr placed
              end
            done;
            garbled)
      in
      let before = fsck () in
      check t (before.Fsck.violations <> [] || p.garble = 0);
      let scavenged, dt =
        pass (fun () -> Spans.span Spans.Scavenger (fun () -> Scavenger.scavenge drive))
      in
      scavenges := dt :: !scavenges;
      (match scavenged with
      | Error _ -> check t false
      | Ok (fs', r) ->
          check t true;
          fs := fs';
          let open Scavenger in
          repairs :=
            !repairs + r.orphans_adopted + r.links_repaired + r.labels_reclaimed + r.entries_fixed
            + r.entries_removed + r.leaders_rebuilt + r.relocated_pages + r.duplicates_rescued
            + if r.root_rebuilt then 1 else 0);
      let after = fsck () in
      check t (after.Fsck.violations = []);
      (* Every file read back from the platter, off the books. *)
      Books.untimed (fun () ->
          let _, by_name = catalogue !fs in
          Array.iter
            (fun name ->
              match Hashtbl.find_opt model name with
              | None -> ()
              | Some want -> (
                  let got = Option.bind (Hashtbl.find_opt by_name name) (raw_contents drive) in
                  if not (List.mem name garbled) then check t (got = Some want)
                  else
                    match got with
                    | Some data -> Hashtbl.replace model name data
                    | None -> Hashtbl.remove model name))
            names)
    done;
    let passes = Array.of_list (List.rev !passes) in
    let total_us = Array.fold_left ( + ) 0 passes in
    {
      ops = Array.length passes;
      attempted = t.attempted;
      failed = t.failed;
      sim_ops_per_s = per_s (Array.length passes) total_us;
      sim_p50_us = median_us passes;
      sim_p99_us = percentile passes 0.99;
      sim_words_per_s = per_s !words total_us;
      extra =
        [
          ("sim_scavenge_s", float_of_int (median_us (Array.of_list !scavenges)) /. 1e6);
          ("sim_fsck_s", float_of_int (median_us (Array.of_list !fscks)) /. 1e6);
          ("scavenger.repairs", float_of_int !repairs);
        ];
      notes = [];
      drives = [ drive ];
    }
