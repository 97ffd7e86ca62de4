(* [rebuild] — replicas auditing each other, batch.

   Three Altos hold byte-identical packs and audit each other slice by
   slice over a seeded lossy, duplicating, delaying net; every drive has
   a seeded soft-error stream and a few marginal sectors. After one
   clean lap, one node's pack is lost mid-audit and rebuilt from the
   crowd while a survivor keeps serving GETs on a clean service net.
   One operation is one audited slice. Oracles: every GET during the
   rebuild is byte-compared with the reference corpus, no node loses a
   page, and all three packs end sector-identical. *)

open Bench_types
module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Replica = Alto_server.Replica

type params = {
  cylinders : int;
  files : int;
  file_bytes : int;
  fetch_every : int;  (** Fleet ticks between GETs served during the rebuild. *)
}

let params = function
  | Full -> { cylinders = 203; files = 256; file_bytes = 4000; fetch_every = 8 }
  | Small -> { cylinders = 10; files = 8; file_bytes = 2000; fetch_every = 2 }

let max_ticks = 20_000_000

let fail what pp e = Format.kasprintf failwith "rebuild %s: %a" what pp e

let setup size ~seed =
  let p = params size in
  let g = Gen.create seed in
  let g_corpus = Gen.split g and g_faults = Gen.split g and g_load = Gen.split g in
  let geometry = { Geometry.diablo_31 with Geometry.model = "replica"; cylinders = p.cylinders } in
  let clock = Sim_clock.create () in
  let net = Net.create ~clock () in
  let drives = Array.init 3 (fun _ -> Drive.create ~clock ~pack_id:1 geometry) in
  let sectors = Drive.sector_count drives.(0) in
  let fs0 = Fs.format drives.(0) in
  let root = match Directory.open_root fs0 with Ok r -> r | Error e -> fail "open root" Directory.pp_error e in
  let names = Array.init p.files (fun k -> Printf.sprintf "Repl%03d.dat" k) in
  let bodies =
    Array.map
      (fun name ->
        let data = Gen.text g_corpus p.file_bytes in
        let f = match File.create fs0 ~name with Ok f -> f | Error e -> fail "create" File.pp_error e in
        (match File.write_bytes f ~pos:0 data with Ok () -> () | Error e -> fail "fill" File.pp_error e);
        (match File.flush_leader f with Ok () -> () | Error e -> fail "leader" File.pp_error e);
        (match Directory.add root ~name (File.leader_name f) with
        | Ok () -> ()
        | Error e -> fail "catalogue" Directory.pp_error e);
        data)
      names
  in
  ignore (Alto_fs.Bio.flush (Fs.bio fs0));
  (match Fs.flush fs0 with Ok () -> () | Error e -> fail "flush" Fs.pp_error e);
  (* Provision the replicas as clones of the built pack, sector for sector. *)
  for i = 1 to 2 do
    for s = 0 to sectors - 1 do
      let a = Disk_address.of_index s in
      let sec = Drive.peek drives.(0) a in
      List.iter (fun part -> Drive.poke drives.(i) a part (Sector.part_of sec part)) Sector.[ Header; Label; Value ]
    done
  done;
  Array.iter
    (fun d ->
      Drive.set_soft_errors d ~seed:(Gen.bits g_faults) ~rate:0.002;
      for _ = 1 to 3 do
        Drive.set_marginal d
          (Disk_address.of_index (1 + Gen.int g_faults (sectors - 1)))
          ~rate:0.05 ~growth:1.1 ~degrade_after:1_000_000
      done)
    drives;
  Net.set_faults net ~drop:0.02 ~dup:0.03 ~delay:0.10 ~delay_us:2_000 ~seed:(Gen.bits g_faults) ();
  let fleet = Replica.create ~clock net in
  let nodes =
    Array.mapi
      (fun i name ->
        let fs =
          if i = 0 then fs0 else match Fs.mount drives.(i) with Ok fs -> fs | Error msg -> failwith ("rebuild mount: " ^ msg)
        in
        Replica.join fleet ~name fs)
      [| "alto-a"; "alto-b"; "alto-c" |]
  in
  let service = Net.create ~clock () in
  let srv = File_server.create fs0 (Net.attach service ~name:"fs") in
  let probe = Net.attach service ~name:"probe" in
  let popularity = Gen.zipf_deck (Gen.split g_load) ~n:p.files ~s:1.0 ~block:(4 * p.files) in
  let kill_at = (sectors * (40 + Gen.int g_load 21)) / 100 in
  Array.iter !tamper drives;
  fun () ->
    let t = tally () in
    let c = nodes.(2) in
    let t_start = Sim_clock.now_us clock in
    let last = Array.make 3 t_start and audited = Array.map Replica.slices_audited nodes in
    let slices = ref [] in
    let ticks = ref 0 in
    let tick () =
      incr ticks;
      if !ticks > max_ticks then failwith "rebuild: the fleet stalled";
      ignore (Spans.span Spans.Replica (fun () -> Replica.tick_fleet fleet) : int);
      Array.iteri
        (fun i n ->
          let a = Replica.slices_audited n in
          if a > audited.(i) then begin
            let now = Sim_clock.now_us clock in
            for _ = audited.(i) + 1 to a do
              slices := (now - last.(i)) :: !slices
            done;
            audited.(i) <- a;
            last.(i) <- now
          end)
        nodes
    in
    let run_until pred =
      while not (pred ()) do
        tick ()
      done
    in
    let fetches = ref 0 in
    let fetch () =
      incr fetches;
      let k = Gen.deal popularity in
      let got =
        Spans.op (fun () ->
            Spans.span Spans.File_server (fun () ->
                File_server.Client.fetch probe ~server:"fs" ~name:names.(k) ~pump:(fun () ->
                    ignore (File_server.tick srv : int);
                    tick ())))
      in
      check t (match got with Ok body -> String.equal body bodies.(k) | Error _ -> false)
    in
    let all_reached lap = Array.for_all (fun n -> Replica.laps n >= lap) nodes in
    run_until (fun () -> all_reached 1);
    run_until (fun () -> Replica.cursor c >= kill_at);
    (* Node C's pack dies wholesale. *)
    let junk_label = Array.make Sector.label_words (Word.of_int 0xDEAD) in
    let junk_value = Array.make Sector.value_words (Word.of_int 0xDEAD) in
    for s = 0 to sectors - 1 do
      Drive.poke drives.(2) (Disk_address.of_index s) Sector.Label junk_label;
      Drive.poke drives.(2) (Disk_address.of_index s) Sector.Value junk_value
    done;
    Spans.span Spans.Replica (fun () -> Replica.rejoin c);
    let t_rejoin = Sim_clock.now_us clock in
    let target = Replica.laps c + 1 in
    let rebuild_us = ref 0 in
    let n = ref 0 in
    while !rebuild_us = 0 || not (all_reached (target + 1)) do
      incr n;
      tick ();
      if !n mod p.fetch_every = 0 then fetch ();
      if !rebuild_us = 0 && Replica.laps c >= target && not (Replica.rebuilding c) then
        rebuild_us := Sim_clock.now_us clock - t_rejoin
    done;
    let phase_us = Sim_clock.now_us clock - t_start in
    let lost = Array.fold_left (fun acc n -> acc + Replica.pages_lost n) 0 nodes in
    check t (lost = 0);
    Books.untimed (fun () ->
        let reference = image_digest [ drives.(0) ] in
        check t (String.equal (image_digest [ drives.(1) ]) reference);
        check t (String.equal (image_digest [ drives.(2) ]) reference));
    let slices = Array.of_list (List.rev !slices) in
    let repaired = Replica.pages_repaired c in
    {
      ops = Array.length slices;
      attempted = t.attempted;
      failed = t.failed;
      sim_ops_per_s = per_s (Array.length slices) phase_us;
      sim_p50_us = median_us slices;
      sim_p99_us = percentile slices 0.99;
      sim_words_per_s = per_s (repaired * Sector.value_words) !rebuild_us;
      extra = [ ("sim_rebuild_s", float_of_int !rebuild_us /. 1e6) ];
      notes =
        [
          Printf.sprintf
            "pack %d sectors x 3 nodes, killed at sector %d; %d slices audited, %d pages repaired on the lost node, %d GETs served"
            sectors kill_at (Array.length slices) repaired !fetches;
        ];
      drives = Array.to_list drives;
    }
