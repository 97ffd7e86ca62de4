(* Whole-system integration: a life in the day of a pack, a model-based
   property test of file IO, and moving files between two drives. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Compactor = Alto_fs.Compactor
module Stream = Alto_streams.Stream
module Disk_stream = Alto_streams.Disk_stream
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module World = Alto_world.World
module Checkpoint = Alto_world.Checkpoint
module System = Alto_os.System
module Loader = Alto_os.Loader
module Executive = Alto_os.Executive

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let file_ok what r = check_ok File.pp_error what r
let dir_ok what r = check_ok Directory.pp_error what r

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  go 0

(* {2 a full day} *)

let test_a_day_in_the_life () =
  (* Boot; work at the executive; run a program; world-swap it; crash the
     machine mid-afternoon; scavenge; compact; verify everything. *)
  let geometry = { Geometry.diablo_31 with Geometry.model = "daily pack"; cylinders = 80 } in
  let system = System.boot ~geometry () in

  (* Morning: make some files at the executive. *)
  Keyboard.feed (System.keyboard system)
    "put Notes.txt the morning plan\nput Draft.txt first sentence\nquit\n";
  let outcome = Executive.run system in
  Alcotest.(check bool) "morning session done" true outcome.Executive.quit;

  (* Midday: a program computes something and leaves it in a file. *)
  let program =
    Asm.assemble_exn ~origin:System.user_base
      [
        Asm.Label "start";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
        Asm.Op ("JSR", [ Asm.Ext "CreateFile" ]);
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 1 ]);
        Asm.Op ("JSR", [ Asm.Ext "OpenFile" ]);
        Asm.Op ("STA", [ Asm.Reg 0; Asm.Lab "handle" ]);
        (* write "42" *)
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 52 ]);
        Asm.Op ("JSR", [ Asm.Ext "StreamPut" ]);
        Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 50 ]);
        Asm.Op ("JSR", [ Asm.Ext "StreamPut" ]);
        Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
        Asm.Op ("JSR", [ Asm.Ext "CloseStream" ]);
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
        Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
        Asm.Label "handle";
        Asm.Word_data 0;
        Asm.Label "fname";
        Asm.String_data "Answer.txt";
      ]
  in
  let file =
    check_ok Loader.pp_error "save" (Loader.save_program system ~name:"Compute.run" program)
  in
  let stop = check_ok Loader.pp_error "run" (Loader.run system file) in
  Alcotest.(check bool) "program finished" true (stop = Vm.Stopped 0);

  (* Afternoon: checkpoint the world. *)
  let root = dir_ok "root" (Directory.open_root (System.fs system)) in
  let state =
    check_ok Checkpoint.pp_error "state file"
      (Checkpoint.state_file (System.fs system) ~directory:root ~name:"Day.state")
  in
  Memory.write (System.memory system) 9000 (Word.of_int 1234);
  check_ok Checkpoint.pp_error "save" (Checkpoint.save (System.cpu system) state);

  (* Disaster: the machine is yanked, some labels decay, the descriptor
     dies. *)
  let drive = System.drive system in
  let rng = Random.State.make [| 3 |] in
  ignore (Fault.decay rng drive ~fraction:0.002);
  Fault.corrupt_part rng drive Fs.descriptor_leader_address Sector.Label;

  (* Recovery: scavenge, then compact while we're at it. *)
  let fs', report =
    match Scavenger.scavenge drive with Ok x -> x | Error m -> Alcotest.failf "%s" m
  in
  Alcotest.(check bool) "a clean bill or minor losses" true
    (report.Scavenger.pages_lost < 10);
  (match Compactor.compact fs' with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "compact: %s" m);

  (* Evening: everything still there? *)
  let root' = dir_ok "root" (Directory.open_root fs') in
  let read name =
    match dir_ok "lookup" (Directory.lookup root' name) with
    | Some e ->
        let f = file_ok "open" (File.open_leader fs' e.Directory.entry_file) in
        Bytes.to_string (file_ok "read" (File.read_bytes f ~pos:0 ~len:(File.byte_length f)))
    | None -> Alcotest.failf "%s lost" name
  in
  Alcotest.(check string) "notes" "the morning plan" (read "Notes.txt");
  Alcotest.(check string) "answer" "42" (read "Answer.txt");
  (* The checkpoint still restores, even after compaction moved it. *)
  let state' =
    match dir_ok "lookup" (Directory.lookup root' "Day.state") with
    | Some e -> file_ok "open" (File.open_leader fs' e.Directory.entry_file)
    | None -> Alcotest.fail "checkpoint lost"
  in
  let fresh_memory = Memory.create () in
  let fresh_cpu = Cpu.create fresh_memory in
  check_ok World.pp_error "restore" (World.in_load fresh_cpu state' ~message:[||]);
  Alcotest.(check int) "world word" 1234 (Word.to_int (Memory.read fresh_memory 9000))

(* {2 model-based property: random file traffic} *)

let prop_file_matches_model =
  QCheck.Test.make ~name:"random file ops match a byte-string model" ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (triple (int_bound 3) (int_bound 2999) (int_bound 700)))
    (fun ops ->
      let geometry = { Geometry.diablo_31 with Geometry.model = "m"; cylinders = 30 } in
      let drive = Drive.create ~pack_id:2 geometry in
      let fs = Fs.format drive in
      let file =
        match File.create fs ~name:"Model." with Ok f -> f | Error _ -> QCheck.assume_fail ()
      in
      let model = ref "" in
      let byte_of i = Char.chr (32 + (i mod 90)) in
      let ok = ref true in
      List.iteri
        (fun step (op, pos, len) ->
          if !ok then
            match op with
            | 0 ->
                (* write at a valid position *)
                let pos = if String.length !model = 0 then 0 else pos mod (String.length !model + 1) in
                (* Bytes vary by position, so a swapped high/low half of
                   any word shows; odd [pos] and lengths come up often. *)
                let data = String.init (1 + (len mod 600)) (fun i -> byte_of ((step * 7) + i)) in
                (match File.write_bytes file ~pos data with
                | Ok () ->
                    let before = String.sub !model 0 pos in
                    let after_start = pos + String.length data in
                    let after =
                      if after_start >= String.length !model then ""
                      else String.sub !model after_start (String.length !model - after_start)
                    in
                    model := before ^ data ^ after
                | Error _ -> ok := false)
            | 1 ->
                (* truncate *)
                let len = if String.length !model = 0 then 0 else len mod (String.length !model + 1) in
                (match File.truncate file ~len with
                | Ok () -> model := String.sub !model 0 len
                | Error _ -> ok := false)
            | 2 ->
                (* read and compare a slice *)
                let pos = if String.length !model = 0 then 0 else pos mod String.length !model in
                let want_len = min (len + 1) (String.length !model - pos) in
                (match File.read_bytes file ~pos ~len:want_len with
                | Ok bytes ->
                    if not (String.equal (Bytes.to_string bytes) (String.sub !model pos want_len))
                    then ok := false
                | Error _ -> ok := false)
            | _ ->
                (* forget hints: must be invisible *)
                File.invalidate_hints file)
        ops;
      (* Full-content check, then reopen and check again, then scavenge
         and check a third time. *)
      let matches f =
        match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
        | Ok bytes ->
            String.equal (Bytes.to_string bytes) !model
            && File.byte_length f = String.length !model
        | Error _ -> false
      in
      !ok && matches file
      && (match File.open_leader fs (File.leader_name file) with
         | Ok f -> matches f
         | Error _ -> false)
      &&
      (* Quiesce before the raw rebuild: the scavenger reads the
         platter, so delayed track-buffer writes must go out first —
         the same discipline the Executive's scavenge command follows. *)
      (ignore (Alto_fs.Bio.flush (Fs.bio fs));
       match Scavenger.scavenge drive with
       | Error _ -> false
       | Ok (fs', _) -> (
           match File.open_leader fs' (File.leader_name file) with
           | Ok f -> matches f
           | Error _ -> false)))

(* {2 two drives} *)

let test_copy_between_packs () =
  (* §2: the machine has "one or two moving-head disk drives". Two
     volumes, one machine: copy a file across, byte-identical. *)
  let clock = Alto_machine.Sim_clock.create () in
  let geometry = { Geometry.diablo_31 with Geometry.model = "pack"; cylinders = 30 } in
  let drive_a = Drive.create ~clock ~pack_id:1 geometry in
  let drive_b = Drive.create ~clock ~pack_id:2 { Geometry.diablo_44 with Geometry.cylinders = 40 } in
  let fs_a = Fs.format drive_a in
  let fs_b = Fs.format drive_b in
  let root_a = dir_ok "root a" (Directory.open_root fs_a) in
  let root_b = dir_ok "root b" (Directory.open_root fs_b) in
  let original = file_ok "create" (File.create fs_a ~name:"Travel.txt") in
  let text = String.init 3000 (fun i -> Char.chr (32 + (i mod 90))) in
  file_ok "write" (File.write_bytes original ~pos:0 text);
  dir_ok "add a" (Directory.add root_a ~name:"Travel.txt" (File.leader_name original));
  (* Copy through streams, the way a real utility would. *)
  let copy = file_ok "create b" (File.create fs_b ~name:"Travel.txt") in
  dir_ok "add b" (Directory.add root_b ~name:"Travel.txt" (File.leader_name copy));
  let src = Disk_stream.open_file ~mode:Disk_stream.Read_only original in
  let dst = Disk_stream.open_file ~mode:Disk_stream.Write_only copy in
  let n = Stream.copy ~src ~dst in
  src.Stream.close ();
  dst.Stream.close ();
  Alcotest.(check int) "bytes pumped" 3000 n;
  let back = file_ok "reopen" (File.open_leader fs_b (File.leader_name copy)) in
  Alcotest.(check string) "identical on the other pack" text
    (Bytes.to_string (file_ok "read" (File.read_bytes back ~pos:0 ~len:3000)));
  (* Same pack ids don't collide: each volume scavenges independently. *)
  let _, report_a =
    match Scavenger.scavenge drive_a with Ok x -> x | Error m -> Alcotest.failf "%s" m
  in
  Alcotest.(check int) "pack a sound" 0 report_a.Scavenger.pages_lost

(* {2 executive over a damaged pack} *)

let test_executive_survives_crash_and_scavenges () =
  let system = System.boot ~geometry:{ Geometry.diablo_31 with Geometry.model = "x"; cylinders = 40 } () in
  Keyboard.feed (System.keyboard system) "put Precious.txt do not lose\nquit\n";
  ignore (Executive.run system);
  (* Crash: the in-core map is gone (simulated by remounting), and some
     decay happened. *)
  let rng = Random.State.make [| 8 |] in
  ignore (Fault.decay rng (System.drive system) ~fraction:0.001);
  Keyboard.feed (System.keyboard system) "scavenge\ntype Precious.txt\nquit\n";
  ignore (Executive.run system);
  let text = Display.contents (System.display system) in
  Alcotest.(check bool) "file typed after scavenge" true (contains_sub text "do not lose")

let () =
  Alcotest.run "alto integration"
    [
      ( "lifecycle",
        [
          ("a day in the life", `Quick, test_a_day_in_the_life);
          ("executive survives a crash", `Quick, test_executive_survives_crash_and_scavenges);
        ] );
      ( "model",
        [ QCheck_alcotest.to_alcotest ~verbose:false prop_file_matches_model ] );
      ("two drives", [ ("copy between packs", `Quick, test_copy_between_packs) ]);
    ]
