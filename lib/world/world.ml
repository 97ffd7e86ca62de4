module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module File = Alto_fs.File
module Fs = Alto_fs.Fs
module Obs = Alto_obs.Obs

let m_outloads = Obs.counter "world.outloads"
let m_inloads = Obs.counter "world.inloads"
let m_emergency_outloads = Obs.counter "world.emergency_outloads"
let h_image_words = Obs.histogram "world.image_words"

let file_clock file = Fs.clock (File.fs file)

type error = File_error of File.error | Bad_state of string | Message_too_long

let pp_error fmt = function
  | File_error e -> File.pp_error fmt e
  | Bad_state msg -> Format.fprintf fmt "not a machine state: %s" msg
  | Message_too_long -> Format.pp_print_string fmt "message exceeds 20 words"

let max_message_words = 20
let message_area = 16

(* State image layout (word offsets):
     0     magic          3-8    registers (PC, FP, AC0-3)
     1     format version 9-10   memory size (hi/lo)
     2     register count 11     reserved
     12..  the 64K memory image *)
let magic = 0xA1F0
let version = 1
let header_words = 12
let memory_offset = header_words
let state_file_words = header_words + Memory.size

let ( let* ) = Result.bind
let file_err r = Result.map_error (fun e -> File_error e) r

let image_of ~registers memory =
  let header = Array.make header_words Word.zero in
  header.(0) <- Word.of_int magic;
  header.(1) <- Word.of_int version;
  header.(2) <- Word.of_int Cpu.register_count;
  Array.blit registers 0 header 3 Cpu.register_count;
  header.(9) <- Word.of_int (Memory.size lsr 16);
  header.(10) <- Word.of_int Memory.size;
  Array.concat [ header; Memory.read_block memory ~pos:0 ~len:Memory.size ]

let write_image file image =
  let len = 2 * Array.length image in
  let* () =
    (* Trim any excess so the file is exactly one state image. *)
    if File.byte_length file > len then file_err (File.truncate file ~len) else Ok ()
  in
  let* () = file_err (File.write_words file ~pos:0 image) in
  file_err (File.flush_leader file)

let timed_write_image ~span file image =
  Obs.observe h_image_words (Array.length image);
  Obs.time (file_clock file) span (fun () -> write_image file image)

let out_load cpu file =
  Obs.incr m_outloads;
  let r =
    timed_write_image ~span:"world.outload_us" file
      (image_of ~registers:(Cpu.registers cpu) (Cpu.memory cpu))
  in
  (* A completed OutLoad is a consistency point: seal a flight record
     (before the clean flag — the write dirties the volume), then the
     world and the volume agree and the pack may declare itself cleanly
     shut down. Best effort — a failed flush merely leaves the flag set,
     and the next boot pays a bounded recovery scan it did not need. *)
  (match r with
  | Ok () ->
      let fs = File.fs file in
      Alto_fs.Flight.flush ~reason:"outload" fs;
      (match Fs.mark_clean fs with Ok () | Error _ -> ())
  | Error _ -> ());
  r

let emergency_out_load memory file =
  Obs.incr m_emergency_outloads;
  timed_write_image ~span:"world.outload_us" file
    (image_of ~registers:(Array.make Cpu.register_count Word.zero) memory)

let read_header file =
  let* header = file_err (File.read_words file ~pos:0 ~len:header_words) in
  if Array.length header < header_words then Error (Bad_state "file too short")
  else if Word.to_int header.(0) <> magic then Error (Bad_state "bad magic")
  else if Word.to_int header.(1) <> version then Error (Bad_state "unknown version")
  else if Word.to_int header.(2) <> Cpu.register_count then
    Error (Bad_state "register file size mismatch")
  else if (Word.to_int header.(9) lsl 16) lor Word.to_int header.(10) <> Memory.size then
    Error (Bad_state "memory size mismatch")
  else Ok header

let peek_registers file =
  let* header = read_header file in
  Ok (Array.sub header 3 Cpu.register_count)

let in_load cpu file ~message =
  if Array.length message > max_message_words then Error Message_too_long
  else begin
    Obs.incr m_inloads;
    Obs.time (file_clock file) "world.inload_us" @@ fun () ->
    let* _header = read_header file in
    let* image = file_err (File.read_words file ~pos:memory_offset ~len:Memory.size) in
    if Array.length image < Memory.size then Error (Bad_state "memory image truncated")
    else begin
      let memory = Cpu.memory cpu in
      Memory.write_block memory ~pos:0 image;
      let* registers = peek_registers file in
      Cpu.load_registers cpu registers;
      (* Deliver the message into the revived world. *)
      Memory.write memory (message_area - 1) (Word.of_int (Array.length message));
      Memory.fill memory ~pos:message_area ~len:max_message_words Word.zero;
      Memory.write_block memory ~pos:message_area message;
      Cpu.set_ac cpu 1 (Word.of_int message_area);
      (* The revived world inherits the machine, not the old world's
         in-core state: flush the old world's delayed writes (they were
         acknowledged; the swap must not lose them), then drop every
         buffered track and verified label, as a real inload drops the
         whole address space. *)
      ignore (Alto_fs.Bio.flush (Fs.bio (File.fs file)));
      Alto_fs.Bio.clear (Fs.bio (File.fs file));
      Ok ()
    end
  end

let read_saved_memory file ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Memory.size then
    invalid_arg "World.read_saved_memory: range outside the image";
  let* ws = file_err (File.read_words file ~pos:(memory_offset + pos) ~len) in
  if Array.length ws < len then Error (Bad_state "image truncated") else Ok ws

let write_saved_memory file ~pos ws =
  if pos < 0 || pos + Array.length ws > Memory.size then
    invalid_arg "World.write_saved_memory: range outside the image";
  file_err (File.write_words file ~pos:(memory_offset + pos) ws)
