(* [session] — the single user's own traffic, closed loop.

   One Diablo 31 pack, a corpus about four times the 16-track (192
   sector) track cache with a Zipf head that fits in it. Each operation
   waits for the previous one. The six kinds of operation — whole-file
   sequential reads, page-sized random reads, overwrites, appends (a
   file that has grown 2 KB past its first length is truncated back
   first, so the corpus stays the same size), create+delete of scratch
   files, and directory lookups that resolve a page through the hint
   ladder — come in equal shares, plus an OutLoad+InLoad world swap
   every [swap_every] operations, and think time between operations.
   No faults are injected. A name -> bytes reference model checks
   every byte read back.

   No source gives a user's proportions, so each parameter follows a
   stated rule (altbench/METRICS.md): equal shares of the six kinds;
   every write carries 1 B to one page, the unit [File] transfers; the
   think time averages one revolution of the pack; and swaps take the
   same share of simulated time as an average kind of operation. *)

open Bench_types
module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Hints = Alto_fs.Hints
module Page = Alto_fs.Page
module World = Alto_world.World

type params = {
  files : int;
  head : int;  (** The most popular ranks get small files, so the head fits in the cache. *)
  head_pages : int * int;
  tail_pages : int * int;
  zipf_s : float;
  n_ops : int;
  swap_every : int;
  max_scratch : int;
}

let params = function
  | Full ->
      {
        files = 48;
        head = 8;
        head_pages = (1, 6);
        tail_pages = (6, 30);
        zipf_s = 1.0;
        n_ops = 4000;
        swap_every = 100;
        max_scratch = 4;
      }
  | Small ->
      {
        files = 12;
        head = 3;
        head_pages = (1, 3);
        tail_pages = (2, 8);
        zipf_s = 1.0;
        n_ops = 120;
        swap_every = 40;
        max_scratch = 2;
      }

(* The reference model: what each catalogued file must hold. *)
type model_file = {
  name : string;
  handle : File.t;
  base : int;  (** Length at creation: appends wrap back to it, so the corpus stays the size it started. *)
  mutable data : string;
}

(* How far appends may grow a file before it is truncated back, like a
   log that is rotated. *)
let append_slack = 2048

(* Mean think time: one revolution, so operations start at every
   rotational angle rather than on the sector grid the previous one
   ended on. *)
let think_us = Geometry.diablo_31.Geometry.rotation_us

let page_bytes = 512

let fail_file what e = Format.kasprintf failwith "session %s: %a" what File.pp_error e
let fail_dir what e = Format.kasprintf failwith "session %s: %a" what Directory.pp_error e

(* The bytes of a page value as [File] packs them: even byte high. *)
let value_bytes (value : Word.t array) n =
  String.init n (fun b ->
      let w = Word.to_int value.(b / 2) in
      Char.chr (if b mod 2 = 0 then w lsr 8 else w land 0xff))

let splice data ~pos s =
  let len = max (String.length data) (pos + String.length s) in
  let b = Bytes.make len ' ' in
  Bytes.blit_string data 0 b 0 (String.length data);
  Bytes.blit_string s 0 b pos (String.length s);
  Bytes.to_string b

let setup size ~seed =
  let p = params size in
  let g = Gen.create seed in
  let g_corpus = Gen.split g and g_ops = Gen.split g and g_world = Gen.split g in
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let clock = Fs.clock fs in
  let root =
    match Directory.open_root fs with Ok r -> r | Error e -> fail_dir "open root" e
  in
  let make name data =
    let f = match File.create fs ~name with Ok f -> f | Error e -> fail_file "create" e in
    (match File.write_bytes f ~pos:0 data with Ok () -> () | Error e -> fail_file "fill" e);
    (match File.flush_leader f with Ok () -> () | Error e -> fail_file "leader" e);
    (match Directory.add root ~name (File.leader_name f) with
    | Ok () -> ()
    | Error e -> fail_dir "catalogue" e);
    f
  in
  (* The corpus's shape is fixed: file [r] holds popularity rank [r],
     and its size is a fixed function of the rank spread evenly over
     each range, so every seed offers the same layout and demand. The
     seed decides what the files hold and the operations run on them. *)
  let pages_of_rank r =
    let spread (lo, hi) k n = lo + ((hi - lo) * k / max 1 (n - 1)) in
    if r < p.head then spread p.head_pages ((r * 5) mod p.head) p.head
    else spread p.tail_pages (((r - p.head) * 7) mod (p.files - p.head)) (p.files - p.head)
  in
  let corpus =
    Array.init p.files (fun r ->
        let n = (pages_of_rank r * page_bytes) - ((r * 97) mod page_bytes) in
        let name = Printf.sprintf "Doc%03d.txt" r in
        let data = Gen.text g_corpus n in
        { name; handle = make name data; base = n; data })
  in
  (* Stratified draws (see [Gen]): the op mix, the popularity and the
     sizes hold exactly per block, the order is the seed's. Each kind of
     operation has its own popularity deck, so which files one kind
     touches (a whole-file read of a 30-page file or of a 1-page one)
     does not vary with the seed either. *)
  let kinds = Gen.deck (Gen.split g_ops) ~weights:(Array.make 6 1.0) ~block:60 in
  let popularity = Array.init 6 (fun _ -> Gen.zipf_deck (Gen.split g_ops) ~n:p.files ~s:p.zipf_s ~block:200) in
  let sizes = Gen.strata (Gen.split g_ops) ~block:100 in
  (* The user thinks between operations (exponential, mean [think_us]). *)
  let thinking = Gen.strata (Gen.split g_ops) ~block:100 in
  (* The world a swap saves and restores, in a state file pre-sized to
     one image so OutLoad pays the steady-state second. *)
  let memory = Memory.create () in
  for a = 0 to Memory.size - 1 do
    Memory.write memory a (Word.of_int (Gen.int g_world 0x10000))
  done;
  let cpu = Cpu.create memory in
  let state_file = make "World.state" (String.make (2 * World.state_file_words) '\000') in
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  (match Fs.flush fs with Ok () -> () | Error e -> Format.kasprintf failwith "session flush: %a" Fs.pp_error e);
  !tamper drive;
  fun () ->
    let t = tally () in
    let latencies = Array.make p.n_ops 0 in
    let n_lat = ref 0 in
    let seq_words = ref 0 and seq_us = ref 0 in
    let swaps = ref [] in
    let lookups = ref 0 in
    let scratch = Queue.create () in
    let scratch_serial = ref 0 in
    let pick kind = corpus.(Gen.deal popularity.(kind)) in
    let timed_op f =
      let t0 = Sim_clock.now_us clock in
      let ok = try Spans.op f with Failure _ | Invalid_argument _ -> false in
      check t ok;
      Sim_clock.now_us clock - t0
    in
    (* Swaps are 1 % of the operations, so a p99 over every operation
       would sit on the boundary between the slowest file operation and
       the fastest swap. The latency percentiles are the file
       operations'; swaps have [sim_swap_s]. *)
    let file_op f =
      let dt = timed_op f in
      latencies.(!n_lat) <- dt;
      incr n_lat;
      dt
    in
    let read_whole m =
      match Spans.span Spans.File (fun () -> File.read_bytes m.handle ~pos:0 ~len:(String.length m.data + 1)) with
      | Ok b -> Bytes.equal b (Bytes.unsafe_of_string m.data)
      | Error _ -> false
    in
    let seq_read () =
      let m = pick 0 in
      let dt = file_op (fun () -> read_whole m) in
      seq_words := !seq_words + ((String.length m.data + 1) / 2);
      seq_us := !seq_us + dt
    in
    let random_read () =
      let m = pick 1 in
      let pages = (String.length m.data + page_bytes - 1) / page_bytes in
      let pos = Gen.int g_ops pages * page_bytes in
      ignore
        (file_op (fun () ->
             match Spans.span Spans.File (fun () -> File.read_bytes m.handle ~pos ~len:page_bytes) with
             | Ok b ->
                 let want = String.sub m.data pos (min page_bytes (String.length m.data - pos)) in
                 String.equal (Bytes.to_string b) want
             | Error _ -> false))
    in
    let overwrite () =
      let m = pick 2 in
      let pos = Gen.int g_ops (String.length m.data) in
      let s = Gen.text g_ops (Gen.strat_range sizes 1 page_bytes) in
      ignore
        (file_op (fun () ->
             match Spans.span Spans.File (fun () -> File.write_bytes m.handle ~pos s) with
             | Ok () ->
                 m.data <- splice m.data ~pos s;
                 true
             | Error _ -> false))
    in
    let append () =
      let m = pick 3 in
      let s = Gen.text g_ops (Gen.strat_range sizes 1 page_bytes) in
      let wrap = String.length m.data + String.length s > m.base + append_slack in
      ignore
        (file_op (fun () ->
             let truncated =
               (not wrap)
               || (match Spans.span Spans.File (fun () -> File.truncate m.handle ~len:m.base) with
                  | Ok () ->
                      m.data <- String.sub m.data 0 m.base;
                      true
                  | Error _ -> false)
             in
             truncated
             &&
             match Spans.span Spans.File (fun () -> File.append_bytes m.handle s) with
             | Ok () ->
                 m.data <- m.data ^ s;
                 true
             | Error _ -> false))
    in
    let create_delete () =
      incr scratch_serial;
      let name = Printf.sprintf "Tmp%05d.tmp" !scratch_serial in
      let data = Gen.text g_ops (Gen.strat_range sizes 1 page_bytes) in
      ignore
        (file_op (fun () ->
             let created =
               match Spans.span Spans.File (fun () -> File.create fs ~name) with
               | Error _ -> false
               | Ok f -> (
                   match
                     Spans.span Spans.File (fun () ->
                         Result.bind (File.write_bytes f ~pos:0 data) (fun () -> File.flush_leader f))
                   with
                   | Error _ -> false
                   | Ok () -> (
                       match Spans.span Spans.Directory (fun () -> Directory.add root ~name (File.leader_name f)) with
                       | Ok () ->
                           Queue.push { name; handle = f; base = String.length data; data } scratch;
                           true
                       | Error _ -> false))
             in
             let retired =
               if Queue.length scratch <= p.max_scratch then true
               else begin
                 let old = Queue.pop scratch in
                 let intact = read_whole old in
                 let removed =
                   match Spans.span Spans.Directory (fun () -> Directory.remove root old.name) with
                   | Ok true -> true
                   | Ok false | Error _ -> false
                 in
                 let deleted =
                   match Spans.span Spans.File (fun () -> File.delete old.handle) with Ok () -> true | Error _ -> false
                 in
                 intact && removed && deleted
               end
             in
             created && retired))
    in
    let lookup () =
      let m = pick 5 in
      let pages = (String.length m.data + page_bytes - 1) / page_bytes in
      let pn = 1 + Gen.int g_ops pages in
      incr lookups;
      ignore
        (file_op (fun () ->
             match Spans.span Spans.Directory (fun () -> Directory.lookup root m.name) with
             | Ok (Some e) when Alto_fs.File_id.equal e.Directory.entry_file.Page.abs.Page.fid (File.fid m.handle) -> (
                 let page_hint =
                   match File.page_name m.handle pn with Ok fn -> Some fn.Page.addr | Error _ -> None
                 in
                 let req =
                   {
                     Hints.req_name = m.name;
                     req_fid = Some (File.fid m.handle);
                     req_page = pn;
                     req_page_hint = page_hint;
                     req_leader_hint = Some e.Directory.entry_file.Page.addr;
                   }
                 in
                 match Spans.span Spans.Hints (fun () -> Hints.read_page fs ~directory:root req) with
                 | Ok s ->
                     let pos = (pn - 1) * page_bytes in
                     let n = min page_bytes (String.length m.data - pos) in
                     s.Hints.label.Alto_fs.Label.length = n
                     && String.equal (value_bytes s.Hints.value n) (String.sub m.data pos n)
                 | Error _ -> false)
             | Ok _ | Error _ -> false))
    in
    let swap () =
      (* The world changes a little between swaps, then saves itself,
         is scribbled over by another world, and comes back. *)
      let at = Gen.int g_world (Memory.size - 256) in
      for a = at to at + 255 do
        Memory.write memory a (Word.of_int (Gen.int g_world 0x10000))
      done;
      let message = Array.init (1 + Gen.int g_world World.max_message_words) (fun _ -> Word.of_int (Gen.int g_world 0x10000)) in
      let expected = Memory.copy memory in
      Memory.write expected (World.message_area - 1) (Word.of_int (Array.length message));
      Memory.fill expected ~pos:World.message_area ~len:World.max_message_words Word.zero;
      Memory.write_block expected ~pos:World.message_area message;
      let dt =
        timed_op (fun () ->
            match Spans.span Spans.World (fun () -> World.out_load cpu state_file) with
            | Error _ -> false
            | Ok () -> (
                Memory.fill memory ~pos:0 ~len:Memory.size (Word.of_int 0xBEEF);
                match Spans.span Spans.World (fun () -> World.in_load cpu state_file ~message) with
                | Ok () -> Memory.equal memory expected
                | Error _ -> false))
      in
      swaps := dt :: !swaps
    in
    for i = 1 to p.n_ops do
      let kind = Gen.deal kinds in
      (* The hint ladder reads the platter, not the track cache, so like
         every raw-pack reader (bio.mli) the user settles delayed writes
         before a lookup, and then thinks. The sync is session work on
         the books, outside the lookup's latency and the ladder's span. *)
      if kind = 5 then ignore (Alto_fs.Bio.flush (Fs.bio fs));
      Sim_clock.advance_us clock (Gen.strat_exp_gap_us thinking ~rate:(1e6 /. float_of_int think_us));
      (match kind with
      | 0 -> seq_read ()
      | 1 -> random_read ()
      | 2 -> overwrite ()
      | 3 -> append ()
      | 4 -> create_delete ()
      | _ -> lookup ());
      if i mod p.swap_every = 0 then swap ()
    done;
    (* The session ends with a sync, off the books, so the image digest
       sees every acknowledged write. *)
    Books.untimed (fun () ->
        match Fs.flush fs with
        | Ok () -> ()
        | Error e -> Format.kasprintf failwith "session final flush: %a" Fs.pp_error e);
    let lat = Array.sub latencies 0 !n_lat in
    let ops = !n_lat + List.length !swaps in
    let total_us = Array.fold_left ( + ) (List.fold_left ( + ) 0 !swaps) lat in
    {
      ops;
      attempted = t.attempted;
      failed = t.failed;
      sim_ops_per_s = per_s ops total_us;
      sim_p50_us = median_us lat;
      sim_p99_us = percentile lat 0.99;
      sim_words_per_s = per_s !seq_words !seq_us;
      extra =
        [
          ("sim_swap_s", float_of_int (median_us (Array.of_list !swaps)) /. 1e6);
          ("directory.lookups", float_of_int !lookups);
        ];
      notes = [];
      drives = [ drive ];
    }
