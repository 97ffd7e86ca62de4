module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address

type sector_class =
  | Live of Label.t
  | Free_sector
  | Marked_bad
  | Bad_media
  | Garbage of string

type claim = int * Label.t
type file = (int, claim list) Hashtbl.t

type t = {
  classes : sector_class array;
  headers_ok : bool array;
  files : (File_id.t, file) Hashtbl.t;
  descriptor : file;
  duration_us : int;
}

let classify_sector header label ~pack_id ~index =
  let cls =
    match Label.classify label with
    | Label.Valid l -> Live l
    | Label.Free -> Free_sector
    | Label.Bad -> Marked_bad
    | Label.Garbage msg -> Garbage msg
  in
  let header_ok =
    Word.to_int header.(0) = pack_id
    && Disk_address.equal (Disk_address.of_word header.(1)) (Disk_address.of_index index)
  in
  (cls, header_ok)

let run drive =
  let clock = Drive.clock drive in
  let started = Sim_clock.now_us clock in
  let n = Drive.sector_count drive in
  let classes = Array.make n Free_sector in
  let headers_ok = Array.make n true in
  (* The whole pack in one elevator batch: header and label of every
     sector, each through the retry ladder, issued cylinder by cylinder
     from wherever the heads happen to be. *)
  let headers = Array.init n (fun _ -> Array.make Sector.header_words Word.zero) in
  let labels = Array.init n (fun _ -> Array.make Sector.label_words Word.zero) in
  let requests =
    Array.init n (fun i ->
        Sched.request ~header:headers.(i) ~label:labels.(i)
          (Disk_address.of_index i)
          { Drive.op_none with header = Some Drive.Read; label = Some Drive.Read })
  in
  let outcomes = Sched.run_batch drive requests in
  (* Index the live labels as they are classified, in sector order: the
     first claim on a page is its lowest sector, later ones queue behind
     it as twins. *)
  let files = Hashtbl.create 64 and descriptor = Hashtbl.create 8 in
  let claim i (label : Label.t) =
    let fid = label.Label.fid and pn = label.Label.page in
    let pages =
      if File_id.equal fid File_id.descriptor then descriptor
      else
        match Hashtbl.find_opt files fid with
        | Some p -> p
        | None ->
            let p = Hashtbl.create 8 in
            Hashtbl.add files fid p;
            p
    in
    Hashtbl.replace pages pn (Option.value ~default:[] (Hashtbl.find_opt pages pn) @ [ (i, label) ])
  in
  for i = 0 to n - 1 do
    match outcomes.(i).Sched.result with
    | Error Drive.Bad_sector -> classes.(i) <- Bad_media
    | Error (Drive.Transient _) ->
        (* The batch goes through the reliable layer, so a transient here
           means retries were exhausted: treat as failing media. *)
        classes.(i) <- Bad_media
    | Error (Drive.Check_mismatch _) ->
        (* The sweep performs no checks. *)
        assert false
    | Ok () ->
        let cls, header_ok =
          classify_sector headers.(i) labels.(i) ~pack_id:(Drive.pack_id drive)
            ~index:i
        in
        classes.(i) <- cls;
        headers_ok.(i) <- header_ok;
        (match cls with Live label -> claim i label | _ -> ())
  done;
  let duration_us = Sim_clock.now_us clock - started in
  { classes; headers_ok; files; descriptor; duration_us }

let file t fid =
  if not (File_id.equal fid File_id.descriptor) then Hashtbl.find_opt t.files fid
  else if Hashtbl.length t.descriptor = 0 then None
  else Some t.descriptor

type defect = Missing of int | Stale_next of int * int

type chain = { headless : bool; prefix : int; last : int; defects : defect list }

let chain (pages : file) =
  let last = Hashtbl.fold (fun pn _ acc -> max pn acc) pages (-1) in
  let rec run k = if Hashtbl.mem pages (k + 1) then run (k + 1) else k in
  (* Link hints are judged only between consecutive single-claim pages:
     with a twin in play the chain itself is what is in question. *)
  let single pn = match Hashtbl.find_opt pages pn with Some [ c ] -> Some c | _ -> None in
  let defects = ref [] in
  for pn = last downto 0 do
    if not (Hashtbl.mem pages pn) then defects := Missing pn :: !defects
    else
      match (single pn, single (pn + 1)) with
      | Some (i, l), Some (next, _)
        when Disk_address.is_nil l.Label.next
             || Disk_address.to_index l.Label.next <> next ->
          defects := Stale_next (pn, i) :: !defects
      | _ -> ()
  done;
  { headless = not (Hashtbl.mem pages 0); prefix = run 0; last; defects = !defects }
