module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_runs = Obs.counter "scavenger.runs"
let m_failed_runs = Obs.counter "scavenger.failed_runs"
let m_sectors_scanned = Obs.counter "scavenger.sectors_scanned"
let m_files_found = Obs.counter "scavenger.files_found"
let m_orphans_adopted = Obs.counter "scavenger.orphans_adopted"
let m_links_repaired = Obs.counter "scavenger.links_repaired"
let m_labels_reclaimed = Obs.counter "scavenger.labels_reclaimed"
let m_pages_lost = Obs.counter "scavenger.pages_lost"
let m_pages_quarantined = Obs.counter "scavenger.pages_quarantined"
let m_relocated_pages = Obs.counter "scavenger.relocated_pages"
let m_entries_fixed = Obs.counter "scavenger.entries_fixed"
let m_entries_removed = Obs.counter "scavenger.entries_removed"
let m_roots_rebuilt = Obs.counter "scavenger.roots_rebuilt"
let m_marginal_relocated = Obs.counter "scavenger.marginal_relocated"
let m_duplicates_rescued = Obs.counter "scavenger.duplicates_rescued"
let m_leaders_rebuilt = Obs.counter "scavenger.leaders_rebuilt"

(* The span histogram "scavenger.duration_us" is owned by the
   [Obs.time] wrapper in {!scavenge}. *)

type report = {
  sectors_scanned : int;
  files_found : int;
  nameless_files : int;
  directories_found : int;
  orphans_adopted : int;
  links_repaired : int;
  labels_reclaimed : int;
  bad_sectors : int;
  entries_fixed : int;
  entries_removed : int;
  incomplete_files : int;
  pages_lost : int;
  duplicate_pages : int;
  relocated_pages : int;
  marginal_relocated : int;
  pages_marked_bad : int;
  duplicates_rescued : int;
  leaders_rebuilt : int;
  root_rebuilt : bool;
  duration_us : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>scanned %d sectors in %a@,\
     files %d (dirs %d), orphans adopted %d@,\
     links repaired %d, labels reclaimed %d, bad sectors %d@,\
     entries fixed %d, removed %d; incomplete files %d, pages lost %d@,\
     duplicates %d, relocated %d%s%s%s%s%s@]"
    r.sectors_scanned Sim_clock.pp_duration r.duration_us r.files_found
    r.directories_found r.orphans_adopted r.links_repaired r.labels_reclaimed
    r.bad_sectors r.entries_fixed r.entries_removed r.incomplete_files
    r.pages_lost r.duplicate_pages r.relocated_pages
    (if r.marginal_relocated > 0 then
       Printf.sprintf ", %d marginal pages rescued" r.marginal_relocated
     else "")
    (if r.pages_marked_bad > 0 then
       Printf.sprintf ", %d pages marked bad" r.pages_marked_bad
     else "")
    (if r.duplicates_rescued > 0 then
       Printf.sprintf ", %d pages rescued from twins" r.duplicates_rescued
     else "")
    (if r.leaders_rebuilt > 0 then
       Printf.sprintf ", %d leaders rebuilt" r.leaders_rebuilt
     else "")
    (if r.root_rebuilt then ", root rebuilt" else "")


type state = {
  drive : Drive.t;
  mutable duplicates_rescued : int;
  mutable leaders_rebuilt : int;
  mutable pages_lost : int;
  mutable incomplete_files : int;
  mutable links_repaired : int;
  mutable labels_reclaimed : int;
  mutable relocated_pages : int;
  mutable marginal_relocated : int;
  mutable entries_fixed : int;
  mutable entries_removed : int;
  mutable orphans_adopted : int;
}

(* Rewrite a page's label with corrected links (reads the value first —
   the write-continuation rule means a label write must carry the value
   along — then writes both back). The read runs under the salvage
   policy: the page being re-chained may sit on a marginal sector, and a
   failed repair here strands the rest of the file behind a dangling
   link. *)
let repair_label st ~fid ~pn ~addr_index ~length ~next ~prev =
  let addr = Disk_address.of_index addr_index in
  let value = Array.make Sector.value_words Word.zero in
  match
    Reliable.run ~policy:Reliable.salvage_policy st.drive addr
      { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read }
      ~label:(Label.check_name fid ~page:pn) ~value ()
  with
  | Error _ -> false
  | Ok () -> (
      let new_label = Label.make ~fid ~page:pn ~length ~next ~prev in
      match
        Reliable.run st.drive addr
          { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
          ~label:(Label.to_words new_label) ~value ()
      with
      | Ok () ->
          st.links_repaired <- st.links_repaired + 1;
          true
      | Error _ -> false)

(* A lost leader costs a file its name and dates, never its data. *)
let scavenged_name (fid : File_id.t) =
  Printf.sprintf "Scavenged.%d!%d" fid.File_id.serial fid.File_id.version

let synthetic_leader fid ~last_page ~last =
  Leader.make ~name:(scavenged_name fid) ~last_page
    ~last_addr:(Disk_address.of_index last) ~maybe_consecutive:false ()

let scavenge_run ~verify_values ~suspect_retries drive =
  let clock = Drive.clock drive in
  let started = Sim_clock.now_us clock in
  (* Each pass that touches the disk runs under a named span, so the
     profile splits the minute the paper quotes into its real parts. *)
  let pass name f = Prof.span clock ("scavenger." ^ name) f in
  let sweep = pass "sweep" (fun () -> Sweep.run drive) in
  let n = Array.length sweep.Sweep.classes in
  let st =
    {
      drive;
      duplicates_rescued = 0;
      leaders_rebuilt = 0;
      pages_lost = 0;
      incomplete_files = 0;
      links_repaired = 0;
      labels_reclaimed = 0;
      relocated_pages = 0;
      marginal_relocated = 0;
      entries_fixed = 0;
      entries_removed = 0;
      orphans_adopted = 0;
    }
  in

  (* 1. The sweep has grouped the live pages by absolute name (the
     descriptor apart: it is rebuilt from scratch). A crash mid-move
     leaves two sectors claiming one page; the lowest wins, and if it
     turns out torn its twin may still hold the data. *)
  let files = sweep.Sweep.files in
  let duplicate_pages =
    let twins _ claims n = n + List.length claims - 1 in
    Hashtbl.fold (fun _ pages n -> Hashtbl.fold twins pages n) files 0
  in

  (* 1b. Optional value verification: read every live page's data under
     the salvage retry policy. A sector whose label works but whose data
     surface is gone gets the bad marker written into its label — §3.5's
     "marked in the label with a special value so that they will never
     be used again" — and its page drops out of its file. A sector that
     reads back only after [suspect_retries] or more retries is
     *marginal*: still readable today, unlikely to be tomorrow. Its page
     survives, but the sector joins the suspect list and its data is
     copied off to a fresh sector in step 4. *)
  let quarantined : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let suspects : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let mark_bad i =
    Page.retire st.drive (Disk_address.of_index i);
    Hashtbl.replace quarantined i ()
  in
  (* Lay a page image on [dst], a sector the sweep found free. Value
     verification never read it, so the copy is read back too, and a
     dead surface is retired in favour of the next sector [next]. *)
  let rec write_fresh ~next dst ~label ~value =
    let addr = Disk_address.of_index dst in
    match
      Reliable.run st.drive addr
        { Drive.op_none with Drive.label = Some Drive.Write; value = Some Drive.Write }
        ~label ~value ()
    with
    | Error _ -> None
    | Ok () when verify_values && not (Page.value_reads st.drive addr) ->
        mark_bad dst;
        Option.bind (next ()) (fun dst -> write_fresh ~next dst ~label ~value)
    | Ok () -> Some dst
  in
  if verify_values then
    pass "verify" (fun () ->
    (* One elevator batch over every live page. The probe buffer is
       shared: the pass only cares whether each read succeeded and how
       hard the retry ladder worked, never what the data was. *)
    let probe = Array.make Alto_disk.Sector.value_words Word.zero in
    let live =
      Hashtbl.fold
        (fun fid (pages : Sweep.file) acc ->
          Hashtbl.fold
            (fun pn claims acc -> (fst (List.hd claims), pn, fid, pages) :: acc)
            pages acc)
        files []
    in
    let live = Array.of_list live in
    Array.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) live;
    let requests =
      Array.map
        (fun (i, _, _, _) ->
          Sched.request ~value:probe (Disk_address.of_index i)
            { Drive.op_none with Drive.value = Some Drive.Read })
        live
    in
    let outcomes =
      Sched.run_batch ~policy:Reliable.salvage_policy st.drive requests
    in
    Array.iteri
      (fun j outcome ->
        let i, pn, fid, pages = live.(j) in
        match outcome.Sched.result with
        | Ok () ->
            if outcome.Sched.retries >= suspect_retries then
              Hashtbl.replace suspects i ()
        | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
            mark_bad i;
            (* Before declaring the page lost, try its twins: a crash
               between a move's copy and its retire leaves a readable
               duplicate, and the torn copy must not take the data down
               with it. *)
            let rec rescue = function
              | [] ->
                  Hashtbl.remove pages pn;
                  st.pages_lost <- st.pages_lost + 1
              | (si, slabel) :: rest -> (
                  match
                    Reliable.run ~policy:Reliable.salvage_policy st.drive
                      (Disk_address.of_index si)
                      { Drive.op_none with
                        Drive.label = Some Drive.Check;
                        value = Some Drive.Read
                      }
                      ~label:(Label.check_name fid ~page:pn)
                      ~value:probe ()
                  with
                  | Ok () ->
                      Hashtbl.replace pages pn [ (si, slabel) ];
                      st.duplicates_rescued <- st.duplicates_rescued + 1
                  | Error _ -> rescue rest)
            in
            (* Highest-numbered twin first. *)
            rescue (List.rev (List.tl (Hashtbl.find pages pn))))
      outcomes);

  (* 2. Per-file contiguity: keep the longest prefix 0..k; everything
     beyond a gap is lost. A headless file — its leader sector torn by a
     crash or decayed — still has every data page on the platter, each
     label naming its (file, page): §3.2 keeps "all the properties of
     the file other than its length and its data" in the leader, so a
     fresh leader on a free sector is the only thing reconstruction
     needs to write. The file keeps its directory name if catalogued
     (entries bind the file id, not the leader sector) and gets a
     Scavenged name otherwise. *)
  let spare_free = ref (n - 1) in
  let take_free_sector () =
    while
      !spare_free >= 0
      &&
      match sweep.Sweep.classes.(!spare_free) with
      | Sweep.Free_sector -> false
      | Sweep.Live _ | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> true
    do
      decr spare_free
    done;
    if !spare_free < 0 then None
    else begin
      let i = !spare_free in
      decr spare_free;
      Some i
    end
  in
  let rebuild_leader fid (pages : Sweep.file) ~last =
    last >= 1
    &&
    let sector pn = fst (List.hd (Hashtbl.find pages pn)) in
    let leader = synthetic_leader fid ~last_page:last ~last:(sector last) in
    let label =
      Label.make ~fid ~page:0 ~length:Sector.bytes_per_page
        ~next:(Disk_address.of_index (sector 1)) ~prev:Disk_address.nil
    in
    match
      Option.bind (take_free_sector ()) (fun dst ->
          write_fresh ~next:take_free_sector dst ~label:(Label.to_words label)
            ~value:(Leader.to_value leader))
    with
    | None -> false
    | Some dst ->
        Hashtbl.replace pages 0 [ (dst, label) ];
        st.leaders_rebuilt <- st.leaders_rebuilt + 1;
        true
  in
  let final : (File_id.t, (int * Label.t) array) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun fid (pages : Sweep.file) ->
      let { Sweep.headless; prefix = k; _ } = Sweep.chain pages in
      if Hashtbl.length pages = 0 then ()
      else if headless && not (rebuild_leader fid pages ~last:k) then begin
        st.incomplete_files <- st.incomplete_files + 1;
        st.pages_lost <- st.pages_lost + Hashtbl.length pages
      end
      else begin
        (* A rebuilt leader fronts pages 1..k, so the prefix holds. *)
        let beyond = Hashtbl.length pages - (k + 1) in
        if beyond > 0 then begin
          st.incomplete_files <- st.incomplete_files + 1;
          st.pages_lost <- st.pages_lost + beyond
        end;
        Hashtbl.replace final fid
          (Array.init (k + 1) (fun pn -> List.hd (Hashtbl.find pages pn)))
      end)
    files;

  (* 3. Occupancy: the reserved range, bad sectors, and every kept page. *)
  let fs = Fs.create_unmounted drive in
  let reserved_top = 1 + Fs.descriptor_page_count fs in
  let reserved i = i >= 1 && i <= reserved_top in
  let busy = Array.make n false in
  busy.(0) <- true;
  for i = 1 to reserved_top do
    busy.(i) <- true
  done;
  let bad_sectors = ref 0 in
  for i = 0 to n - 1 do
    match sweep.Sweep.classes.(i) with
    | Sweep.Marked_bad | Sweep.Bad_media ->
        busy.(i) <- true;
        incr bad_sectors
    | Sweep.Live _ | Sweep.Free_sector | Sweep.Garbage _ ->
        if Hashtbl.mem quarantined i then busy.(i) <- true
  done;
  Hashtbl.iter
    (fun _ pages ->
      Array.iter (fun (i, _) -> if not (reserved i) then busy.(i) <- true) pages)
    final;

  (* 4. Evacuate live pages from the reserved range (page 0, the boot
     page, stays where it is) — and off suspect sectors, while their
     data can still be read. An evacuated suspect gets the bad marker in
     its old label and joins the quarantine list; if no room or the copy
     fails, the page stays put and keeps limping. *)
  let next_target = ref 0 in
  let pick_target () =
    while
      !next_target < n
      && (busy.(!next_target)
         ||
         match sweep.Sweep.classes.(!next_target) with
         | Sweep.Marked_bad | Sweep.Bad_media -> true
         | Sweep.Live _ | Sweep.Free_sector | Sweep.Garbage _ -> false)
    do
      incr next_target
    done;
    if !next_target >= n then None
    else begin
      busy.(!next_target) <- true;
      Some !next_target
    end
  in
  (* Copy one page's sector to a fresh location. The read runs under the
     salvage policy: this is the last copy of somebody's data, so the
     scavenger tries much harder than the ordinary ladder before giving
     the page up. *)
  let move_page ~src (label : Label.t) =
    Option.bind (pick_target ()) (fun dst ->
        let value = Array.make Sector.value_words Word.zero in
        match
          Reliable.run ~policy:Reliable.salvage_policy st.drive
            (Disk_address.of_index src)
            { Drive.op_none with value = Some Drive.Read }
            ~value ()
        with
        | Error _ -> None
        | Ok () ->
            let label = Label.to_words label in
            let moved = write_fresh ~next:pick_target dst ~label ~value in
            if moved <> None then st.relocated_pages <- st.relocated_pages + 1;
            moved)
  in
  let evacuated = ref [] in
  pass "evacuate" (fun () ->
  Hashtbl.iter
    (fun _ pages ->
      Array.iteri
        (fun pn (i, label) ->
          let suspect = Hashtbl.mem suspects i in
          if reserved i || suspect then
            match move_page ~src:i label with
            | Some dst ->
                pages.(pn) <- (dst, label);
                if suspect then begin
                  st.marginal_relocated <- st.marginal_relocated + 1;
                  (* Retire the old copy: bad marker in the label so the
                     sector reads as quarantined ever after, never as a
                     duplicate of the page that just moved. *)
                  mark_bad i
                end
                else evacuated := i :: !evacuated
            | None ->
                (* A suspect that could not be rescued stays on its
                   marginal sector and keeps its data for now; any
                   other page with no room or a failed move is lost. *)
                if not suspect then st.pages_lost <- st.pages_lost + 1)
        pages)
    final);

  (* 5. Free every non-busy sector that is not already free — one
     elevator batch of label+value writes. Writes never mutate their
     buffers, so every request shares the two free patterns. *)
  let free_label = Label.free_words () and free_value = Label.free_value () in
  let to_free = ref [] in
  for i = n - 1 downto 0 do
    if not busy.(i) then
      match sweep.Sweep.classes.(i) with
      | Sweep.Free_sector -> ()
      | Sweep.Garbage _ | Sweep.Live _ -> to_free := i :: !to_free
      | Sweep.Marked_bad | Sweep.Bad_media -> assert false
  done;
  (* Reserved sectors stay busy, but a label there naming no page kept
     there is stale: an evacuated page's old copy would otherwise answer
     the label checks of the passes below. *)
  to_free := List.rev_append !evacuated !to_free;
  let kept_at_0 (l : Label.t) =
    match Hashtbl.find_opt final l.Label.fid with
    | Some pages -> l.Label.page < Array.length pages && fst pages.(l.Label.page) = 0
    | None -> false
  in
  (match sweep.Sweep.classes.(0) with
  | Sweep.Live l when not (kept_at_0 l) -> to_free := 0 :: !to_free
  | _ -> ());
  let to_free = Array.of_list !to_free in
  let free_outcomes =
    pass "free" (fun () ->
        Sched.run_batch st.drive
          (Array.map
             (fun i ->
               Sched.request ~label:free_label ~value:free_value
                 (Disk_address.of_index i)
                 { Drive.op_none with
                   Drive.label = Some Drive.Write;
                   value = Some Drive.Write
                 })
             to_free))
  in
  Array.iteri
    (fun j outcome ->
      let i = to_free.(j) in
      match outcome.Sched.result with
      | Ok () -> (
          match sweep.Sweep.classes.(i) with
          | Sweep.Garbage _ ->
              st.labels_reclaimed <- st.labels_reclaimed + 1
          | Sweep.Live _ | Sweep.Free_sector | Sweep.Marked_bad
          | Sweep.Bad_media ->
              ())
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          busy.(i) <- true;
          incr bad_sectors)
    free_outcomes;

  (* 6. Install the rebuilt allocation map, and record every sector
     known bad — marked in the label, unreadable media, or quarantined
     during this run — in the volume's persistent bad-sector table so
     the verdict survives remounts. *)
  for i = 0 to n - 1 do
    let addr = Disk_address.of_index i in
    if busy.(i) then Fs.mark_busy fs addr else Fs.mark_free fs addr;
    let known_bad =
      match sweep.Sweep.classes.(i) with
      | Sweep.Marked_bad | Sweep.Bad_media -> true
      | Sweep.Live _ | Sweep.Free_sector | Sweep.Garbage _ ->
          Hashtbl.mem quarantined i
    in
    if known_bad then Fs.quarantine fs addr
  done;

  (* 7. Repair links (and force the last page's next link to NIL). *)
  pass "links" (fun () ->
  Hashtbl.iter
    (fun fid pages ->
      let last = Array.length pages - 1 in
      let addr_of pn =
        if pn < 0 || pn > last then Disk_address.nil
        else Disk_address.of_index (fst pages.(pn))
      in
      Array.iteri
        (fun pn (i, label) ->
          let next = addr_of (pn + 1) and prev = addr_of (pn - 1) in
          if
            (not (Disk_address.equal label.Label.next next))
            || not (Disk_address.equal label.Label.prev prev)
          then begin
            if
              repair_label st ~fid ~pn ~addr_index:i ~length:label.Label.length
                ~next ~prev
            then
              pages.(pn) <-
                (i, Label.make ~fid ~page:pn ~length:label.Label.length ~next ~prev)
          end)
        pages)
    final);

  (* 8. Read every leader page: the leader name is the file's survival
     kit, so the scavenger verifies each one is legible. This pass is a
     large share of the minute the paper quotes — one scattered read per
     file — so the whole set goes through the elevator as one batch. *)
  let nameless_files = ref 0 in
  let leaders =
    Array.of_list
      (Hashtbl.fold (fun fid pages acc -> (fid, fst pages.(0)) :: acc) final [])
  in
  let leader_values =
    Array.init (Array.length leaders) (fun _ ->
        Array.make Sector.value_words Word.zero)
  in
  let leader_outcomes =
    pass "leaders" (fun () ->
        Sched.run_batch drive
          (Array.mapi
             (fun j (fid, i) ->
               Sched.request
                 ~label:(Label.check_name fid ~page:0)
                 ~value:leader_values.(j)
                 (Disk_address.of_index i)
                 { Drive.op_none with
                   Drive.label = Some Drive.Check;
                   value = Some Drive.Read
                 })
             leaders))
  in
  Array.iteri
    (fun j outcome ->
      match outcome.Sched.result with
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          incr nameless_files
      | Ok () -> (
          let fid, i = leaders.(j) in
          match Leader.of_value leader_values.(j) with
          | Ok _ -> ()
          | Error _ ->
              incr nameless_files;
              (* A legible label over an illegible leader would never
                 open again: a fresh leader goes in place, as a headless
                 file's goes on a free sector. (Page 0 of a reserved,
                 non-directory serial — the boot record — is no leader.) *)
              let pages = Hashtbl.find final fid in
              let last_page = Array.length pages - 1 in
              let leader =
                Leader.to_value
                  (synthetic_leader fid ~last_page ~last:(fst pages.(last_page)))
              in
              let fn = Page.full_name fid ~page:0 ~addr:(Disk_address.of_index i) in
              let system = fid.File_id.serial < File_id.first_user_serial in
              if (File_id.is_directory fid || not system)
                 && Result.is_ok (Page.write drive fn leader)
              then
                st.leaders_rebuilt <- st.leaders_rebuilt + 1))
    leader_outcomes;

  (* 9. Serial counter: beyond every serial seen. *)
  let max_serial =
    Hashtbl.fold (fun fid _ m -> max m fid.File_id.serial) final 0
  in
  Fs.set_next_serial fs (max (max_serial + 1) File_id.first_user_serial);

  (* 9. Directories: verify entries, fix addresses, drop dangling ones.
     Every page the catalogue is rebuilt on is verified as allocated. *)
  Fs.set_verify_first_writes fs verify_values;
  let leader_name_of fid = Page.full_name fid ~page:0 ~addr:(Disk_address.of_index (fst (Hashtbl.find final fid).(0))) in
  let referenced : (File_id.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let open_directories =
    pass "directories" (fun () ->
        Hashtbl.fold
          (fun fid _ acc ->
            if File_id.is_directory fid then
              match File.open_leader fs (leader_name_of fid) with
              | Ok file -> (fid, file) :: acc
              | Error _ -> acc
            else acc)
          final [])
  in
  pass "directories" (fun () ->
  List.iter
    (fun (_fid, dir_file) ->
      let entries, damaged = Directory.salvage dir_file in
      let changed = ref damaged in
      let kept =
        List.filter_map
          (fun (e : Directory.entry) ->
            let efid = e.Directory.entry_file.Page.abs.Page.fid in
            match Hashtbl.find_opt final efid with
            | None ->
                st.entries_removed <- st.entries_removed + 1;
                changed := true;
                None
            | Some pages ->
                Hashtbl.replace referenced efid ();
                let real = Disk_address.of_index (fst pages.(0)) in
                if Disk_address.equal e.Directory.entry_file.Page.addr real then Some e
                else begin
                  st.entries_fixed <- st.entries_fixed + 1;
                  changed := true;
                  Some
                    {
                      e with
                      Directory.entry_file =
                        Page.full_name efid ~page:0 ~addr:real;
                    }
                end)
          entries
      in
      if !changed then
        match Directory.rewrite dir_file kept with
        | Ok () -> ()
        | Error _ -> ())
    open_directories);

  (* 10. Choose or rebuild the root directory. *)
  let find_root () =
    match
      List.find_opt
        (fun (fid, _) -> File_id.equal fid File_id.root_directory)
        open_directories
    with
    | Some (_, file) -> Some file
    | None ->
        List.find_opt
          (fun (_, file) -> String.equal (File.leader file).Leader.name "SysDir.")
          open_directories
        |> Option.map snd
  in
  let root_rebuilt = ref false in
  let root_result =
    pass "root" (fun () ->
        match find_root () with
        | Some file -> Ok file
        | None ->
            root_rebuilt := true;
            let fid =
              if Hashtbl.mem final File_id.root_directory then
                Fs.fresh_fid ~directory:true fs
              else File_id.root_directory
            in
            File.create_with_id fs fid ~name:"SysDir.")
  in
  match root_result with
  | Error e -> Error (Format.asprintf "cannot rebuild a root directory: %a" File.pp_error e)
  | Ok root -> (
      Fs.set_root_dir fs (File.leader_name root);
      Hashtbl.replace referenced (File.fid root) ();

      (* 11. Adopt orphans under their leader names. *)
      let unique_name base =
        let rec go candidate k =
          match Directory.lookup root candidate with
          | Ok None -> candidate
          | Ok (Some _) -> go (Printf.sprintf "%s~%d" base k) (k + 1)
          | Error _ -> candidate
        in
        go base 1
      in
      pass "orphans" (fun () ->
      Hashtbl.iter
        (fun fid pages ->
          if not (Hashtbl.mem referenced fid) then begin
            let addr = Disk_address.of_index (fst pages.(0)) in
            let fn = Page.full_name fid ~page:0 ~addr in
            let base =
              match Page.read drive fn with
              | Ok (_, value) -> (
                  match Leader.of_value value with
                  | Ok leader when String.length leader.Leader.name > 0 ->
                      leader.Leader.name
                  | Ok _ | Error _ -> scavenged_name fid)
              | Error _ -> scavenged_name fid
            in
            match Directory.add root ~name:(unique_name base) fn with
            | Ok () -> st.orphans_adopted <- st.orphans_adopted + 1
            | Error _ -> ()
          end)
        final);

      (* 12. A fresh descriptor at the standard address. *)
      Fs.set_verify_first_writes fs false;
      match pass "rebuild" (fun () -> Fs.rebuild_descriptor fs) with
      | Error e -> Error (Format.asprintf "cannot write a fresh descriptor: %a" Fs.pp_error e)
      | Ok () ->
          (* The rebuilt volume is a consistency point: persist any
             quarantine verdicts that overflowed the descriptor table,
             seal a flight record, and clear the unsafe-shutdown flag.
             Best effort — failure costs only a redundant recovery scan
             at the next boot. *)
          pass "rebuild" (fun () ->
              if Fs.spilled_table fs <> [] then
                (match Bad_sectors.flush fs with Ok _ | Error _ -> ());
              Flight.flush ~reason:"scavenge" fs;
              if Fs.dirty fs then
                match Fs.mark_clean fs with Ok () | Error _ -> ());
          (* 13. With values verified, read the descriptor back too: the
             verify pass never reads it, and a descriptor that took its
             writes but will not read leaves a pack that does not mount. *)
          let unreadable =
            if not verify_values then None
            else
              pass "verify" (fun () ->
                  let slice = Audit.read_slice fs ~start:1 ~k:reserved_top in
                  List.find_opt
                    (fun j -> not (Audit.sector_ok slice j))
                    (List.init reserved_top Fun.id))
          in
          let report =
            {
              sectors_scanned = n;
              files_found = Hashtbl.length final;
              nameless_files = !nameless_files;
              directories_found = List.length open_directories;
              orphans_adopted = st.orphans_adopted;
              links_repaired = st.links_repaired;
              labels_reclaimed = st.labels_reclaimed;
              bad_sectors = !bad_sectors;
              entries_fixed = st.entries_fixed;
              entries_removed = st.entries_removed;
              incomplete_files = st.incomplete_files;
              pages_lost = st.pages_lost;
              duplicate_pages;
              relocated_pages = st.relocated_pages;
              marginal_relocated = st.marginal_relocated;
              pages_marked_bad = Hashtbl.length quarantined;
              duplicates_rescued = st.duplicates_rescued;
              leaders_rebuilt = st.leaders_rebuilt;
              root_rebuilt = !root_rebuilt;
              duration_us = Sim_clock.now_us clock - started;
            }
          in
          match unreadable with
          | Some j ->
              Error
                (Printf.sprintf "the rebuilt descriptor does not read back at DA %d" (1 + j))
          | None -> Ok (fs, report))

(* Publish one run's report into the registry: the scavenger's findings
   become structured metrics, not just the ad-hoc record. *)
let record_report r =
  Obs.add m_sectors_scanned r.sectors_scanned;
  Obs.add m_files_found r.files_found;
  Obs.add m_orphans_adopted r.orphans_adopted;
  Obs.add m_links_repaired r.links_repaired;
  Obs.add m_labels_reclaimed r.labels_reclaimed;
  Obs.add m_pages_lost r.pages_lost;
  Obs.add m_pages_quarantined r.pages_marked_bad;
  Obs.add m_relocated_pages r.relocated_pages;
  Obs.add m_marginal_relocated r.marginal_relocated;
  Obs.add m_duplicates_rescued r.duplicates_rescued;
  Obs.add m_leaders_rebuilt r.leaders_rebuilt;
  Obs.add m_entries_fixed r.entries_fixed;
  Obs.add m_entries_removed r.entries_removed;
  if r.root_rebuilt then Obs.incr m_roots_rebuilt

let scavenge ?(verify_values = false) ?(suspect_retries = 2) drive =
  if suspect_retries < 1 then invalid_arg "Scavenger: suspect_retries below 1";
  let clock = Drive.clock drive in
  Obs.incr m_runs;
  let result =
    Obs.time clock "scavenger.duration_us" (fun () ->
        scavenge_run ~verify_values ~suspect_retries drive)
  in
  (match result with
  | Ok (_, report) ->
      record_report report;
      Obs.event ~clock
        ~fields:
          [
            ("sectors", Obs.I report.sectors_scanned);
            ("files", Obs.I report.files_found);
            ("pages_lost", Obs.I report.pages_lost);
            ("duration_us", Obs.I report.duration_us);
          ]
        "scavenger.report"
  | Error _ -> Obs.incr m_failed_runs);
  result
