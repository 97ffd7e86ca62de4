module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs

type rung = Direct | Leader_chain | Directory_fid | Directory_name | Scavenge

let rung_key = function
  | Direct -> "direct"
  | Leader_chain -> "leader_chain"
  | Directory_fid -> "directory_fid"
  | Directory_name -> "directory_name"
  | Scavenge -> "scavenge"

(* One hit and one miss counter per rung of the recovery ladder
   ("fs.hints.direct.hits", …): the ratio of the top rung's hits to
   everything below it is the measure of hint freshness. *)
let rung_hits, rung_misses =
  let table make =
    List.map
      (fun r -> (r, make (Printf.sprintf "fs.hints.%s" (rung_key r))))
      [ Direct; Leader_chain; Directory_fid; Directory_name; Scavenge ]
  in
  ( table (fun base -> Obs.counter (base ^ ".hits")),
    table (fun base -> Obs.counter (base ^ ".misses")) )

let count_attempt rung ~succeeded =
  Obs.incr (List.assoc rung (if succeeded then rung_hits else rung_misses))

let m_resolutions = Obs.counter "fs.hints.resolutions"
let m_failures = Obs.counter "fs.hints.failures"
let h_resolution_us = Obs.histogram "fs.hints.resolution_us"

let pp_rung fmt rung =
  Format.pp_print_string fmt
    (match rung with
    | Direct -> "direct hint"
    | Leader_chain -> "links from leader"
    | Directory_fid -> "directory lookup by FV"
    | Directory_name -> "directory lookup by name"
    | Scavenge -> "scavenge and retry")

type attempt = { rung : rung; elapsed_us : int; succeeded : bool }

type request = {
  req_name : string;
  req_fid : File_id.t option;
  req_page : int;
  req_page_hint : Disk_address.t option;
  req_leader_hint : Disk_address.t option;
}

type success = {
  fs : Fs.t;
  value : Word.t array;
  label : Label.t;
  resolved : Page.full_name;
  attempts : attempt list;
}

type failure = { reason : string; failed_attempts : attempt list }

(* Read the wanted page through an open file handle. *)
let read_via_file fs file page =
  match File.page_name file page with
  | Error _ -> None
  | Ok fn -> (
      match Page.read (Fs.drive fs) fn with
      | Ok (label, value) -> Some (label, value, fn)
      | Error (Page.Hint_failed _ | Page.Bad_label _) -> None)

let read_page fs ~directory req =
  (* The rungs read the platter (the scavenger's raw pack above all), so
     the volume is settled first: acknowledged delayed writes still in
     the track buffers are pushed out, or a lookup could return page
     contents older than what the caller already wrote. *)
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  let attempts = ref [] in
  let clock = Fs.clock fs in
  let t_start = Sim_clock.now_us clock in
  let timed rung f =
    let t0 = Sim_clock.now_us clock in
    let result = f () in
    let succeeded = result <> None in
    attempts :=
      { rung; elapsed_us = Sim_clock.now_us clock - t0; succeeded } :: !attempts;
    count_attempt rung ~succeeded;
    result
  in
  let finish fs (label, value, fn) =
    Obs.incr m_resolutions;
    Obs.observe h_resolution_us (Sim_clock.now_us clock - t_start);
    Ok { fs; value; label; resolved = fn; attempts = List.rev !attempts }
  in

  (* Rung 1: the page hint, checked by one disk operation. *)
  let direct () =
    match (req.req_fid, req.req_page_hint) with
    | Some fid, Some addr -> (
        let fn = Page.full_name fid ~page:req.req_page ~addr in
        match Page.read (Fs.drive fs) fn with
        | Ok (label, value) -> Some (label, value, fn)
        | Error (Page.Hint_failed _ | Page.Bad_label _) -> None)
    | _, (Some _ | None) -> None
  in

  (* Rung 2: chase links from the leader hint. *)
  let leader_chain () =
    match (req.req_fid, req.req_leader_hint) with
    | Some fid, Some addr -> (
        match File.open_leader fs (Page.full_name fid ~page:0 ~addr) with
        | Ok file -> read_via_file fs file req.req_page
        | Error _ -> None)
    | _, (Some _ | None) -> None
  in

  (* Rung 3: find the FV in a directory. *)
  let by_fid fs directory () =
    match req.req_fid with
    | None -> None
    | Some fid -> (
        match Directory.entries directory with
        | Error _ -> None
        | Ok entries -> (
            match
              List.find_opt
                (fun (e : Directory.entry) ->
                  File_id.equal e.Directory.entry_file.Page.abs.Page.fid fid)
                entries
            with
            | None -> None
            | Some e -> (
                match File.open_leader fs e.Directory.entry_file with
                | Ok file -> read_via_file fs file req.req_page
                | Error _ -> None)))
  in

  (* Rung 4: look the string name up — possibly a recreated file with a
     new FV. *)
  let by_name fs directory () =
    match Directory.lookup directory req.req_name with
    | Error _ | Ok None -> None
    | Ok (Some e) -> (
        match File.open_leader fs e.Directory.entry_file with
        | Ok file -> read_via_file fs file req.req_page
        | Error _ -> None)
  in

  match timed Direct direct with
  | Some hit -> finish fs hit
  | None -> (
      match timed Leader_chain leader_chain with
      | Some hit -> finish fs hit
      | None -> (
          match timed Directory_fid (by_fid fs directory) with
          | Some hit -> finish fs hit
          | None -> (
              match timed Directory_name (by_name fs directory) with
              | Some hit -> finish fs hit
              | None -> (
                  (* Rung 5: scavenge, then retry the directory rungs on
                     the rebuilt volume. *)
                  let t0 = Sim_clock.now_us clock in
                  match Scavenger.scavenge (Fs.drive fs) with
                  | Error reason ->
                      attempts :=
                        {
                          rung = Scavenge;
                          elapsed_us = Sim_clock.now_us clock - t0;
                          succeeded = false;
                        }
                        :: !attempts;
                      count_attempt Scavenge ~succeeded:false;
                      Obs.incr m_failures;
                      Error { reason; failed_attempts = List.rev !attempts }
                  | Ok (fs', _report) -> (
                      let directory' =
                        let reopen () =
                          match Directory.open_root fs' with
                          | Error _ -> None
                          | Ok root ->
                              if
                                File_id.equal (File.fid root) (File.fid directory)
                              then Some root
                              else
                                let dir_name = (File.leader directory).Leader.name in
                                (match Directory.lookup root dir_name with
                                | Ok (Some e) -> (
                                    match File.open_leader fs' e.Directory.entry_file with
                                    | Ok d -> Some d
                                    | Error _ -> Some root)
                                | Ok None | Error _ -> Some root)
                        in
                        reopen ()
                      in
                      let retry =
                        match directory' with
                        | None -> None
                        | Some dir -> (
                            match by_fid fs' dir () with
                            | Some hit -> Some hit
                            | None -> by_name fs' dir ())
                      in
                      attempts :=
                        {
                          rung = Scavenge;
                          elapsed_us = Sim_clock.now_us clock - t0;
                          succeeded = retry <> None;
                        }
                        :: !attempts;
                      count_attempt Scavenge ~succeeded:(retry <> None);
                      match retry with
                      | Some hit -> finish fs' hit
                      | None ->
                          Obs.incr m_failures;
                          Error
                            {
                              reason =
                                Printf.sprintf
                                  "file %S page %d not found even after scavenging"
                                  req.req_name req.req_page;
                              failed_attempts = List.rev !attempts;
                            })))))
