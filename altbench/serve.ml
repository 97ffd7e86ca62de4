(* [serve] — the file server under an open loop, in simulated time.

   Requests arrive as a seeded Poisson stream at a fixed ladder of
   offered rates, each carried by whichever of many client stations is
   free (stations are in-process objects on the simulated net, not host
   connections). GET, PUT and LIST come in a 6:3:1 mix; GETs and PUTs
   pick their file by Zipf popularity over a corpus that fits in the
   track cache. The server admits up to 16 conversations and NAKs the
   rest, which are resent. Latency is timed from when a request was due,
   so a stalled generator shows as latency, and how late the generator
   ran is reported on its own.

   Oracles: every GET body is byte-compared with the reference corpus,
   every listing must name exactly the catalogued files, and after the
   ladder every PUT target holds one of the bodies acknowledged for it. *)

open Bench_types
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Client = File_server.Client

type params = {
  files : int;
  file_pages : int * int;
  drops : int;  (** PUT targets, kept apart from the GET corpus. *)
  put_bytes : int * int;
  stations : int;
  zipf_s : float;
  ladder : (float * int) list;  (** Offered rate (req/s) and requests at that rate. *)
  reference_rate : float;  (** The rate below the knee whose latency is reported. *)
  slo_p99_us : int;
  backoff_us : int;  (** How long a NAKed client waits before resending. *)
}

(* The ladder brackets the saturation point (E18 saturates near 10.7
   req/s; this mix, with its synchronous PUTs, near 7). The reference
   rate sits well below the knee and gets 20000 requests: a p99 with
   two hundred samples beyond it, steady to a few per cent from seed to
   seed. The p99 limit was fixed from a
   calibration run of this ladder over seeds 11-13 and 7919: every
   rate up to 6 req/s kept its p99 at or under 4.5 s, and from 8 req/s
   the p99 was 7.8 s or more with the backlog growing, so a 5 s limit
   sits in that gap. *)
let params = function
  | Full ->
      {
        files = 24;
        file_pages = (1, 6);
        drops = 6;
        put_bytes = (100, 1500);
        stations = 48;
        zipf_s = 1.0;
        ladder = [ (2.0, 300); (3.0, 300); (4.0, 20000); (6.0, 300); (8.0, 300); (10.0, 300); (12.0, 300); (14.0, 300); (16.0, 1000) ];
        reference_rate = 4.0;
        slo_p99_us = 5_000_000;
        backoff_us = 10_000;
      }
  | Small ->
      {
        files = 8;
        file_pages = (1, 3);
        drops = 2;
        put_bytes = (100, 600);
        stations = 8;
        zipf_s = 1.0;
        ladder = [ (4.0, 40); (12.0, 40) ];
        reference_rate = 4.0;
        slo_p99_us = 1_000_000;
        backoff_us = 10_000;
      }

let fail what pp e = Format.kasprintf failwith "serve %s: %a" what pp e

type kind = Get of int | Put of int * string | List

type request = {
  due : int;
  kind : kind;
  mutable sent : int;  (** First send, or -1. *)
}

type point = {
  rate : float;
  n : int;
  p50_us : int;
  p99_us : int;
  throughput : float;  (** Completions per simulated second. *)
  words : int;  (** Body words carried. *)
  elapsed_us : int;
  backlog : int;  (** Requests outstanding when the last one came due. *)
}

let setup size ~seed =
  let p = params size in
  let g = Gen.create seed in
  let g_corpus = Gen.split g and g_load = Gen.split g in
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let clock = Fs.clock fs in
  let root = match Directory.open_root fs with Ok r -> r | Error e -> fail "open root" Directory.pp_error e in
  let make name data =
    let f = match File.create fs ~name with Ok f -> f | Error e -> fail "create" File.pp_error e in
    (match File.write_bytes f ~pos:0 data with Ok () -> () | Error e -> fail "fill" File.pp_error e);
    (match File.flush_leader f with Ok () -> () | Error e -> fail "leader" File.pp_error e);
    match Directory.add root ~name (File.leader_name f) with Ok () -> () | Error e -> fail "catalogue" Directory.pp_error e
  in
  (* The corpus's shape is fixed: file [r] holds popularity rank [r] and
     its size is a fixed function of the rank, so every seed offers the
     same layout and demand; the seed decides the bytes and the load. *)
  let names = Array.init p.files (fun i -> Printf.sprintf "Srv%03d.dat" i) in
  let bodies =
    Array.mapi
      (fun r name ->
        let lo, hi = p.file_pages in
        let pages = lo + (r mod (hi - lo + 1)) in
        let data = Gen.text g_corpus ((pages * 512) - ((r * 97) mod 512)) in
        make name data;
        data)
      names
  in
  let drop_names = Array.init p.drops (fun i -> Printf.sprintf "Put%03d.dat" i) in
  let drop_initial =
    Array.map
      (fun name ->
        let data = Gen.text g_corpus 200 in
        make name data;
        data)
      drop_names
  in
  let listing = List.sort String.compare (Array.to_list names @ Array.to_list drop_names) in
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  (match Fs.flush fs with Ok () -> () | Error e -> fail "flush" Fs.pp_error e);
  let net = Net.create ~clock () in
  let srv = File_server.create fs (Net.attach net ~name:"fs") in
  let stations = Array.init p.stations (fun i -> Net.attach net ~name:(Printf.sprintf "c%03d" i)) in
  !tamper drive;
  (* Stratified draws (see [Gen]): the mix, the popularity and the sizes
     hold exactly per block, the order and the gaps are the seed's. *)
  let kinds = Gen.deck (Gen.split g_load) ~weights:[| 6.0; 3.0; 1.0 |] ~block:10 in
  let gets = Gen.zipf_deck (Gen.split g_load) ~n:p.files ~s:p.zipf_s ~block:200 in
  let puts = Gen.zipf_deck (Gen.split g_load) ~n:p.drops ~s:p.zipf_s ~block:60 in
  let put_sizes = Gen.strata (Gen.split g_load) ~block:100 in
  let gaps = Gen.strata (Gen.split g_load) ~block:200 in
  fun () ->
    let t = tally () in
    let acked = Array.make p.drops [] in
    let lags = ref [] in
    let server () = Spans.span Spans.File_server (fun () -> File_server.tick srv) in
    let run_point (rate, n) =
      let t_start = Sim_clock.now_us clock in
      let due = ref t_start in
      let reqs =
        Array.init n (fun _ ->
            due := !due + Gen.strat_exp_gap_us gaps ~rate;
            let kind =
              match Gen.deal kinds with
              | 0 -> Get (Gen.deal gets)
              | 1 ->
                  let lo, hi = p.put_bytes in
                  Put (Gen.deal puts, Gen.text g_load (Gen.strat_range put_sizes lo hi))
              | _ -> List
            in
            { due = !due; kind; sent = -1 })
      in
      let next = ref 0 in
      let retry = Queue.create () and fresh = Queue.create () in
      let free = Stack.create () in
      for i = p.stations - 1 downto 0 do
        Stack.push i free
      done;
      let inflight = Array.make p.stations None in
      let completed = ref 0 and last_done = ref t_start and words = ref 0 in
      let latencies = Array.make n 0 in
      let backlog = ref 0 in
      let stalls = ref 0 in
      let send st r =
        let station = stations.(st) in
        let sent =
          Spans.op (fun () ->
              Spans.span Spans.File_server (fun () ->
                  match r.kind with
                  | Get k -> Client.send_get station ~server:"fs" ~name:names.(k)
                  | Put (d, body) -> Client.send_put station ~server:"fs" ~name:drop_names.(d) body
                  | List -> Client.send_list station ~server:"fs"))
        in
        (match sent with Ok () -> () | Error e -> fail "send" Client.pp_error e);
        if r.sent < 0 then begin
          r.sent <- Sim_clock.now_us clock;
          lags := (r.sent - r.due) :: !lags
        end;
        inflight.(st) <- Some r
      in
      let finish r ~ok ~bytes =
        check t ok;
        latencies.(!completed) <- Sim_clock.now_us clock - r.due;
        incr completed;
        words := !words + (bytes / 2);
        last_done := Sim_clock.now_us clock
      in
      let receive r = function
        | Error Client.Busy -> Queue.push (Sim_clock.now_us clock + p.backoff_us, r) retry
        | Error _ -> finish r ~ok:false ~bytes:0
        | Ok reply -> (
            match (r.kind, reply) with
            | Get k, Client.File (name, body) ->
                finish r ~ok:(String.equal name names.(k) && String.equal body bodies.(k)) ~bytes:(String.length body)
            | Put (d, body), Client.Ack ->
                acked.(d) <- body :: acked.(d);
                finish r ~ok:true ~bytes:(String.length body)
            | List, Client.File (name, body) ->
                let lines = List.sort String.compare (List.filter (( <> ) "") (String.split_on_char '\n' body)) in
                finish r ~ok:(String.equal name ";listing" && lines = listing) ~bytes:(String.length body)
            | _ -> finish r ~ok:false ~bytes:0)
      in
      while !completed < n do
        let now = Sim_clock.now_us clock in
        while !next < n && reqs.(!next).due <= now do
          Queue.push reqs.(!next) fresh;
          incr next;
          if !next = n then backlog := n - !completed
        done;
        let sent_any = ref false in
        let rec dispatch () =
          if not (Stack.is_empty free) then
            let next_req =
              match Queue.peek_opt retry with
              | Some (ready, _) when ready <= now -> Some (snd (Queue.pop retry))
              | Some _ | None -> Queue.take_opt fresh
            in
            match next_req with
            | Some r ->
                send (Stack.pop free) r;
                sent_any := true;
                dispatch ()
            | None -> ()
        in
        dispatch ();
        let progress = server () in
        let replies = ref 0 in
        Array.iteri
          (fun st -> function
            | None -> ()
            | Some r -> (
                match Spans.span Spans.File_server (fun () -> Client.poll_reply stations.(st)) with
                | None -> ()
                | Some res ->
                    incr replies;
                    inflight.(st) <- None;
                    Stack.push st free;
                    receive r res))
          inflight;
        if progress = 0 && !replies = 0 && not !sent_any then
          let wake =
            match ((if !next < n then Some reqs.(!next).due else None), Queue.peek_opt retry) with
            | Some a, Some (b, _) -> Some (min a b)
            | Some a, None -> Some a
            | None, Some (b, _) -> Some b
            | None, None -> None
          in
          match wake with
          | Some at -> Sim_clock.advance_us clock (max 1 (at - now))
          | None -> begin
            (* Everything is sent and the server is idle: a reply that
               never comes is a failed request, not a hang. *)
            incr stalls;
            if !stalls > 1000 then begin
              Array.iteri
                (fun st -> function
                  | None -> ()
                  | Some r ->
                      inflight.(st) <- None;
                      Stack.push st free;
                      finish r ~ok:false ~bytes:0)
                inflight;
              Queue.iter (fun (_, r) -> finish r ~ok:false ~bytes:0) retry;
              Queue.clear retry;
              Queue.iter (fun r -> finish r ~ok:false ~bytes:0) fresh;
              Queue.clear fresh
            end
          end
      done;
      let elapsed_us = !last_done - t_start in
      {
        rate;
        n;
        p50_us = median_us latencies;
        p99_us = percentile latencies 0.99;
        throughput = per_s n elapsed_us;
        words = !words;
        elapsed_us;
        backlog = !backlog;
      }
    in
    let points = List.map run_point p.ladder in
    (* Every PUT target holds one of the bodies acknowledged for it,
       read off the platter after a sync. *)
    Books.untimed (fun () ->
        ignore (Alto_fs.Bio.flush (Fs.bio fs));
        let root = match Directory.open_root fs with Ok r -> r | Error e -> fail "open root" Directory.pp_error e in
        Array.iteri
          (fun d name ->
            let got =
              match Directory.lookup root name with
              | Ok (Some e) -> Scavenge.raw_contents drive e.Directory.entry_file
              | Ok None | Error _ -> None
            in
            let allowed = if acked.(d) = [] then [ drop_initial.(d) ] else acked.(d) in
            check t (match got with Some data -> List.mem data allowed | None -> false))
          drop_names);
    let reference = List.find (fun pt -> pt.rate = p.reference_rate) points in
    let top = List.nth points (List.length points - 1) in
    let max_at_slo =
      List.fold_left
        (fun acc pt -> if pt.p99_us <= p.slo_p99_us && pt.backlog <= 2 * File_server.max_active srv then pt.rate else acc)
        0.0 points
    in
    let ops = List.fold_left (fun acc pt -> acc + pt.n) 0 points in
    {
      ops;
      attempted = t.attempted;
      failed = t.failed;
      sim_ops_per_s = top.throughput;
      sim_p50_us = reference.p50_us;
      sim_p99_us = reference.p99_us;
      sim_words_per_s = per_s top.words top.elapsed_us;
      extra =
        [
          ("sim_max_rps_at_slo", max_at_slo);
          ("generator.lag_p99_ms", float_of_int (percentile (Array.of_list !lags) 0.99) /. 1000.0);
        ];
      notes =
        List.map
          (fun pt ->
            Printf.sprintf "offered %5.1f req/s x %4d: p50 %8.1f ms  p99 %8.1f ms  completed %6.2f req/s  backlog %d"
              pt.rate pt.n (float_of_int pt.p50_us /. 1000.) (float_of_int pt.p99_us /. 1000.) pt.throughput
              pt.backlog)
          points;
      drives = [ drive ];
    }
