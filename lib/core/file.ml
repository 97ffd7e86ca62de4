module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address

type t = {
  fs : Fs.t;
  fid : File_id.t;
  mutable leader_addr : Disk_address.t;
  mutable leader : Leader.t;
  mutable hints : Disk_address.t array;  (* index = page number; nil = unknown *)
  mutable last_page : int;
  mutable last_length : int;
}

type error =
  | Hint_failed
  | No_such_page of int
  | Fs_error of Fs.error
  | Structure of string

let pp_error fmt = function
  | Hint_failed -> Format.pp_print_string fmt "hint failed, consult a directory or the scavenger"
  | No_such_page pn -> Format.fprintf fmt "no page %d in this file" pn
  | Fs_error e -> Fs.pp_error fmt e
  | Structure msg -> Format.fprintf fmt "file structure damaged: %s" msg

let fs t = t.fs
let fid t = t.fid
let leader t = t.leader
let last_page t = t.last_page

let leader_name t = Page.full_name t.fid ~page:0 ~addr:t.leader_addr

let byte_length t =
  if t.last_page = 0 then 0
  else (Sector.bytes_per_page * (t.last_page - 1)) + t.last_length

(* {2 Hint cache} *)

let ensure_hints t pn =
  let n = Array.length t.hints in
  if pn >= n then begin
    let bigger = Array.make (max (pn + 1) (2 * n)) Disk_address.nil in
    Array.blit t.hints 0 bigger 0 n;
    t.hints <- bigger
  end

let set_hint t pn addr =
  if pn >= 0 && not (Disk_address.is_nil addr) then begin
    ensure_hints t pn;
    t.hints.(pn) <- addr
  end

let hint t pn = if pn < Array.length t.hints then t.hints.(pn) else Disk_address.nil

let clear_hint t pn = if pn >= 1 && pn < Array.length t.hints then t.hints.(pn) <- Disk_address.nil

let invalidate_hints t =
  for pn = 1 to Array.length t.hints - 1 do
    t.hints.(pn) <- Disk_address.nil
  done

let retain_hints t ~every =
  if every < 1 then invalid_arg "File.retain_hints: every must be >= 1";
  for pn = 1 to Array.length t.hints - 1 do
    if pn mod every <> 0 then t.hints.(pn) <- Disk_address.nil
  done

let hinted_pages t =
  let n = ref 0 in
  for pn = 1 to min t.last_page (Array.length t.hints - 1) do
    if not (Disk_address.is_nil t.hints.(pn)) then incr n
  done;
  !n

let cache_links t pn (label : Label.t) =
  set_hint t (pn + 1) label.Label.next;
  if pn > 0 then set_hint t (pn - 1) label.Label.prev

(* {2 Resolving page numbers to full names} *)

let drive t = Fs.drive t.fs
let bio t = Fs.bio t.fs

(* Walk the link chain from the highest trusted hint at or below
   [target]. A stale in-chain hint triggers one restart from the leader
   with the intermediate hints cleared; if the leader itself fails the
   check, the whole handle is stale. *)
let chase t ~target =
  let rec start restarted =
    let rec highest k =
      if k <= 0 then 0
      else if Disk_address.is_nil (hint t k) then highest (k - 1)
      else k
    in
    let rec step k addr =
      if k = target then Ok addr
      else
        let fn = Page.full_name t.fid ~page:k ~addr in
        match Page.read_label ~bio:(bio t) (drive t) fn with
        | Ok label -> (
            cache_links t k label;
            match label.Label.next with
            | a when Disk_address.is_nil a ->
                Error (Structure (Printf.sprintf "chain ends at page %d before page %d" k target))
            | a -> step (k + 1) a)
        | Error (Page.Hint_failed _) ->
            if k = 0 || restarted then Error Hint_failed
            else begin
              invalidate_hints t;
              start true
            end
        | Error (Page.Bad_label msg) -> Error (Structure msg)
    in
    let k = highest target in
    if k = 0 then step 0 t.leader_addr else step k (hint t k)
  in
  start false

let page_name t pn =
  if pn < 0 then invalid_arg "File.page_name: negative page number"
  else if pn > t.last_page then Error (No_such_page pn)
  else if pn = 0 then Ok (leader_name t)
  else
    let h = hint t pn in
    if not (Disk_address.is_nil h) then Ok (Page.full_name t.fid ~page:pn ~addr:h)
    else
      match chase t ~target:pn with
      | Ok addr ->
          set_hint t pn addr;
          Ok (Page.full_name t.fid ~page:pn ~addr)
      | Error e -> Error e

(* Run a page operation, re-deriving the address once if its hint turns
   out stale. *)
let with_page t pn f =
  let ( let* ) = Result.bind in
  let* fn = page_name t pn in
  match f fn with
  | Ok x -> Ok x
  | Error (Page.Bad_label msg) -> Error (Structure msg)
  | Error (Page.Hint_failed _) -> (
      clear_hint t pn;
      let* fn = page_name t pn in
      match f fn with
      | Ok x -> Ok x
      | Error (Page.Bad_label msg) -> Error (Structure msg)
      | Error (Page.Hint_failed _) -> Error Hint_failed)

(* {2 Batched transfers}

   When the addresses of a whole run of pages are already known in core —
   from hints, extended by consecutive-allocation arithmetic where the
   leader vouches for it ("a program … is free to assume that a file is
   consecutive", §3.6) — the run can go to the disk as one elevator
   batch instead of page-at-a-time. Every batched request still checks
   the label against the page's absolute name, so a wrong guess costs
   one refuted request, repaired through the ordinary hint-ladder path. *)

let batch_threshold = 4

let known_addresses t ~first ~last =
  let sectors = Drive.sector_count (drive t) in
  let addrs = Array.make (last - first + 1) Disk_address.nil in
  let all_known = ref true in
  let consecutive = t.leader.Leader.maybe_consecutive in
  for pn = first to last do
    let a = hint t pn in
    let a =
      if not (Disk_address.is_nil a) then a
      else if consecutive then
        (* Extrapolate from the nearest hinted page below; page 0 (the
           leader) is always hinted, so the scan terminates. *)
        let rec from k =
          if k < 0 then Disk_address.nil
          else
            let h = hint t k in
            if Disk_address.is_nil h then from (k - 1)
            else
              let i = Disk_address.to_index h + (pn - k) in
              if i < sectors then Disk_address.of_index i else Disk_address.nil
        in
        from (pn - 1)
      else Disk_address.nil
    in
    if Disk_address.is_nil a then all_known := false else addrs.(pn - first) <- a
  done;
  if !all_known then Some addrs else None

(* {2 Opening and creating} *)

let now t = Fs.now_seconds t.fs

let open_leader fs (fn : Page.full_name) =
  let ( let* ) = Result.bind in
  if fn.Page.abs.Page.page <> 0 then
    invalid_arg "File.open_leader: not the name of a leader page";
  let* label, value =
    match Page.read ~bio:(Fs.bio fs) (Fs.drive fs) fn with
    | Ok x -> Ok x
    | Error (Page.Hint_failed _) -> Error Hint_failed
    | Error (Page.Bad_label msg) -> Error (Structure msg)
  in
  let* leader =
    match Leader.of_value value with Ok l -> Ok l | Error msg -> Error (Structure msg)
  in
  let t =
    {
      fs;
      fid = fn.Page.abs.Page.fid;
      leader_addr = fn.Page.addr;
      leader;
      hints = Array.make 8 Disk_address.nil;
      last_page = 0;
      last_length = 0;
    }
  in
  set_hint t 0 fn.Page.addr;
  cache_links t 0 label;
  (* Trust the leader's last-page hint if the label there confirms it;
     otherwise count the chain the slow way. *)
  let confirm_last pn addr =
    if pn < 1 || Disk_address.is_nil addr then None
    else
      match Page.read_label ~bio:(bio t) (drive t) (Page.full_name t.fid ~page:pn ~addr) with
      | Ok label when Disk_address.is_nil label.Label.next ->
          Some (pn, label.Label.length)
      | Ok _ | Error _ -> None
  in
  let* last_pn, last_len =
    match confirm_last leader.Leader.last_page leader.Leader.last_addr with
    | Some (pn, len) ->
        set_hint t pn leader.Leader.last_addr;
        Ok (pn, len)
    | None ->
        (* Chain walk from the leader to the end. *)
        let rec walk pn addr =
          match Page.read_label ~bio:(bio t) (drive t) (Page.full_name t.fid ~page:pn ~addr) with
          | Error (Page.Hint_failed _) -> Error Hint_failed
          | Error (Page.Bad_label msg) -> Error (Structure msg)
          | Ok label -> (
              cache_links t pn label;
              match label.Label.next with
              | a when Disk_address.is_nil a ->
                  if pn = 0 then Ok (0, 0) else Ok (pn, label.Label.length)
              | a -> walk (pn + 1) a)
        in
        walk 0 t.leader_addr
  in
  t.last_page <- last_pn;
  t.last_length <- last_len;
  Ok t

let create_with_fid fs fid ~name =
  let ( let* ) = Result.bind in
  let wrap = Result.map_error (fun e -> Fs_error e) in
  let created_s = int_of_float (Alto_machine.Sim_clock.now_seconds (Fs.clock fs)) in
  (* Leader first (next link set afterwards), then the empty data page,
     then the leader's label learns the data page's address. The next
     link is only a hint, so a crash anywhere here leaves nothing
     dangerous behind. *)
  let leader0 =
    Leader.make ~created_s ~written_s:created_s ~name ~last_page:1
      ~last_addr:Disk_address.nil ~maybe_consecutive:true ()
  in
  let* leader_addr =
    wrap
      (Fs.allocate_page fs
         ~label:(fun _ ->
           Label.make ~fid ~page:0 ~length:Sector.bytes_per_page
             ~next:Disk_address.nil ~prev:Disk_address.nil)
         ~value:(Leader.to_value leader0))
  in
  let* page1_addr =
    wrap
      (Fs.allocate_page fs
         ~label:(fun _ ->
           Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil ~prev:leader_addr)
         ~value:(Array.make Sector.value_words Word.zero))
  in
  let leader = Leader.with_last leader0 ~last_page:1 ~last_addr:page1_addr in
  let leader_label =
    Label.make ~fid ~page:0 ~length:Sector.bytes_per_page ~next:page1_addr
      ~prev:Disk_address.nil
  in
  let* () =
    match
      Page.rewrite_label ~bio:(Fs.bio fs) (Fs.drive fs)
        (Page.full_name fid ~page:0 ~addr:leader_addr)
        ~new_label:leader_label ~value:(Leader.to_value leader)
    with
    | Ok () -> Ok ()
    | Error (Page.Hint_failed _) -> Error Hint_failed
    | Error (Page.Bad_label msg) -> Error (Structure msg)
  in
  let t =
    {
      fs;
      fid;
      leader_addr;
      leader;
      hints = Array.make 8 Disk_address.nil;
      last_page = 1;
      last_length = 0;
    }
  in
  set_hint t 0 leader_addr;
  set_hint t 1 page1_addr;
  Ok t

let create fs ~name = create_with_fid fs (Fs.fresh_fid fs) ~name

let create_with_id fs fid ~name = create_with_fid fs fid ~name

let create_directory_file fs ~name =
  create_with_fid fs (Fs.fresh_fid ~directory:true fs) ~name

(* {2 Reading} *)

let read_page t pn =
  if pn < 1 then invalid_arg "File.read_page: data pages are numbered from 1"
  else
    let ( let* ) = Result.bind in
    let* label, value = with_page t pn (fun fn -> Page.read ~bio:(bio t) (drive t) fn) in
    cache_links t pn label;
    if pn = t.last_page then t.last_length <- label.Label.length;
    Ok (value, label.Label.length)

(* Pages move as whole words; only an odd leading byte (a low half)
   or trailing byte (a high half) is handled by hand. *)
let bytes_of_page value ~page_off ~len ~dst ~dst_off =
  let lead = min len (page_off land 1) in
  if lead = 1 then Bytes.set_uint8 dst dst_off (Word.low_byte value.(page_off / 2));
  Word.blit_to_bytes value ((page_off + lead) / 2) dst (dst_off + lead)
    ((len - lead) / 2);
  if (len - lead) land 1 = 1 then
    Bytes.set_uint8 dst (dst_off + len - 1)
      (Word.high_byte value.((page_off + len - 1) / 2))

let touch_written t =
  t.leader <- Leader.with_times t.leader ~written_s:(now t) ()

let touch_read t =
  t.leader <- Leader.with_times t.leader ~read_s:(now t) ()

(* {2 Batched reads}

   Label-checked value reads for pages [first .. first + n - 1] at
   [addrs], as one request set. Pages buffered in the track cache when
   the batch is built park no request and are served from core when it
   is collected; a buffer that dies in between costs that page one
   ordinary synchronous read — the same fallback a refuted request
   pays. *)

type batch = {
  file : t;
  first : int;
  addrs : Disk_address.t array;
  labels : Word.t array array;
  values : Word.t array array;
  requests : Sched.request array;
  slots : int array;
      (* [requests.(j)] covers page index [slots.(j)]. *)
}

let batch t ~first addrs =
  let n = Array.length addrs in
  let values = Array.init n (fun _ -> Array.make Sector.value_words Word.zero) in
  let labels = Array.init n (fun i -> Label.check_name t.fid ~page:(first + i)) in
  let slots =
    let b = bio t in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if Bio.peek b addrs.(i) = None then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  let requests =
    Array.map
      (fun i ->
        Sched.request ~label:labels.(i) ~value:values.(i) addrs.(i)
          { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read })
      slots
  in
  { file = t; first; addrs; labels; values; requests; slots }

(* Per page: adopt the batched read, or fall back to the one-page path
   for that page alone. *)
let collect b outcomes =
  let t = b.file in
  let n = Array.length b.addrs in
  let ( let* ) = Result.bind in
  let outcome = Array.make n None in
  Array.iteri (fun j i -> outcome.(i) <- Some outcomes.(j).Sched.result) b.slots;
  let rec go i acc =
    if i >= n then Ok (Array.of_list (List.rev acc))
    else
      let pn = b.first + i in
      let fallback () =
        let* v, plen = read_page t pn in
        go (i + 1) ((v, plen) :: acc)
      in
      match outcome.(i) with
      | None ->
          set_hint t pn b.addrs.(i);
          fallback ()
      | Some (Error _) -> fallback ()
      | Some (Ok ()) -> (
          match Label.of_words b.labels.(i) with
          | Error _ -> fallback ()
          | Ok label ->
              Bio.note_label (bio t) b.addrs.(i) b.labels.(i);
              set_hint t pn b.addrs.(i);
              cache_links t pn label;
              if pn = t.last_page then t.last_length <- label.Label.length;
              go (i + 1) ((b.values.(i), label.Label.length) :: acc))
  in
  go 0 []

(* One elevator pass over pages [first ..] at [addrs].

   With the track buffer cache enabled the batching is the cache's:
   each miss pulls its whole track through the shared elevator in one
   fill, the rest of the run is answered from core, and the track stays
   resident for the next reader. The request batch remains as the
   disabled-cache path (and the experiments' ablation). *)
let read_pages_batched t ~first addrs =
  let n = Array.length addrs in
  let ( let* ) = Result.bind in
  if Bio.enabled (bio t) then begin
    let rec each i acc =
      if i >= n then Ok (Array.of_list (List.rev acc))
      else begin
        let pn = first + i in
        (* The caller already resolved the addresses; seed the hints so
           the per-page path spends no operations re-chasing them. *)
        set_hint t pn addrs.(i);
        let* v, plen = read_page t pn in
        each (i + 1) ((v, plen) :: acc)
      end
    in
    each 0 []
  end
  else
    let b = batch t ~first addrs in
    collect b (Sched.run_batch (drive t) b.requests)

let read_bytes t ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "File.read_bytes: negative position or length";
  let total = byte_length t in
  let n = max 0 (min len (total - pos)) in
  let dst = Bytes.create n in
  let ( let* ) = Result.bind in
  if n = 0 then Ok dst
  else begin
    let first = 1 + (pos / Sector.bytes_per_page) in
    let last = 1 + ((pos + n - 1) / Sector.bytes_per_page) in
    let* prefetched =
      if last - first + 1 >= batch_threshold then
        match known_addresses t ~first ~last with
        | Some addrs -> Result.map Option.some (read_pages_batched t ~first addrs)
        | None -> Ok None
      else Ok None
    in
    let page pn =
      match prefetched with
      | Some pages -> Ok pages.(pn - first)
      | None -> read_page t pn
    in
    let rec loop pn page_off dst_off =
      if dst_off >= n then Ok dst
      else
        let* value, plen = page pn in
        let here = min (plen - page_off) (n - dst_off) in
        if here <= 0 then
          Error (Structure (Printf.sprintf "page %d shorter than the file length implies" pn))
        else begin
          bytes_of_page value ~page_off ~len:here ~dst ~dst_off;
          loop (pn + 1) 0 (dst_off + here)
        end
    in
    let result = loop first (pos mod Sector.bytes_per_page) 0 in
    if Result.is_ok result then touch_read t;
    result
  end

(* {2 Planned whole-file reads}

   A server activity wants the whole file but must not hold the machine
   while the disk turns: it asks for a plan (the label-checked value
   reads for every data page, as one request set), parks the requests on
   the standing elevator queue alongside every other conversation's, and
   assembles the bytes when the shared sweep has completed them. The
   split is exactly {!read_pages_batched} pulled apart at the disk
   wait. *)

type read_plan = { plan_batch : batch; plan_total : int }

let plan_requests p = p.plan_batch.requests

let plan_read t =
  let total = byte_length t in
  if total = 0 then Ok None
  else begin
    let last = t.last_page in
    (* Addresses from hints (extrapolated where the leader vouches for
       consecutive allocation), completed by chasing links — the chase
       is synchronous metadata work charged to this conversation's turn;
       the data pages themselves all travel in the shared sweep. *)
    let addrs =
      match known_addresses t ~first:1 ~last with
      | Some addrs -> Ok addrs
      | None ->
          let ( let* ) = Result.bind in
          let rec collect pn acc =
            if pn > last then Ok (Array.of_list (List.rev acc))
            else
              let* fn = page_name t pn in
              collect (pn + 1) (fn.Page.addr :: acc)
          in
          collect 1 []
    in
    Result.map
      (fun addrs -> Some { plan_batch = batch t ~first:1 addrs; plan_total = total })
      addrs
  end

let finish_read p outcomes =
  let t = p.plan_batch.file in
  let n = Array.length p.plan_batch.addrs in
  if Array.length outcomes <> Array.length p.plan_batch.requests then
    invalid_arg "File.finish_read: outcome count does not match the plan";
  let ( let* ) = Result.bind in
  let* pages = collect p.plan_batch outcomes in
  let dst = Bytes.create p.plan_total in
  let rec assemble pn dst_off =
    if dst_off >= p.plan_total then Ok (Bytes.to_string dst)
    else if pn > n then
      Error (Structure "file shorter than its leader implies")
    else
      let value, plen = pages.(pn - 1) in
      let here = min plen (p.plan_total - dst_off) in
      if here <= 0 then
        Error (Structure (Printf.sprintf "page %d shorter than the file length implies" pn))
      else begin
        bytes_of_page value ~page_off:0 ~len:here ~dst ~dst_off;
        assemble (pn + 1) (dst_off + here)
      end
  in
  let result = assemble 1 0 in
  if Result.is_ok result then touch_read t;
  result

(* {2 Writing} *)

(* The inverse of [bytes_of_page]: whole words through the blit (which
   only reads [s]), an odd end byte merged into its word by hand. *)
let patch_page value ~page_off s ~s_off ~len =
  let patch_byte b byte =
    let w = Word.to_int value.(b / 2) in
    value.(b / 2) <-
      Word.of_int
        (if b land 1 = 0 then (w land 0x00ff) lor (byte lsl 8) else (w land 0xff00) lor byte)
  in
  let lead = min len (page_off land 1) in
  if lead = 1 then patch_byte page_off (Char.code s.[s_off]);
  Word.blit_from_bytes (Bytes.unsafe_of_string s) (s_off + lead) value
    ((page_off + lead) / 2) ((len - lead) / 2);
  if (len - lead) land 1 = 1 then
    patch_byte (page_off + len - 1) (Char.code s.[s_off + len - 1])

let update_leader_last t =
  t.leader <- Leader.with_last t.leader ~last_page:t.last_page ~last_addr:(hint t t.last_page)

(* Rewrite page [pn]'s label, preserving its links, with a new length
   and/or next link. *)
let rewrite_page t pn ~length ~next value =
  with_page t pn (fun fn ->
      let ( let* ) = Result.bind in
      let* old = Page.read_label ~bio:(bio t) (drive t) fn in
      let new_label =
        Label.make ~fid:t.fid ~page:pn ~length
          ~next:(Option.value next ~default:old.Label.next)
          ~prev:old.Label.prev
      in
      Page.rewrite_label ~bio:(bio t) (drive t) fn ~new_label ~value)

let append_fresh_page t value ~len =
  let ( let* ) = Result.bind in
  let pn = t.last_page + 1 in
  let* prev_fn = page_name t t.last_page in
  let* addr =
    Result.map_error
      (fun e -> Fs_error e)
      (Fs.allocate_page t.fs
         ~label:(fun _ ->
           Label.make ~fid:t.fid ~page:pn ~length:len ~next:Disk_address.nil
             ~prev:prev_fn.Page.addr)
         ~value)
  in
  set_hint t pn addr;
  if not (Disk_address.equal addr (Disk_address.offset prev_fn.Page.addr 1)) then
    t.leader <- Leader.with_consecutive t.leader false;
  Ok (addr, pn)

(* One elevator pass of label-checked full-page value writes; a refuted
   or failed request falls back to the one-page path for that page. *)
let write_pages_batched t ~first addrs values =
  let n = Array.length addrs in
  let labels = Array.init n (fun i -> Label.check_name t.fid ~page:(first + i)) in
  let requests =
    Array.init n (fun i ->
        Sched.request ~label:labels.(i) ~value:values.(i) addrs.(i)
          { Drive.op_none with label = Some Drive.Check; value = Some Drive.Write })
  in
  let outcomes = Sched.run_batch (drive t) requests in
  let ( let* ) = Result.bind in
  let rec finish i =
    if i >= n then Ok ()
    else
      match outcomes.(i).Sched.result with
      | Ok () ->
          (* A value write moves no label generation, so a buffered copy
             of this sector would survive it stale — record the written
             value (supersedes any delayed write the buffer held) beside
             the verified label. *)
          Bio.install (bio t) addrs.(i) ~label:labels.(i) ~value:values.(i);
          set_hint t (first + i) addrs.(i);
          finish (i + 1)
      | Error _ ->
          let* (_ : Label.t) =
            with_page t (first + i) (fun fn ->
                Page.write ~bio:(bio t) (drive t) fn values.(i))
          in
          finish (i + 1)
  in
  finish 0

let write_bytes t ~pos s =
  let total = byte_length t in
  if pos < 0 || pos > total then
    invalid_arg "File.write_bytes: position beyond end of file";
  let ( let* ) = Result.bind in
  let len = String.length s in
  (* [cached] avoids re-reading a page we just wrote when the loop
     immediately appends its successor. *)
  let cached = ref None in
  (* A long run of whole-page overwrites of existing pages — the shape
     of a world swap's outload — goes to the disk as one elevator batch
     before the page-at-a-time loop takes over for the remainder. *)
  let batched_prefix () =
    if pos mod Sector.bytes_per_page <> 0 then Ok (1 + (pos / Sector.bytes_per_page), 0)
    else begin
      let start_pn = 1 + (pos / Sector.bytes_per_page) in
      let rec extent pn s_off =
        if
          len - s_off >= Sector.bytes_per_page
          && (pn < t.last_page
             || (pn = t.last_page && t.last_length = Sector.bytes_per_page))
        then extent (pn + 1) (s_off + Sector.bytes_per_page)
        else pn
      in
      let stop = extent start_pn 0 in
      let count = stop - start_pn in
      if count < batch_threshold then Ok (start_pn, 0)
      else
        match known_addresses t ~first:start_pn ~last:(stop - 1) with
        | None -> Ok (start_pn, 0)
        | Some addrs ->
            let values =
              Array.init count (fun i ->
                  let v = Array.make Sector.value_words Word.zero in
                  patch_page v ~page_off:0 s ~s_off:(i * Sector.bytes_per_page)
                    ~len:Sector.bytes_per_page;
                  v)
            in
            let* () = write_pages_batched t ~first:start_pn addrs values in
            cached := Some (stop - 1, values.(count - 1));
            Ok (stop, count * Sector.bytes_per_page)
    end
  in
  let rec put pn page_off s_off =
    if s_off >= len then Ok ()
    else
      let here = min (Sector.bytes_per_page - page_off) (len - s_off) in
      let full_page_overwrite =
        page_off = 0
        && here = Sector.bytes_per_page
        && (pn < t.last_page || (pn = t.last_page && t.last_length = Sector.bytes_per_page))
      in
      if full_page_overwrite then begin
        (* The whole page is replaced and its length is unchanged: one
           label-checked value write, no read — this is what lets a world
           swap stream 64K words at full track speed. *)
        let value = Array.make Sector.value_words Word.zero in
        patch_page value ~page_off:0 s ~s_off ~len:here;
        let* (_ : Label.t) = with_page t pn (fun fn -> Page.write ~bio:(bio t) (drive t) fn value) in
        cached := Some (pn, value);
        put (pn + 1) 0 (s_off + here)
      end
      else if pn <= t.last_page then begin
        let* value, plen = read_page t pn in
        patch_page value ~page_off s ~s_off ~len:here;
        let* () =
          if pn < t.last_page then
            Result.map (fun (_ : Label.t) -> ())
              (with_page t pn (fun fn -> Page.write ~bio:(bio t) (drive t) fn value))
          else begin
            let new_plen = max plen (page_off + here) in
            if new_plen <> plen then begin
              let* () = rewrite_page t pn ~length:new_plen ~next:None value in
              t.last_length <- new_plen;
              Ok ()
            end
            else
              Result.map (fun (_ : Label.t) -> ())
                (with_page t pn (fun fn -> Page.write ~bio:(bio t) (drive t) fn value))
          end
        in
        cached := Some (pn, value);
        put (pn + 1) 0 (s_off + here)
      end
      else begin
        (* A brand-new page; the previous last page must be full. *)
        let value = Array.make Sector.value_words Word.zero in
        patch_page value ~page_off:0 s ~s_off ~len:here;
        let* addr, pn' = append_fresh_page t value ~len:here in
        (* Tell the old last page about its successor. When the file had
           no data pages at all, the "old last" is the leader itself. *)
        let old_last = t.last_page in
        let* old_value =
          match !cached with
          | Some (p, v) when p = old_last -> Ok v
          | Some _ | None ->
              let* _, v = with_page t old_last (fun fn -> Page.read ~bio:(bio t) (drive t) fn) in
              Ok v
        in
        let* () =
          rewrite_page t old_last ~length:Sector.bytes_per_page ~next:(Some addr)
            old_value
        in
        t.last_page <- pn';
        t.last_length <- here;
        cached := Some (pn', value);
        put (pn' + 1) 0 (s_off + here)
      end
  in
  let* start_pn, start_s_off = batched_prefix () in
  let page_off = if start_s_off = 0 then pos mod Sector.bytes_per_page else 0 in
  let* () = put start_pn page_off start_s_off in
  touch_written t;
  update_leader_last t;
  Ok ()

let append_bytes t s = write_bytes t ~pos:(byte_length t) s

(* {2 Shrinking} *)

let truncate t ~len =
  if len < 0 || len > byte_length t then
    invalid_arg "File.truncate: length out of range";
  let ( let* ) = Result.bind in
  let new_last = if len = 0 then 1 else 1 + ((len - 1) / Sector.bytes_per_page) in
  let rec free pn =
    if pn <= new_last then Ok ()
    else
      let* fn = page_name t pn in
      let* () = Result.map_error (fun e -> Fs_error e) (Fs.free_page t.fs fn) in
      clear_hint t pn;
      t.last_page <- pn - 1;
      free (pn - 1)
  in
  let* () = free t.last_page in
  let new_plen = len - (Sector.bytes_per_page * (new_last - 1)) in
  let* value, _ = read_page t new_last in
  (* Force the next link to NIL: new_plen describes the new last page. *)
  let* () =
    with_page t new_last (fun fn ->
        let ( let* ) = Result.bind in
        let* old = Page.read_label ~bio:(bio t) (drive t) fn in
        let new_label =
          Label.make ~fid:t.fid ~page:new_last ~length:new_plen
            ~next:Disk_address.nil ~prev:old.Label.prev
        in
        Page.rewrite_label ~bio:(bio t) (drive t) fn ~new_label ~value)
  in
  t.last_page <- new_last;
  t.last_length <- new_plen;
  touch_written t;
  update_leader_last t;
  Ok ()

let delete t =
  let ( let* ) = Result.bind in
  (* Resolve every page before freeing anything, so a chase never has to
     walk through a page we already freed. *)
  let rec resolve acc pn =
    if pn > t.last_page then Ok (List.rev acc)
    else
      let* fn = page_name t pn in
      resolve (fn :: acc) (pn + 1)
  in
  let* names = resolve [] 0 in
  let rec free = function
    | [] -> Ok ()
    | fn :: rest ->
        let* () = Result.map_error (fun e -> Fs_error e) (Fs.free_page t.fs fn) in
        free rest
  in
  let* () = free (List.rev names) in
  t.last_page <- 0;
  t.last_length <- 0;
  invalidate_hints t;
  Ok ()

(* {2 Word-granularity IO (for directories)} *)

let read_words t ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "File.read_words: negative position or length";
  match read_bytes t ~pos:(2 * pos) ~len:(2 * len) with
  | Error e -> Error e
  | Ok bytes ->
      let ws = Array.make (Bytes.length bytes / 2) Word.zero in
      Word.blit_from_bytes bytes 0 ws 0 (Array.length ws);
      Ok ws

let write_words t ~pos ws =
  write_bytes t ~pos:(2 * pos) (Word.string_of_words ws ~len:(2 * Array.length ws))

(* {2 Leader maintenance} *)

let flush_leader t =
  update_leader_last t;
  Result.map
    (fun (_ : Label.t) -> ())
    (with_page t 0 (fun fn -> Page.write ~bio:(bio t) (drive t) fn (Leader.to_value t.leader)))
