(* The benchmark's own spans, recorded around every call it makes into a
   layer of the system.

   Each span records its layer, host start and end (a monotonic
   nanosecond clock — [Sys.time] is a getrusage call and inflated the
   runs it measured by half), its parent, and the operation it belongs
   to. Spans live in flat arrays for the length of one measured phase;
   {!chrome_json} writes them out when the run ends. Self time and self
   allocation (a span minus its children) are accumulated per layer as
   spans close, so the summary costs nothing extra to read.

   Switched off, {!span} is one branch and a direct call: the
   end-to-end numbers are measured that way. *)

type layer =
  | Op  (** The benchmark's own root span around one operation. *)
  | File
  | Directory
  | Hints
  | World
  | Scavenger
  | Fsck
  | File_server
  | Replica

let layers = [ Op; File; Directory; Hints; World; Scavenger; Fsck; File_server; Replica ]

let layer_index = function
  | Op -> 0
  | File -> 1
  | Directory -> 2
  | Hints -> 3
  | World -> 4
  | Scavenger -> 5
  | Fsck -> 6
  | File_server -> 7
  | Replica -> 8

(* Metric-name prefix of each layer. *)
let layer_name = function
  | Op -> "bench.op"
  | File -> "file"
  | Directory -> "directory"
  | Hints -> "hints"
  | World -> "world"
  | Scavenger -> "scavenger"
  | Fsck -> "fsck"
  | File_server -> "file_server"
  | Replica -> "replica"

let n_layers = List.length layers
let layer_of_index = Array.of_list layers

let enabled = ref false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far, minor and major (large blocks go straight to
   the major heap — a track buffer does — and [Gc.minor_words] alone
   would miss them). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Stored records, capped so a tick-heavy workload cannot balloon the
   export; aggregates keep counting past the cap. *)
let capacity = 20_000

let rec_layer = Array.make capacity 0
let rec_start = Array.make capacity 0
let rec_stop = Array.make capacity 0
let rec_parent = Array.make capacity (-1)
let rec_op = Array.make capacity 0
let stored = ref 0
let dropped = ref 0

(* The open-span stack: record index (or -1 past the cap), start time,
   start allocation, and the time and words its closed children took. *)
let max_depth = 64
let st_idx = Array.make max_depth (-1)
let st_start = Array.make max_depth 0
let st_alloc = Array.make max_depth 0.0
let st_child_ns = Array.make max_depth 0
let st_child_alloc = Array.make max_depth 0.0
let depth = ref 0

let calls = Array.make n_layers 0
let self_ns = Array.make n_layers 0
let self_alloc = Array.make n_layers 0.0
let next_op = ref 0
let current_op = ref 0
let origin = ref 0

let reset () =
  stored := 0;
  dropped := 0;
  depth := 0;
  next_op := 0;
  current_op := 0;
  Array.fill calls 0 n_layers 0;
  Array.fill self_ns 0 n_layers 0;
  Array.fill self_alloc 0 n_layers 0.0;
  origin := now_ns ()

let close li d t0 a0 =
  let t1 = now_ns () and a1 = alloc_words () in
  let dur = t1 - t0 and words = a1 -. a0 in
  self_ns.(li) <- self_ns.(li) + dur - st_child_ns.(d);
  self_alloc.(li) <- self_alloc.(li) +. words -. st_child_alloc.(d);
  let idx = st_idx.(d) in
  if idx >= 0 then rec_stop.(idx) <- t1 - !origin;
  depth := d;
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dur;
    st_child_alloc.(d - 1) <- st_child_alloc.(d - 1) +. words
  end

let open_ li =
  let d = !depth in
  if d >= max_depth then failwith "Spans: nesting deeper than the stack";
  let t0 = now_ns () in
  let idx =
    if !stored < capacity then begin
      let i = !stored in
      incr stored;
      rec_layer.(i) <- li;
      rec_start.(i) <- t0 - !origin;
      rec_stop.(i) <- t0 - !origin;
      rec_parent.(i) <- (if d > 0 then st_idx.(d - 1) else -1);
      rec_op.(i) <- !current_op;
      i
    end
    else begin
      incr dropped;
      -1
    end
  in
  st_idx.(d) <- idx;
  st_start.(d) <- t0;
  st_child_ns.(d) <- 0;
  st_child_alloc.(d) <- 0.0;
  calls.(li) <- calls.(li) + 1;
  depth := d + 1;
  (* Read allocation last, so the record-keeping above is not charged
     to the span. *)
  st_alloc.(d) <- alloc_words ();
  d

let span layer f =
  if not !enabled then f ()
  else begin
    let li = layer_index layer in
    let d = open_ li in
    let t0 = st_start.(d) and a0 = st_alloc.(d) in
    match f () with
    | x ->
        close li d t0 a0;
        x
    | exception e ->
        close li d t0 a0;
        raise e
  end

(* One user-visible operation: a root span whose id every span under it
   shares. *)
let op f =
  if not !enabled then f ()
  else begin
    incr next_op;
    let saved = !current_op in
    current_op := !next_op;
    Fun.protect ~finally:(fun () -> current_op := saved) (fun () -> span Op f)
  end

type layer_total = { l_calls : int; l_self_ms : float; l_alloc_kw : float }

let totals layer =
  let i = layer_index layer in
  {
    l_calls = calls.(i);
    l_self_ms = float_of_int self_ns.(i) /. 1e6;
    l_alloc_kw = self_alloc.(i) /. 1000.0;
  }

(* Chrome trace_event JSON of the stored spans: complete ("X") events in
   microseconds, one process and thread, op id and parent in [args]. *)
let chrome_json ~name =
  let module J = Alto_obs.Json in
  let events =
    List.init !stored (fun i ->
        J.Obj
          [
            ("name", J.String (layer_name layer_of_index.(rec_layer.(i))));
            ("ph", J.String "X");
            ("ts", J.Float (float_of_int rec_start.(i) /. 1000.0));
            ("dur", J.Float (float_of_int (rec_stop.(i) - rec_start.(i)) /. 1000.0));
            ("pid", J.Int 1);
            ("tid", J.Int 1);
            ("args", J.Obj [ ("op", J.Int rec_op.(i)); ("id", J.Int i); ("parent", J.Int rec_parent.(i)) ]);
          ])
  in
  J.Obj
    [
      ("traceEvents", J.List events);
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj [ ("workload", J.String name); ("spans_not_stored", J.Int !dropped) ]);
    ]
