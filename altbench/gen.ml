(* The seeded generator every workload draws its inputs from.

   SplitMix64 over Int64 rather than [Random]: the stdlib generator
   changed algorithm between OCaml 4.14 and 5.x, and a workload must be
   the same sequence of operations on every compiler the repo supports,
   or the simulated fingerprint would depend on the host. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int (seed + 1)) golden }

let next64 g =
  g.state <- Int64.add g.state golden;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* An independent stream: a workload hands one to each concern (damage
   sites, fault seeds, op mix) so changing how many draws one concern
   makes never shifts another's sequence. *)
let split g = { state = next64 g }

(* 30 uniform bits, as a non-negative int on every word size. *)
let bits g = Int64.to_int (Int64.shift_right_logical (next64 g) 34)

let int g bound =
  if bound <= 0 then invalid_arg "Gen.int";
  bits g mod bound

(* Inclusive range. *)
let range g lo hi = lo + int g (hi - lo + 1)

(* Uniform in [0, 1) with 53 bits. *)
let float g = Int64.to_float (Int64.shift_right_logical (next64 g) 11) /. 9007199254740992.0

let pick g arr = arr.(int g (Array.length arr))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Printable seeded content, so a wrong byte shows in a diff. *)
let text g n = String.init n (fun _ -> Char.chr (32 + int g 95))

(* {2 Stratified streams}

   A workload's aggregate figures should move with the system, not with
   the luck of one seed. These streams keep each seed's order and
   timing random while fixing the empirical distribution block by
   block: every block of [block] draws holds each outcome its expected
   number of times, and continuous draws take one value from each of
   [block] equal strata — the same law, with far less seed-to-seed
   spread in the totals. *)

type deck = { dg : t; counts : int array; mutable cards : int array; mutable pos : int }

(* Largest-remainder apportionment of [block] draws over [weights]. *)
let apportion weights block =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let exact = Array.map (fun w -> w /. total *. float_of_int block) weights in
  let counts = Array.map truncate exact in
  let short = block - Array.fold_left ( + ) 0 counts in
  let order = Array.init (Array.length weights) Fun.id in
  let frac k = exact.(k) -. float_of_int counts.(k) in
  Array.stable_sort (fun a b -> Float.compare (frac b) (frac a)) order;
  for i = 0 to short - 1 do
    counts.(order.(i)) <- counts.(order.(i)) + 1
  done;
  counts

let deck g ~weights ~block = { dg = g; counts = apportion weights block; cards = [||]; pos = 0 }

let deal d =
  if d.pos >= Array.length d.cards then begin
    d.cards <- Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) d.counts));
    shuffle d.dg d.cards;
    d.pos <- 0
  end;
  let c = d.cards.(d.pos) in
  d.pos <- d.pos + 1;
  c

(* Zipf popularity over [n] ranks (rank 0 the most popular) as a deck. *)
let zipf_deck g ~n ~s ~block =
  deck g ~weights:(Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s)) ~block

type strata = { sg : t; sblock : int; mutable vals : float array; mutable spos : int }

let strata g ~block = { sg = g; sblock = block; vals = [||]; spos = 0 }

(* Uniform in [0, 1): one draw from each of [block] equal strata per block. *)
let uniform s =
  if s.spos >= Array.length s.vals then begin
    s.vals <- Array.init s.sblock (fun i -> (float_of_int i +. float s.sg) /. float_of_int s.sblock);
    shuffle s.sg s.vals;
    s.spos <- 0
  end;
  let v = s.vals.(s.spos) in
  s.spos <- s.spos + 1;
  v

let strat_range s lo hi = lo + int_of_float (uniform s *. float_of_int (hi - lo + 1))

(* Poisson inter-arrival gap in microseconds, from stratified uniforms. *)
let strat_exp_gap_us s ~rate = int_of_float (-.log (1.0 -. uniform s) /. rate *. 1e6)
