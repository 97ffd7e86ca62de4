type t = int

let bits = 16
let max_value = 0xffff
let zero = 0
let one = 1

let of_int n = n land max_value

let of_int_exn n =
  if n < 0 || n > max_value then
    invalid_arg (Printf.sprintf "Word.of_int_exn: %d out of range" n)
  else n

let to_int w = w

let to_signed w = if w land 0x8000 <> 0 then w - 0x10000 else w

let add a b = (a + b) land max_value
let sub a b = (a - b) land max_value
let mul a b = a * b land max_value
let logand a b = a land b
let logor a b = a lor b
let logxor a b = a lxor b
let lognot a = lnot a land max_value
let shift_left a n = (a lsl n) land max_value
let shift_right a n = a lsr n

let succ a = add a 1
let pred a = sub a 1

let low_byte w = w land 0xff
let high_byte w = (w lsr 8) land 0xff

let of_bytes ~high ~low =
  if high < 0 || high > 0xff || low < 0 || low > 0xff then
    invalid_arg "Word.of_bytes: byte out of range"
  else (high lsl 8) lor low

let of_char_pair c1 c2 = of_bytes ~high:(Char.code c1) ~low:(Char.code c2)

let blit_from_bytes b off ws pos n =
  for i = 0 to n - 1 do
    ws.(pos + i) <- Bytes.get_uint16_be b (off + (2 * i))
  done

let blit_to_bytes ws pos b off n =
  for i = 0 to n - 1 do
    Bytes.set_uint16_be b (off + (2 * i)) ws.(pos + i)
  done

(* Whole words move through the blits; only an odd final byte is
   handled by hand. [blit_from_bytes] only reads, so the string may be
   viewed as bytes. *)
let words_of_string s =
  let n = String.length s in
  let ws = Array.make ((n + 1) / 2) zero in
  blit_from_bytes (Bytes.unsafe_of_string s) 0 ws 0 (n / 2);
  if n land 1 = 1 then ws.(n / 2) <- Char.code s.[n - 1] lsl 8;
  ws

let string_of_words ws ~len =
  if len < 0 || len > 2 * Array.length ws then
    invalid_arg "Word.string_of_words: bad length"
  else begin
    let b = Bytes.create len in
    blit_to_bytes ws 0 b 0 (len / 2);
    if len land 1 = 1 then Bytes.set_uint8 b (len - 1) (high_byte ws.(len / 2));
    Bytes.unsafe_to_string b
  end

let equal (a : int) b = a = b
let compare (a : int) b = Stdlib.compare a b
let hash (w : int) = Hashtbl.hash w
let pp fmt w = Format.pp_print_int fmt w
let pp_octal fmt w = Format.fprintf fmt "#%o" w
