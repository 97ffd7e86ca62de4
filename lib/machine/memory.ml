exception Invalid_address of int

type t = { words : Word.t array }

let size = 65536

let check_addr addr =
  if addr < 0 || addr >= size then raise (Invalid_address addr)

let check_range pos len =
  if len < 0 || pos < 0 || pos + len > size then
    raise (Invalid_address (if pos < 0 then pos else pos + len - 1))

let create () = { words = Array.make size Word.zero }

let read m addr =
  check_addr addr;
  m.words.(addr)

let write m addr w =
  check_addr addr;
  m.words.(addr) <- w

let read_block m ~pos ~len =
  check_range pos len;
  Array.sub m.words pos len

let write_block m ~pos ws =
  let len = Array.length ws in
  check_range pos len;
  Array.blit ws 0 m.words pos len

let fill m ~pos ~len w =
  check_range pos len;
  Array.fill m.words pos len w

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range src_pos len;
  check_range dst_pos len;
  Array.blit src.words src_pos dst.words dst_pos len

let copy m = { words = Array.copy m.words }

let restore m ~from = Array.blit from.words 0 m.words 0 size

let equal a b = a.words = b.words

let words_differing a b =
  let n = ref 0 in
  for i = 0 to size - 1 do
    if a.words.(i) <> b.words.(i) then incr n
  done;
  !n

let write_string m ~pos s = write_block m ~pos (Word.words_of_string s)

let read_string m ~pos ~len =
  let nwords = (len + 1) / 2 in
  Word.string_of_words (read_block m ~pos ~len:nwords) ~len
