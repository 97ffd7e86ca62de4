module Word = Alto_machine.Word

let random_words rng n =
  Array.init n (fun _ -> Word.of_int (Random.State.int rng 0x10000))

let corrupt_part rng drive addr part =
  Drive.poke drive addr part (random_words rng (Sector.part_size part))

let flip_word rng drive addr part =
  let sector = Drive.peek drive addr in
  let words = Sector.part_of sector part in
  let i = Random.State.int rng (Array.length words) in
  let bit = Random.State.int rng Word.bits in
  words.(i) <- Word.logxor words.(i) (Word.shift_left Word.one bit);
  Drive.poke drive addr part words

let decay rng drive ~fraction =
  if fraction < 0. || fraction > 1. then invalid_arg "Fault.decay: fraction out of [0,1]"
  else begin
    let victims = ref [] in
    for i = Drive.sector_count drive - 1 downto 0 do
      if Random.State.float rng 1.0 < fraction then begin
        let addr = Disk_address.of_index i in
        corrupt_part rng drive addr Sector.Label;
        victims := addr :: !victims
      end
    done;
    !victims
  end
