(** The physical representation of a page (§3.3).

    A sector has three independently accessible parts:
    - a {e header} (2 words): the disk pack number and the disk address;
    - a {e label} (7 words): the file id (2), version, page number, length,
      next link, previous link — interpreted by the file system layer;
    - a {e value}: the 256 data words.

    This module fixes those sizes and the shape of a sector's contents.
    The disk layer treats all three parts as opaque words; giving the
    words meaning is the file system's business, which is how the paper
    gets a disk format "standardized at a level below any of the
    software". *)

val header_words : int
(** 2 *)

val label_words : int
(** 7 *)

val value_words : int
(** 256 *)

val bytes_per_page : int
(** 512: the data capacity of one page's value part. *)

type part = Header | Label | Value

val part_size : part -> int
val pp_part : Format.formatter -> part -> unit

type t = {
  header : Alto_machine.Word.t array;
  label : Alto_machine.Word.t array;
  value : Alto_machine.Word.t array;
}
(** One sector's contents, as {!Drive.peek} copies them off the platter. *)

val part_of : t -> part -> Alto_machine.Word.t array
(** The array holding a part. *)
