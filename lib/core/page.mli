(** Pages and their names (§3.1), and the label-checked disk operations
    on them (§3.3).

    A page's {e absolute name} is (FV, n): file id, version, page number.
    Its {e hint name} is a disk address. The {e full name} is the pair;
    every disk access in the system quotes a full name, and the label
    check guarantees that "the hint (address) used to access a disk page
    actually leads to the page specified by the absolute part". *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type absolute = { fid : File_id.t; page : int }

type full_name = { abs : absolute; addr : Disk_address.t }

val full_name : File_id.t -> page:int -> addr:Disk_address.t -> full_name
val pp_full_name : Format.formatter -> full_name -> unit

val next_name : full_name -> Label.t -> full_name option
(** The full name of the following page, built from a just-read label —
    "it is easy to go from the full name of a page to the full names of
    the next and previous pages". [None] when the label's next link is
    NIL. *)

type error =
  | Hint_failed of Drive.error
      (** The label check refuted the address hint, or the sector is
          bad. The caller should climb the recovery ladder of §3.6. *)
  | Bad_label of string
      (** The label read back does not parse — scavenger territory. *)

val pp_error : Format.formatter -> error -> unit

val read : ?bio:Bio.t -> Drive.t -> full_name -> (Label.t * Word.t array, error) result
(** One disk operation: check the label against the absolute name, read
    the value. The returned label is complete (length and links), learned
    through the check's wildcards. With [bio] the value can come from
    memory: a buffered, generation-live track sector answers without
    touching the disk (the check replays against the buffered label
    image, mismatch verdicts included), a miss fills the whole track in
    one elevator batch before serving, and the verified label is
    remembered. Without [bio] the read goes to the platter and records
    nothing — the raw-reader path. *)

val read_label : ?bio:Bio.t -> Drive.t -> full_name -> (Label.t, error) result
(** As {!read} but without transferring the value. With [bio], a label
    the cache holds ({!Bio.label}: remembered, or on a buffered track)
    answers without any disk operation at all — including reproducing a
    {!Drive.Check_mismatch} verdict when it refutes the caller's absolute
    name; this is where the hint ladder's chain walks get cheap. A
    label-only access never fills a track: a fill would cost more than
    the one operation it saves. *)

val write : ?bio:Bio.t -> Drive.t -> full_name -> Word.t array -> (Label.t, error) result
(** One disk operation: check the label, write the 256-word value. Does not
    change the label, so the page keeps its length; use {!rewrite_label}
    to change L or the links. Raises [Invalid_argument] on a wrong-sized
    value. With [bio], the write remembers the verified label, and
    one whose sector is buffered and generation-live is {e absorbed}:
    the name check replays against the buffered label image and the
    value is delayed in the buffer until the next coalesced flush — zero
    disk operations now, one amortized elevator write later. A write
    that cannot be absorbed goes through as before. *)

val rewrite_label :
  ?bio:Bio.t ->
  Drive.t ->
  full_name ->
  new_label:Label.t ->
  value:Word.t array ->
  (unit, error) result
(** Two disk operations, §3.3's third label-write occasion: first check
    the old label (and read the current value into [value]'s zeroed
    buffer if desired), then write the new label and value. Costs about a
    revolution — the price the paper quotes for changing a file's
    length. A label the cache holds ([bio]) stands in for the first
    operation, halving that price; the written label and value are then
    re-installed — superseding any delayed value write the buffer held
    for the sector. *)

val retire : Drive.t -> Disk_address.t -> unit
(** Write the bad-page marker through a dying sector, best effort: the
    data surface accepts writes blind, and a sector too far gone to take
    even the marker is left to the quarantine table. *)

val value_reads : Drive.t -> Disk_address.t -> bool
(** Whether the sector's data reads back through the retry ladder. A
    dead data surface takes writes blind; only a read says so. *)
