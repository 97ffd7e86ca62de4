(** The scavenger's first pass: "reading all the labels on the disk"
    (§3.5), and the pack analysis built from it.

    One label read per sector, in address order — consecutive sectors on
    a track stream past in a single revolution, which is what makes a
    full sweep of a 2.5 MB pack take seconds rather than minutes. The
    result classifies every sector and indexes the live ones by absolute
    name, once; {!Fsck}, the {!Scavenger} and the compacting scavenger
    ({!Compactor}) all read that index and its chain facts. *)

module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type sector_class =
  | Live of Label.t  (** A valid label: part of some file. *)
  | Free_sector  (** The all-ones free pattern. *)
  | Marked_bad  (** Carries the bad-page marker; never reuse. *)
  | Bad_media  (** The drive cannot read it at all. *)
  | Garbage of string  (** An unparseable label. *)

type claim = int * Label.t  (** A sector and the label it carries. *)

type file = (int, claim list) Hashtbl.t
(** Page number -> every sector claiming it, lowest first: the lowest
    wins a duplicate claim (a crash mid-move leaves two) and the rest are
    its twins. Lists are never empty. Whoever owns the sweep may edit
    the table as it repairs. *)

type t = {
  classes : sector_class array;  (** Indexed by sector number. *)
  headers_ok : bool array;
      (** Whether the sector's header named the right pack and address. *)
  files : (File_id.t, file) Hashtbl.t;
      (** Every file but the descriptor, entered in order of its lowest
          sector. The scavenger's passes walk this table, so its shape
          fixes their disk-op order. *)
  descriptor : file;
      (** The descriptor's pages, apart: the scavenger rebuilds it from
          scratch and the compactor never moves it. *)
  duration_us : int;
}

val run : Drive.t -> t

val file : t -> File_id.t -> file option
(** Any file's pages, the descriptor's included; [None] if no label
    names it. *)

type defect =
  | Missing of int  (** An unclaimed page below the last. *)
  | Stale_next of int * int
      (** [(page, sector)]: its next link misses the next page's sector
          (both pages single-claim). *)

type chain = {
  headless : bool;  (** Nothing claims page 0, the leader. *)
  prefix : int;
      (** The highest [k] with pages [1..k] all claimed: the contiguous
          prefix behind the leader, or the run a rebuilt leader would
          front. *)
  last : int;  (** The highest page claimed. *)
  defects : defect list;  (** In page order. *)
}

val chain : file -> chain
(** The file's chain facts as its claims stand now. *)
