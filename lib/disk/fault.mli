(** Fault injection.

    §3.5's scavenger exists because packs decay, programs crash mid-write
    and directories get scrambled. This module manufactures those
    misfortunes deterministically (all randomness comes from a caller-
    supplied [Random.State.t]) so the robustness experiments (E9) and the
    scavenger tests are reproducible. Media failures and crash points
    are set on the drive itself: {!Drive.set_bad},
    {!Drive.set_value_unreadable}, {!Drive.set_soft_errors},
    {!Drive.set_marginal} and {!Drive.set_crash_point}. *)

val corrupt_part :
  Random.State.t -> Drive.t -> Disk_address.t -> Sector.part -> unit
(** Replace every word of the part with random junk. *)

val flip_word :
  Random.State.t -> Drive.t -> Disk_address.t -> Sector.part -> unit
(** Flip one random bit in one random word — a single soft error. *)

val decay :
  Random.State.t -> Drive.t -> fraction:float -> Disk_address.t list
(** [decay rng drive ~fraction] corrupts the labels of roughly [fraction]
    of all sectors (each sector independently with that probability) and
    returns the victims. Raises [Invalid_argument] unless
    [0 <= fraction <= 1]. *)
