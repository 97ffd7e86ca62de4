(** The hint recovery ladder (§3.6).

    "The purpose of hints is to increase performance." A program holding
    the full name (FV, i) of a page and a hint address reads it directly;
    when the label check refutes the hint it climbs, in order:

    + follow links from another full name it holds for the file
      (typically the leader page);
    + look up the FV in a directory to obtain the proper disk address;
    + look up the string name of the file to obtain a new FV and address
      (the file was recreated under the same name);
    + invoke the Scavenger "to reconstruct the entire file system and all
      the directories, and then retry one of the earlier steps".

    {!read_page} executes that ladder and reports which rungs were
    climbed and what each cost in simulated time — experiment E4 is this
    module run under a stopwatch. The paper's complaint that programs too
    often die with "Hint failed, please reinstall" instead of recovering
    automatically is exactly a failure to call something like this. *)

module Word = Alto_machine.Word
module Disk_address = Alto_disk.Disk_address

type rung =
  | Direct  (** The page hint itself. *)
  | Leader_chain  (** Links from the leader-page hint. *)
  | Directory_fid  (** Directory scan for the file id. *)
  | Directory_name  (** Directory lookup by string name. *)
  | Scavenge  (** Full reconstruction, then retry. *)

val pp_rung : Format.formatter -> rung -> unit

type attempt = { rung : rung; elapsed_us : int; succeeded : bool }

type request = {
  req_name : string;  (** String name, for the directory rung. *)
  req_fid : File_id.t option;  (** FV, when the program still has one. *)
  req_page : int;  (** The page wanted. *)
  req_page_hint : Disk_address.t option;
  req_leader_hint : Disk_address.t option;
}

type success = {
  fs : Fs.t;
      (** The volume to use from now on — a fresh handle if the ladder
          reached the scavenger. *)
  value : Word.t array;
  label : Label.t;
  resolved : Page.full_name;  (** The page's now-correct full name. *)
  attempts : attempt list;  (** Every rung tried, in order. *)
}

type failure = {
  reason : string;
  failed_attempts : attempt list;
}

val read_page : Fs.t -> directory:File.t -> request -> (success, failure) result
(** Climb the ladder until the page is in hand. [directory] is where the
    FV and string-name rungs look (after a scavenge, the corresponding
    directory on the rebuilt volume — located by name — is used). The
    rungs read the platter, so the volume's delayed writes are flushed
    first ({!Bio.flush}): a lookup never returns page contents older
    than a write already acknowledged. *)
