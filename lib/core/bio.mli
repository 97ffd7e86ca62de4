(** The track buffer cache: whole-track buffers with delayed write-back,
    and the verified-label table behind them — the one cache on the
    label read path.

    A read that misses fills the {e entire} track in one elevator batch
    (a full track read costs one revolution from wherever the head
    lands, now that the sweep is rotation-aware), and every later sector
    read on that track is answered from memory, UNIX-v4-bio-style.
    Writes are absorbed into the buffer, marked dirty and {e delayed};
    they reach the platter coalesced into contiguous track sweeps
    through the same elevator — on eviction, on {!Fs.flush}, on an
    explicit {!flush} (the executive's [sync], OutLoad, quit), or when
    the dirty count crosses the high-water mark.

    {2 Remembered labels}

    §3.6's hint ladder spends most of its budget re-reading labels it
    checked moments ago: a chain walk reads every link, and opening a
    file confirms the leader's last-page hint. Beside the track buffers
    the cache keeps a table of up to 128 label images that a check, a
    read, a write or a fill just verified (least-recently-used out), so
    a label-only probe ({!label}) costs nothing. The table has its own
    bound because a label working set spans far more sectors than the
    track buffers hold; [set_tracks 0] leaves it working. Counters:
    [fs.label_cache.{hits,misses,invalidations}] — one hit is one disk
    operation saved — beside the track buffers' [fs.bio.*].

    {2 Coherence}

    Every remembered label and every buffered sector stores the
    {!Drive.label_generation} observed when it was verified, and is dead
    the moment the generation moves. The drive bumps that counter on
    every label write, on a sector going bad or degrading, and on every
    transient trip, so quarantine, retry evidence and patrol relocation
    can never be masked by the cache. Delayed writes carry the label
    image that was verified when the write was absorbed and are flushed
    as label-[Check] + value-[Write]: if anything re-labelled the sector
    in the meantime the platter wins, the stale write is dropped and
    counted ([fs.bio.write_conflicts]).

    {2 Crash safety}

    A dirty buffer means acknowledged-but-unwritten values, so the
    owner ({!Fs}) is told on every clean-to-dirty transition (the
    [on_dirty] hook) and sets the descriptor dirty flag; a power
    failure with buffers pending therefore boots into the bounded
    {!Patrol.recover} tail scan. Only {e values} of already-labelled
    pages are ever delayed — labels, allocation and the descriptor
    always write through — so a crash loses at most recent page
    contents, never structure.

    Readers of true pack state (audit digests, the patrol, the
    scavenger, the hint ladder, raw transfers) must bypass this cache
    after a {!flush}, and {!invalidate}/{!clear} what they overwrite. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type t

val create : Drive.t -> t
(** An empty cache of at most 16 whole-track buffers. Half the buffers'
    sector capacity is the high-water mark: the dirty-sector count that
    triggers an automatic full flush. Labels read by track fills are
    remembered, so a fill also warms the chain-walking paths. *)

val drive : t -> Drive.t
val enabled : t -> bool

val set_tracks : t -> int -> unit
(** Resize the track buffers (shrinking flushes and evicts; 0 flushes
    and drops every buffer and disables them — every sector probe then
    misses and nothing is absorbed — but not the label table). The
    high-water mark follows: half the new sector capacity, at least 1.
    Remembered labels are kept. Raises [Invalid_argument] on a negative
    count. *)

val lookup : t -> Disk_address.t -> (Word.t array * Word.t array) option
(** [(label, value)] for the sector if it is buffered and its
    generation is still live; counts a hit. The arrays are the cache's
    own storage — callers must copy, not mutate. A generation-dead
    dirty sector is flushed (platter arbitrates) and dropped before
    reporting a miss; misses are counted by {!fill}, so probe-then-fill
    reads count one miss each. *)

val label : t -> Disk_address.t -> Word.t array option
(** The sector's label image for a label-only probe: a remembered label
    first (counted in [fs.label_cache.*]; a generation-dead entry is
    dropped and counted as an invalidation), then a live buffered
    sector (counted as {!lookup} counts). Never fills — a label-only
    access costs one operation, a track fill twelve. The array is the
    cache's own storage — callers must copy, not mutate. *)

val note_label : t -> Disk_address.t -> Word.t array -> unit
(** Remember a label image the caller has {e just} verified against the
    disk (a successful check or read, or a completed label write),
    evicting the least-recently-used entry when 128 are held. The
    generation is captured at call time, so staleness evidence recorded
    during the verifying operation itself — a transient trip absorbed by
    a retry, say — is already folded in. *)

val fill : t -> Disk_address.t -> unit
(** Read every unbuffered, non-dirty sector of the address's track in
    one elevator batch and install the survivors (sectors whose read
    hard-fails stay unbuffered — the caller's per-sector fallback path
    sees the true error). Counts one miss and one fill. May evict (and
    so flush) the least-recently-used track. No-op when disabled. *)

val peek : t -> Disk_address.t -> (Word.t array * Word.t array) option
(** {!lookup} without touching the hit/miss counters or the LRU clock —
    for the second probe after a {!fill}. *)

val absorb : t -> Disk_address.t -> Word.t array -> bool
(** Absorb a value write into the buffer: only when the sector is
    buffered and generation-live (so the stored label image is platter
    truth and the caller has already checked its name against it). On
    success the value is copied in, the sector marked dirty, the
    [on_dirty] hook run, and the write is delayed until a flush —
    [false] means the caller must write through (and then {!install}
    or {!invalidate}). *)

val install : t -> Disk_address.t -> label:Word.t array -> value:Word.t array -> unit
(** Record the outcome of a write-through or direct read: its label is
    remembered ({!note_label}), and the sector becomes a clean buffered
    one if its track is already resident (a write never allocates a
    buffer). Supersedes any pending dirty content for that sector. *)

val invalidate : t -> Disk_address.t -> unit
(** Forget the sector's remembered label and drop its buffered content
    {e without} flushing — for callers that just overwrote or relocated
    the sector out-of-band (quarantine, patrol relocation, replica
    repair): whatever the cache held, including a pending dirty value,
    is superseded. Generation checking makes this redundant for anything
    the drive can see; it sheds the entries eagerly. *)

val clear : t -> unit
(** Forget every label and drop every buffer, dirty ones included,
    without flushing — for InLoad's wholesale world swap ({e after} an
    explicit {!flush}) and for tests. *)

type flush_report = { sectors : int; tracks : int; conflicts : int }

val flush : t -> flush_report
(** Write every dirty sector back through one elevator batch —
    label-[Check] + value-[Write], coalesced by the C-SCAN sweep into
    contiguous track runs. Conflicted sectors (the platter was
    re-labelled since the write was absorbed) are dropped and counted.
    Buffers stay resident and clean. *)

val set_on_dirty : t -> (unit -> unit) -> unit
(** Hook run on every clean-to-dirty sector transition, {e before} the
    write is recorded — {!Fs} wires this to its mutation bookkeeping so
    the descriptor dirty flag reaches the platter while the volume's
    delayed writes are still reconstructible by a bounded recovery. *)

val cached_labels : t -> int
val cached_tracks : t -> int
val cached_sectors : t -> int
val dirty_sectors : t -> int
