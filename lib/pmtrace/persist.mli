(** The x86 cache-line persistency lifecycle (paper section 2) as one walk
    over recorded events: stores open a line's window, a dirty
    [clflushopt]/[clwb] captures it, a fence drains every capture and
    non-temporal store, and a [clflush] persists its line at once.

    The walk carries anchors — the persistency index plus whatever the
    caller attaches to each event (a raw trace seq, a call stack) — and
    never bytes: {!Pmem.Device} remains the byte-level reference that
    crash images come from. The dependency graph and the lint epoch walk
    are built on it; the trace analysis keeps its own slot-granular table
    and shares only {!waste}.

    A window records one line's stores between two lifecycle points:
    - a {e cached} window holds the stores since the line was last
      captured; it is open until a flush captures it;
    - a {e non-temporal} window holds one NT store, which bypasses the
      cache: it is buffered until the next fence and leaves the line's
      cached window untouched. *)

(** {1 The redundancy rule} *)

type waste =
  | Volatile_flush  (** the flushed address is outside the PM pool *)
  | Clean_flush  (** the line held no unpersisted store at the flush *)
  | Empty_fence  (** an [sfence]/[mfence] with no flush or NT store to drain *)

val waste : Pmem.Op.t -> waste option
(** [waste op] is why [op] does no persistency work, read off the device
    metadata the recorded event carries ([dirty], [volatile], the pending
    counts). An RMW fence is never waste: its fence half cannot be deleted
    without the read-modify-write it belongs to. Stores and loads are
    never waste. *)

(** {1 The walk} *)

type ('a, 'd) window = private {
  line : int;
  nt : bool;  (** a non-temporal store's window *)
  first : 'a;  (** anchor of the first store *)
  first_p : int;  (** persistency index of the first store *)
  mutable last : 'a;
  mutable last_p : int;
  mutable count : int;  (** stores in the window *)
  mutable flush : ('a * int) option;
      (** anchor and persistency index of the capturing flush; [None] while
          open, and always for NT windows *)
  mutable persisted : bool;  (** a [clflush] of the line made it durable *)
  mutable last_epoch : int;  (** epoch of the newest store *)
  data : 'd;  (** the caller's per-window payload *)
}

type ('a, 'd) t

val create : (unit -> 'd) -> ('a, 'd) t
(** [create fresh] is a walk at persistency index 0, epoch 0; [fresh]
    makes the payload of every new window. *)

val tick : _ t -> Pmem.Op.t -> unit
(** Advance the persistency index past [op]; loads do not count. Call it
    for every event, before the matching step below, so the step is
    anchored at the event's own index — which equals the instruction
    counter of a load-free execution. *)

val pseq : _ t -> int
val epoch : _ t -> int
(** Fences walked so far. *)

val store : ('a, 'd) t -> 'a -> addr:int -> size:int -> nt:bool -> (('a, 'd) window -> unit) -> unit
(** A store: for every line it spans, join the line's open cached window
    (opening one if needed) or, when [nt], open a fresh NT window awaiting
    the next fence; the callback sees each window the store joined. *)

val flush :
  ('a, 'd) t -> 'a -> kind:Pmem.Op.flush_kind -> line:int -> volatile:bool -> ('a, 'd) window option
(** A flush of [line]. A volatile flush changes nothing. Otherwise the
    line's flush count grows and its open cached window, if any, is
    captured and awaits the next fence. A [clflush] also persists every
    capture and NT window of the line awaiting a fence. The result is the
    same-epoch capture this flush's capture overwrites — a capture still
    undrained and not clflushed since — if any. *)

val fence : ('a, 'd) t -> (('a, 'd) window -> unit) -> unit
(** A fence of any kind, RMW included: call [f] on every window awaiting
    it, in capture order, then start the next epoch. *)

(** {1 Queries} *)

val dirty : _ t -> int -> bool
(** The line has an open cached window: stores no flush has captured. *)

val nt_pending : _ t -> int -> bool
(** The line was stored to non-temporally in the current epoch. *)

val flushes : _ t -> int -> int
(** Non-volatile flushes of the line so far. *)

val stranded : ('a, 'd) t -> (('a, 'd) window -> unit) -> unit
(** Iterate the open cached windows stored to in the current epoch: the
    lines a fence here would leave dirty. *)

val unfenced : ('a, 'd) t -> ('a, 'd) window list
(** Captured and NT windows awaiting a fence, in capture order. *)

val fold_open : ('a, 'd) t -> (('a, 'd) window -> 'b -> 'b) -> 'b -> 'b
(** Fold over every open cached window, in unspecified order. *)
