(** Trace analysis (paper section 4.2): a single streaming pass over the PM
    access stream detecting the bug classes fault injection cannot see.

    The five patterns:
    - a store never explicitly persisted → durability bug if its address is
      ever flushed during the execution, otherwise a transient-data warning
      (both suppressed under {!Config.t.eadr});
    - a flush of a volatile address or of a clean line → redundant flush
      ({!Pmtrace.Persist.waste});
    - a flush capturing more than one store → warning;
    - an sfence/mfence with nothing pending → redundant fence (likewise;
      an RMW's implicit fence never is);
    - a fence draining more than one flush/NT store → unordered-persist
      warning (the reorderings Mumak deliberately does not explore). *)

type t

type raw = { kind : Report.kind; seq : int; detail : string }
(** A finding identified by instruction counter; the engine attaches call
    stacks afterwards with one extra minimally-instrumented execution. *)

val create : Config.t -> t

val feed : t -> Pmtrace.Event.t -> unit
(** Consume one event; O(touched lines/slots). *)

val finish : t -> raw list
(** End-of-trace classification; returns all findings in trace order. *)

val event_count : t -> int
