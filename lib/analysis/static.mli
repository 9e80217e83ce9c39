(** The offline static analyzer: builds persistency dependency graphs from
    recorded executions, mines likely invariants, and emits findings with
    concrete fix suggestions. *)

type kind =
  | Durability  (** correctness: a store window never reached durability *)
  | Transient  (** its line is never flushed at all — PM as transient data? *)
  | Ordering  (** a persist-order hazard witnessed by a dependence *)
  | Atomicity  (** an accepted atomicity invariant was split by a fence *)

val kind_to_string : kind -> string

type finding = {
  kind : kind;
  seq : int;  (** persistency-index anchor *)
  stack : Pmtrace.Callstack.capture option;  (** frame + ordinal of the anchor *)
  detail : string;
  fix : Fix.t option;
  ident : string option;
      (** for invariant-backed findings (ordering / atomicity), the mined
          invariant the instance violates — an identity stable across trace
          rewrites even when the anchor shifts or the violation class
          changes (the fix verifier compares findings by it) *)
}

type t = {
  findings : finding list;
  invariants : Invariants.t;
  graph : Dep_graph.t;  (** the subject run's graph *)
  hot_windows : (int * int * int) list;
      (** (lo, hi, weight) persistency-index windows implicated by a
          violation or a dangling store — the input to {!Prioritize} *)
  hot_frames : string list;
      (** innermost call-stack frame labels of the violation anchors that
          emitted windows — generalizes per-activation window evidence to
          every failure point of the same operation *)
  runs : int;
  events : int;  (** total events folded into graphs across recordings *)
}

val kind_rank : kind -> int
(** Severity-family order used to sort findings deterministically. *)

val analyze :
  ?invariants:Invariants.t ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  (Pmtrace.Event.t list * Pmtrace.Event.t list) list ->
  t
(** [analyze ~support ~confidence ~eadr runs] — each run is
    [(load_free_events, load_traced_events)] of one recorded execution of
    the same deterministic workload: the load-free recording (with stacks)
    provides exact frame + ordinal anchors in pipeline seq coordinates;
    the load-traced recording provides dependency edges and pointer
    chases. Under [eadr] the durability family is suppressed (globally
    visible stores are durable, paper section 4.3). Findings are sorted by
    (anchor, kind, detail). [invariants] skips the mining and scans
    against the given set — how the fix verifier re-checks a rewritten
    trace under the baseline invariants. *)

val pp_finding : finding Fmt.t
val pp : t Fmt.t
