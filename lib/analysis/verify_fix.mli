(** Engine-backed fix verification: apply each suggested {!Fix.t} to the
    recorded trace, replay the rewritten trace, and re-run the
    crash-consistency oracle and the static detectors over the result —
    upgrading advisory suggestions to machine-checked verdicts.

    Verification costs replays (trace interpretation), never target
    re-executions. The oracle and failure-point enumerator are passed in as
    closures so this module stays below the engine in the dependency
    order. *)

type verdict =
  | Proven
      (** the targeted finding is gone from the rewritten trace and nothing
          new broke *)
  | Ineffective  (** the targeted finding is still present *)
  | Harmful
      (** the rewrite introduces a new correctness-grade finding (oracle
          bug, structural durability/ordering/atomicity violation, stranded
          store window) or — for deletions, which promise behaviour
          preservation — changes the final persisted image *)

val verdict_to_string : verdict -> string

type source = Static_finding | Lint_finding

val source_to_string : source -> string

(** A fix together with the finding it claims to repair: the finding's
    identity (kind + code path) is what the recheck must no longer
    report. *)
type candidate = {
  c_source : source;
  c_kind : string;  (** source-specific kind string of the targeted finding *)
  c_stack : Pmtrace.Callstack.capture option;  (** the finding's code path *)
  c_pseq : int;  (** the finding's persistency-index anchor *)
  c_fix : Fix.t;
}

type outcome = { o_candidate : candidate; o_verdict : verdict; o_detail : string }

type t = {
  outcomes : outcome list;  (** in {!Fix.compare} order of the fixes *)
  proven : int;
  ineffective : int;
  harmful : int;
  replays : int;
      (** trace passes performed: one normalization per trace (its device
          pass also yields the final image) and one
          {!Pmtrace.Replay.materialize} pass per judged crash view — the
          baseline's included *)
}

val expand_fix : Fix.t -> Pmtrace.Event.t list -> Pmtrace.Replay.edit list
(** A fix names a code site, not a dynamic instruction: [expand_fix fix
    events] is the fix's edits applied at every dynamic instance of its
    anchor site (every event sharing the anchor's capture) — what the
    verifier rewrites, mirroring a source-level repair. Two refinements
    over {!edits_of_fix} at each instance: an inserted flush targets the
    cache line *that instance's* store dirtied (the same source line
    touches different lines per activation), and its paired fence is
    elided when a recorded fence already follows the instance — the later
    fence drains the inserted flush, while a synthesized one would split
    the persist epoch and break the program's own atomicity batching. *)

module Keys : Set.S with type elt = string

(** {2 The recheck cascade}

    One differential judge for a rewritten trace, shared by {!verify} and
    the optimizer ({!Opt}): rewrite, normalize, re-run the static analyzer
    (under the baseline's invariants), the lint and offline fault injection
    on materialized crash images, and diff each against the unmodified
    trace. *)

type view = {
  v_static : Static.t;  (** static analysis of the trace's event pair *)
  v_lint : Lint.t;  (** lint of the trace's events *)
  v_structural : Keys.t;  (** correctness-grade static finding keys *)
  v_missing : Keys.t;  (** missing-flush (stranded store window) lint keys *)
  v_prefix : Keys.t;  (** oracle-bug keys under the program-prefix crash view *)
  v_adr : Keys.t;  (** oracle-bug keys under the ADR crash view (empty when not run) *)
  v_image : Pmem.Image.t;  (** persisted image at the end of the normalization pass *)
}
(** What the checks see on one trace. *)

type checker
(** A baseline view of the unmodified recording, plus the configuration
    every recheck against it runs under. Counts the replays it performs. *)

val checker :
  ?invariants:Invariants.t ->
  ?adr:bool ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  Pmtrace.Replay.t ->
  Pmtrace.Event.t list * Pmtrace.Event.t list ->
  checker
(** [checker noload (events, loaded_events)] takes the baseline view:
    [events] are [noload]'s, paired with [loaded_events] for the static
    analyzer. Invariants are mined from that pair unless given, then
    reused by every recheck. Every failure point's crash image comes from
    {!Pmtrace.Replay.materialize}: under the program-prefix view always,
    and under the conservative [Adr] view too (only fenced data survives a
    crash, which makes deleted or deferred persist instructions
    observable) when [adr] is set. *)

val replays : checker -> int
(** Trace passes performed so far: the baseline's normalization and one
    materialization pass per crash view, then per successful {!recheck}
    one normalization per rewritten recording plus the same
    materialization passes. *)

type recheck = {
  r_events : Pmtrace.Event.t list;  (** the rewritten trace, normalized *)
  r_view : view;
  r_harm : string option;
      (** the first new correctness-grade finding, as a verdict detail, in
          cascade order: oracle bug, ADR-view oracle bug, structural
          violation, stranded store window *)
}

val recheck :
  checker ->
  ?loaded:Pmtrace.Replay.t ->
  Pmtrace.Replay.t ->
  Pmtrace.Replay.edit list ->
  (recheck, string) result
(** [recheck ck ?loaded noload edits] applies [edits] to [noload] (and to
    [loaded], whose normalized trace then pairs with it for the static
    analyzer; without it the load-free trace pairs with itself) and diffs
    the rewritten view against the baseline. [Error msg] when an edit's
    anchor does not fit the recording. *)

val image_changed : checker -> recheck -> bool
(** Whether the rewrite changed the final persisted image. *)

val dedup : ('a -> string) -> 'a list -> 'a list
(** One entry per distinct key, the first kept, order preserved. *)

val verify :
  ?invariants:Invariants.t ->
  support:int ->
  confidence:float ->
  eadr:bool ->
  oracle:(Pmem.Image.t -> (string * string) option) ->
  points:(Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list) ->
  noload:Pmtrace.Replay.t ->
  loaded:Pmtrace.Replay.t ->
  candidate list ->
  t
(** [verify ~oracle ~points ~noload ~loaded candidates] — [oracle]
    classifies a crash image (Some (kind, detail) = bug); [points]
    enumerates a trace's failure points as [(ordinal, pseq, capture)]
    triples; [noload]/[loaded] are replay recordings of the same
    deterministic workload without/with load tracing. Candidates are
    deduplicated by edit identity ({!Fix.key}) and judged in
    {!Fix.compare} order; [invariants] (normally the baseline static
    analysis's) are reused for every recheck rather than re-mined, and
    mined once from the given pair when absent. *)

val pp_outcome : outcome Fmt.t
val pp : t Fmt.t

val outcome_to_json : outcome -> Telemetry.Json.t
val to_json : t -> Telemetry.Json.t
(** Ledger encodings: the verdict tally plus every outcome. *)
