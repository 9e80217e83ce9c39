(** Analysis configuration. The defaults match the paper's design choices;
    the alternatives exist for the ablation benchmarks. *)

type granularity =
  | Persistency_instruction
      (** failure points at flushes/fences only (the paper's choice) *)
  | Store_level  (** failure points at every PM store (the ablation) *)

type strategy =
  | Replay
      (** record the workload once, materialize every failure point's crash
          image offline from that single recording in one batched
          prefix-incremental replay pass, and stream the oracle over the
          images; live re-execution remains only as a per-point fallback
          for points the recording cannot reach (the default) *)
  | Snapshot
      (** capture the crash image at first visit during a single execution
          (simulator-only optimisation) *)
  | Reexecute
      (** re-run the workload once per failure point, as the original Mumak
          does (cost-faithful; used by the benchmarks) *)

type t = {
  granularity : granularity;
  strategy : strategy;
  report_warnings : bool;  (** include the warning classes in the report *)
  resolve_stacks : bool;
      (** run the extra minimally-instrumented execution that attaches call
          stacks to trace-analysis findings (paper section 5) *)
  detect_dirty_overwrites : bool;
      (** also flag stores overwriting unpersisted data (off by default: in
          undo-logged code this pattern is routine inside transactions) *)
  eadr : bool;
      (** analyse for an eADR platform (persistence domain extends to the
          CPU caches, paper sections 2 and 4.3): fault injection is
          unchanged — atomicity/ordering bugs survive eADR — but the trace
          analysis stops reporting unflushed stores as durability bugs *)
  max_failure_points : int option;  (** cap for very large targets *)
  static : bool;
      (** run the offline persistency dependency-graph analyzer over the
          run's shared recordings (load-free and load-traced) before the
          dynamic phases: builds per-cacheline store→flush→fence lineages,
          mines likely ordering/atomicity invariants over [invariant_runs]
          replicas of that recording pair, and attaches fix suggestions to
          its findings. Costs the load-traced recording (one execution,
          shared with [verify_fixes]); never a re-execution. *)
  prioritize : bool;
      (** reorder the [Reexecute] injection loop so failure points whose
          first occurrence falls inside a statically-suspicious window are
          injected first (invariant-guided prioritization). Requires
          [static]; ignored under [Snapshot]. *)
  invariant_runs : int;
      (** how many replicas of the one shared recording the invariant
          miner and the abstract interpreter observe. The replicas are
          identical copies, not distinct workload seeds, so more runs raise
          support counts without adding evidence; distinct inputs are an
          open ROADMAP item *)
  invariant_support : int;
      (** minimum dynamic instances before a candidate invariant is kept *)
  invariant_confidence : float;
      (** minimum fraction of instances that must satisfy a candidate
          atomicity invariant for it to be reported when violated *)
  jobs : int;
      (** worker domains for the [Replay] and [Reexecute] injection loops.
          Each fault injection is independent — a materialization pass over
          the shared immutable recording, or a re-execution against its own
          device — so the loop is embarrassingly parallel; [jobs > 1]
          partitions the failure-point leaves round-robin over that many
          domains and merges the records deterministically (sorted by
          discovery ordinal). [1] (the default) is the sequential loop;
          the [Snapshot] strategy ignores this field (single execution). *)
  lint : bool;
      (** run the epoch-based anti-pattern detectors (redundant/duplicate
          flushes, redundant fences, missing-flush hot spots) over a
          recorded trace and add their findings to the report *)
  verify_fixes : bool;
      (** verify every fix suggestion (static and lint) by rewriting the
          recorded trace, replaying it, and re-running the oracle and the
          detectors: verdicts proven / ineffective / harmful. Reads the
          run's shared load-free recording and costs the load-traced one
          (one execution, shared with [static]) plus replays — never
          target re-executions. *)
  absint : bool;
      (** abstract-interpret a control-flow automaton merged from
          [invariant_runs] replicas of the shared recording with a per-cache-line persistency
          lattice: reports missing-flush/missing-fence/ordering findings on
          merged paths no single recording exercised (each with a concrete
          path witness) and proves failure-point sites safe for [prune] *)
  prune : bool;
      (** skip a fault injection when the abstract fixpoint proves the
          failure point safe on every merged path AND the point's replayed
          crash image passes the recovery oracle offline — sound by
          construction: only injections whose records are known to be
          consistent (contributing no finding) are elided. Under [Replay]
          the confirmation folds into the injection pass itself (each
          point's oracle outcome is computed anyway); under [Reexecute] all
          nominees are confirmed in one batched materialization pass over
          the shared recording. Requires [absint]; ignored under
          [Snapshot]. *)
  optimize : bool;
      (** synthesize persist-transformation plans (fence batching, flush
          coalescing/hoisting, non-temporal and clwb conversions) over the
          recorded trace, price them with the cost model, and verify each
          candidate by replay at all failure points of the rewritten trace
          under both crash views; only proven plans ship as the ranked
          patch bundle. Costs replays over the shared recording, never
          extra target executions. *)
  fit_cost : bool;
      (** fit the optimizer's cost weights from a timed replay of the
          recording instead of the deterministic static table; only plan
          rankings change, never verdicts *)
}

let default =
  {
    granularity = Persistency_instruction;
    strategy = Replay;
    report_warnings = true;
    resolve_stacks = true;
    detect_dirty_overwrites = false;
    eadr = false;
    max_failure_points = None;
    static = false;
    prioritize = false;
    invariant_runs = 2;
    invariant_support = 3;
    invariant_confidence = 0.9;
    jobs = 1;
    lint = false;
    verify_fixes = false;
    absint = false;
    prune = false;
    optimize = false;
    fit_cost = false;
  }

let granularity_name = function
  | Persistency_instruction -> "persistency_instruction"
  | Store_level -> "store_level"

let strategy_name = function
  | Replay -> "replay"
  | Snapshot -> "snapshot"
  | Reexecute -> "reexecute"

(** Machine encoding of a configuration, embedded in bench results and
    telemetry exports so a recorded run is reproducible from its output
    alone. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("granularity", String (granularity_name t.granularity));
      ("strategy", String (strategy_name t.strategy));
      ("report_warnings", Bool t.report_warnings);
      ("resolve_stacks", Bool t.resolve_stacks);
      ("detect_dirty_overwrites", Bool t.detect_dirty_overwrites);
      ("eadr", Bool t.eadr);
      ( "max_failure_points",
        match t.max_failure_points with None -> Null | Some n -> Int n );
      ("static", Bool t.static);
      ("prioritize", Bool t.prioritize);
      ("invariant_runs", Int t.invariant_runs);
      ("invariant_support", Int t.invariant_support);
      ("invariant_confidence", Float t.invariant_confidence);
      ("jobs", Int t.jobs);
      ("lint", Bool t.lint);
      ("verify_fixes", Bool t.verify_fixes);
      ("absint", Bool t.absint);
      ("prune", Bool t.prune);
      ("optimize", Bool t.optimize);
      ("fit_cost", Bool t.fit_cost);
    ]

(** [default] plus the full static pipeline: dependency-graph analysis,
    invariant mining, fix suggestions and invariant-guided prioritization
    of the re-execution injection loop. *)
let static_analysis = { default with strategy = Reexecute; static = true; prioritize = true }

(** The lint pipeline: anti-pattern detectors plus verified fix
    suggestions, alongside the default dynamic phases. *)
let linting = { default with lint = true; verify_fixes = true }

(** The merged-trace abstract interpreter plus confirmed failure-point
    pruning over the re-execution injection loop. *)
let path_sensitive = { default with strategy = Reexecute; absint = true; prune = true }

(** The optimizer pipeline: the lint detectors and the merged-trace
    abstract interpreter feed plan synthesis, and every plan is
    replay-verified — all off the single shared recording, so the run
    still costs one target execution. *)
let optimizing = { default with lint = true; absint = true; optimize = true }

(** The configuration the benchmarks use to mirror the original system's
    cost model. *)
let faithful = { default with strategy = Reexecute }

(** [faithful] with the injection loop spread over [jobs] worker domains —
    the paper's parallel deployment of the re-execution strategy. *)
let parallel jobs = { faithful with jobs = max 1 jobs }
