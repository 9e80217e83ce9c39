(** The Mumak pipeline (Figure 1): instrument, execute, inject faults with
    the recovery oracle, analyse the trace, and emit one combined report of
    unique bugs and warnings. *)

(* Both types are documented in engine.mli. *)
type absint = {
  analysis : Analysis.Absint.t;
  prune : Analysis.Prune.plan option;
}

type result = {
  report : Report.t;
  failure_points : int;
  injections : int;
  executions : int;
  trace_events : int;
  pm_stats : Pmem.Stats.t;
  metrics : Metrics.t;
  fi_metrics : Metrics.t;
  ta_metrics : Metrics.t;
  sa_metrics : Metrics.t;
  static : Analysis.Static.t option;
  absint : absint option;
  ai_metrics : Metrics.t;
  lint : Analysis.Lint.t option;
  fix_verdicts : Analysis.Verify_fix.t option;
  opt : Analysis.Opt.t option;
  opt_metrics : Metrics.t;
  first_bug_injection : int option;
  worker_metrics : Metrics.t list;
  trace_signature : string;
  provenance : Provenance.t list;
}

(* Re-run the target once with minimal instrumentation to attach call
   stacks to the trace-analysis findings (the instruction-counter
   optimisation of paper section 5). *)
let resolve_stacks (target : Target.t) ~wanted =
  if wanted = [] then Hashtbl.create 0
  else begin
    let device = Pmem.Device.create ~size:target.Target.pool_size () in
    let tracer = Pmtrace.Tracer.create ~collect:false device in
    let framer = Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer) in
    let resolved =
      Pmtrace.Tracer.resolve_stacks tracer ~wanted ~run:(fun () ->
          target.Target.run ~device ~framer)
    in
    Pmtrace.Tracer.detach tracer;
    resolved
  end

let finding phase ?stack ?seq ?fix kind detail = { Report.kind; phase; stack; seq; detail; fix }

let of_oracle (r : Fault_injection.record) =
  let kind, detail =
    match r.Fault_injection.oracle with
    | Oracle.Consistent -> assert false
    | Oracle.Unrecoverable msg -> (Report.Unrecoverable_state, msg)
    | Oracle.Crashed msg -> (Report.Recovery_crash, msg)
  in
  finding Report.Fault_injection ~stack:r.Fault_injection.point.Fp_tree.capture kind detail

let of_static (f : Analysis.Static.finding) =
  finding Report.Static_analysis ?stack:f.Analysis.Static.stack ~seq:f.Analysis.Static.seq
    ?fix:f.Analysis.Static.fix
    (match f.Analysis.Static.kind with
    | Analysis.Static.Durability -> Report.Durability_bug
    | Analysis.Static.Transient -> Report.Transient_data_warning
    | Analysis.Static.Ordering -> Report.Ordering_violation
    | Analysis.Static.Atomicity -> Report.Atomicity_violation)
    f.Analysis.Static.detail

(* Abstract findings live on merged paths no single recording need have
   exercised, so — like the static analyzer's — they are warnings: the
   over-approximation must not flip a clean target's exit code. *)
let of_absint (f : Analysis.Absint.finding) =
  finding Report.Abs_interp ?stack:f.Analysis.Absint.f_site ~seq:f.Analysis.Absint.f_pseq
    (match f.Analysis.Absint.f_kind with
    | Analysis.Absint.Missing_flush -> Report.Missing_flush_warning
    | Analysis.Absint.Missing_fence -> Report.Missing_fence_warning
    | Analysis.Absint.Ordering -> Report.Ordering_violation)
    f.Analysis.Absint.f_detail

let of_lint (f : Analysis.Lint.finding) =
  finding Report.Lint ?stack:f.Analysis.Lint.l_stack ~seq:f.Analysis.Lint.l_pseq
    ?fix:f.Analysis.Lint.l_fix
    (match f.Analysis.Lint.l_kind with
    | Analysis.Lint.Duplicate_flush | Analysis.Lint.Unnecessary_flush
    | Analysis.Lint.Nt_flush_misuse -> Report.Redundant_flush
    | Analysis.Lint.Redundant_fence -> Report.Redundant_fence
    | Analysis.Lint.Missing_flush -> Report.Missing_flush_warning)
    f.Analysis.Lint.l_detail

let of_trace resolved (r : Trace_analysis.raw) =
  finding Report.Trace_analysis
    ?stack:(Hashtbl.find_opt resolved r.Trace_analysis.seq)
    ~seq:r.Trace_analysis.seq r.Trace_analysis.kind r.Trace_analysis.detail

(* The verifier and the optimizer are parameterized over the oracle and
   failure-point enumerator so [Analysis] stays below the engine in the
   dependency order; these closures plug the engine's own back in. *)
let image_oracle config (target : Target.t) img =
  let device = Pmem.Device.of_image ~eadr:config.Config.eadr img in
  match Oracle.classify target.Target.recover device with
  | Oracle.Consistent -> None
  | Oracle.Unrecoverable msg -> Some (Report.kind_to_string Report.Unrecoverable_state, msg)
  | Oracle.Crashed msg -> Some (Report.kind_to_string Report.Recovery_crash, msg)

(* One run's shared inputs. The load-free recording feeds every offline
   phase and, under [Replay], the injection itself; the load-traced one
   feeds the static miner and fix verification. Each is made at most once,
   by the first phase that needs it — so its cost lands in that phase's
   metrics — and counts as one instrumented execution. The load-free event
   list and its failure points are derived once the same way. *)
type ctx = {
  config : Config.t;
  target : Target.t;
  recordings : int ref;  (** recordings made so far *)
  noload : Pmtrace.Replay.t Lazy.t;
  loaded : Pmtrace.Replay.t Lazy.t;
  events : Pmtrace.Event.t list Lazy.t;  (** [noload]'s events *)
  points : (int * int * Pmtrace.Callstack.capture) list Lazy.t;
      (** {!Fault_injection.offline_points} of [events] *)
  report : Report.t;
  fixes : (string, Report.finding) Hashtbl.t;  (** report findings by fix key *)
}

let context config (target : Target.t) =
  let recordings = ref 0 in
  let record loads =
    lazy
      (let r =
         Pmtrace.Replay.record ~loads ~eadr:config.Config.eadr
           ~pool_size:target.Target.pool_size (fun ~device ~framer ->
             target.Target.run ~device ~framer)
       in
       incr recordings;
       r)
  in
  let noload = record false in
  let events = lazy (Pmtrace.Replay.events (Lazy.force noload)) in
  {
    config;
    target;
    recordings;
    noload;
    loaded = record true;
    events;
    points = lazy (Fault_injection.offline_points config (Lazy.force events));
    report = Report.create ~target:target.Target.name;
    fixes = Hashtbl.create 16;
  }

(* Deterministic targets record identically every run, so [invariant_runs]
   copies of the one recording are exactly what that many fresh recordings
   would give — support-count inflation included (see
   [Config.invariant_runs]). *)
let replicas config x = List.init (max 1 config.Config.invariant_runs) (fun _ -> x)

let span name f = Telemetry.Collector.span ~cat:"phase" name f

(* Every optional phase runs the same way: a progress line, one ["phase"]
   span under its name and a resource measurement — [Metrics.zero] and no
   output when the phase is off. *)
let optional enabled ~progress name f =
  if not enabled then (None, Metrics.zero)
  else begin
    Telemetry.Progress.phase progress;
    let v, m = Metrics.measure (fun () -> span name f) in
    (Some v, m)
  end

(* The one finding→report adapter: warnings only when [report_warnings];
   a finding carrying a fix is indexed by the fix's edit identity so
   verification verdicts can be attached to it afterwards. *)
let add_findings ctx to_finding items =
  List.iter
    (fun item ->
      let (f : Report.finding) = to_finding item in
      if ctx.config.Config.report_warnings || not (Report.kind_is_warning f.Report.kind) then begin
        ignore (Report.add ctx.report f);
        Option.iter
          (fun fx -> Hashtbl.replace ctx.fixes (Analysis.Fix.key fx) f)
          f.Report.fix
      end)
    items

(* Offline static analysis over the shared recording pair: dependency
   graphs, invariant mining, fix suggestions and, for the live
   re-execution loop, the invariant-guided priority over failure points. *)
let static_phase ctx =
  let c = ctx.config in
  let pair = (Lazy.force ctx.events, Pmtrace.Replay.events (Lazy.force ctx.loaded)) in
  let s =
    Analysis.Static.analyze ~support:c.Config.invariant_support
      ~confidence:c.Config.invariant_confidence ~eadr:c.Config.eadr (replicas c pair)
  in
  let priority =
    if c.Config.prioritize && c.Config.strategy = Config.Reexecute then
      Some
        (Analysis.Prioritize.order ~hot_frames:s.Analysis.Static.hot_frames
           s.Analysis.Static.hot_windows (Lazy.force ctx.points))
    else None
  in
  (s, priority)

(* The recording merged into one control-flow automaton and
   abstract-interpreted with the per-line persistency lattice: merged-path
   findings plus per-site safety proofs. The CFG merge is idempotent under
   duplication (a qcheck law), so replicas cost no precision. *)
let absint_phase ctx =
  let a =
    Analysis.Absint.analyze ~eadr:ctx.config.Config.eadr
      (replicas ctx.config (Lazy.force ctx.events))
  in
  Telemetry.Collector.count "absint.nodes" (Analysis.Cfg.node_count a.Analysis.Absint.cfg);
  Telemetry.Collector.count "absint.findings" (List.length a.Analysis.Absint.findings);
  Telemetry.Collector.count "absint.proven_sites" (Analysis.Absint.proven_count a);
  a

type prune = Plan of Analysis.Prune.plan | Deferred of Analysis.Prune.nomination list

(* Conservative failure-point pruning. The abstract fixpoint nominates
   points whose site is safe on every merged path; each nominee's crash
   image is judged by the recovery oracle offline, and only
   confirmed-consistent points are skipped. A skipped injection's record is
   known to be [Consistent] — contributing no finding — so the pruned
   report signature equals the unpruned one by construction. *)
let prune_phase ctx a =
  let nominations =
    Analysis.Prune.nominate ~proven_safe:(Analysis.Absint.proven_safe_at a) (Lazy.force ctx.points)
  in
  match ctx.config.Config.strategy with
  | Config.Replay ->
      (* confirmation folds into the replay injection pass, where every
         point's oracle outcome is computed anyway *)
      Deferred nominations
  | Config.Reexecute | Config.Snapshot ->
      (* Batched confirmation: every nominee's crash image comes out of one
         prefix-incremental materialization pass over the shared recording,
         and the oracle streams over the images — no extra execution, no
         image retained. Live injection crashes at the point's first
         dynamic occurrence, i.e. just before the event at its persistency
         index applies, which is exactly where the materializer captures. *)
      let wanted =
        List.filter_map
          (fun (n : Analysis.Prune.nomination) ->
            if n.Analysis.Prune.n_proven then
              Some (n.Analysis.Prune.n_ordinal, n.Analysis.Prune.n_pseq)
            else None)
          nominations
      in
      let confirmed = Hashtbl.create (max 16 (List.length wanted)) in
      ignore
        (Pmtrace.Replay.materialize (Lazy.force ctx.noload) ~points:wanted ~f:(fun ~key image ->
             match
               Oracle.classify ctx.target.Target.recover
                 (Pmem.Device.adopt ~eadr:ctx.config.Config.eadr image)
             with
             | Oracle.Consistent -> Hashtbl.replace confirmed key ()
             | Oracle.Unrecoverable _ | Oracle.Crashed _ -> ()));
      Plan (Analysis.Prune.decide ~confirmed:(Hashtbl.mem confirmed) nominations)

(* Anti-pattern lint over the shared recording, plus replay-backed
   verification of every fix suggestion (static and lint) — trace
   interpretations over the two recordings, never target re-executions. *)
let lint_phase ctx static_r =
  let c = ctx.config in
  let l = Analysis.Lint.analyze ~eadr:c.Config.eadr (Lazy.force ctx.events) in
  Telemetry.Collector.count "lint.findings" (List.length l.Analysis.Lint.findings);
  Telemetry.Collector.count "lint.events_saved" l.Analysis.Lint.events_saved;
  if not c.Config.verify_fixes then (l, None)
  else begin
    let candidate c_source c_kind c_stack c_pseq =
      Option.map (fun c_fix ->
          { Analysis.Verify_fix.c_source; c_kind; c_stack; c_pseq; c_fix })
    in
    let static_candidates =
      match static_r with
      | None -> []
      | Some s ->
          List.filter_map
            (fun (f : Analysis.Static.finding) ->
              candidate Analysis.Verify_fix.Static_finding
                (Analysis.Static.kind_to_string f.Analysis.Static.kind)
                f.Analysis.Static.stack f.Analysis.Static.seq f.Analysis.Static.fix)
            s.Analysis.Static.findings
    in
    let lint_candidates =
      List.filter_map
        (fun (f : Analysis.Lint.finding) ->
          candidate Analysis.Verify_fix.Lint_finding
            (Analysis.Lint.kind_to_string f.Analysis.Lint.l_kind)
            f.Analysis.Lint.l_stack f.Analysis.Lint.l_pseq f.Analysis.Lint.l_fix)
        l.Analysis.Lint.findings
    in
    let loaded = Lazy.force ctx.loaded in
    ( l,
      Some
        (Analysis.Verify_fix.verify
           ?invariants:(Option.map (fun s -> s.Analysis.Static.invariants) static_r)
           ~support:c.Config.invariant_support ~confidence:c.Config.invariant_confidence
           ~eadr:c.Config.eadr ~oracle:(image_oracle c ctx.target)
           ~points:(Fault_injection.offline_points c) ~noload:(Lazy.force ctx.noload) ~loaded
           (static_candidates @ lint_candidates)) )
  end

(* The optimizer: synthesize persist-transformation plans over the shared
   recording, price them with the cost model, and verify each candidate by
   replay at all failure points of its rewritten trace under both crash
   views. Pure trace interpretation over the load-free recording. *)
let optimize_phase ctx ~static_r ~absint_a =
  let c = ctx.config in
  let noload = Lazy.force ctx.noload in
  let weights =
    if c.Config.fit_cost then
      Analysis.Cost.fit
        (Analysis.Cost.measure ~pool_size:ctx.target.Target.pool_size (Lazy.force ctx.events))
    else Analysis.Cost.static_weights
  in
  Analysis.Opt.optimize
    ?invariants:(Option.map (fun s -> s.Analysis.Static.invariants) static_r)
    ?absint:absint_a ~weights ~support:c.Config.invariant_support
    ~confidence:c.Config.invariant_confidence ~eadr:c.Config.eadr
    ~oracle:(image_oracle c ctx.target) ~points:(Fault_injection.offline_points c) noload

(* Instrumented execution(s), failure-point tree and injection, with the
   trace analysis fed the same event stream. Returns the injection result,
   the device counters of the instrumented run and, under [Replay], the
   confirmed prune nominees. *)
let inject_phase ctx ta ?priority ?skip ~nominees () =
  let c = ctx.config and target = ctx.target in
  let ta_feed event _stack = Trace_analysis.feed ta event in
  match c.Config.strategy with
  | Config.Snapshot ->
      (* the snapshot strategy's single execution also produced the trace;
         its device counters are the real store/flush/fence totals *)
      Telemetry.Progress.phase "inject";
      let fi, stats =
        span "fault_injection" (fun () ->
            Fault_injection.inject_snapshot ~extra_listener:ta_feed c target)
      in
      (fi, stats, [])
  | Config.Reexecute ->
      Telemetry.Progress.phase "build-tree";
      let tree, stats =
        span "build_tree" (fun () -> Fault_injection.build_tree ~extra_listener:ta_feed c target)
      in
      Telemetry.Progress.set_total (Fp_tree.size tree);
      Telemetry.Progress.phase "inject";
      ( span "injection" (fun () ->
            Fault_injection.inject_reexecute ?priority ?skip c target tree),
        stats,
        [] )
  | Config.Replay ->
      (* Replay-first: the shared recording stands in for every live
         execution — the trace analysis reads the recorded events (the same
         stream the live strategies feed it), the failure-point tree is
         rebuilt offline, and crash images stream out of one batched
         materialization pass per worker. *)
      let r = Lazy.force ctx.noload in
      List.iter (Trace_analysis.feed ta) (Lazy.force ctx.events);
      Telemetry.Progress.phase "inject";
      let fi, confirmed =
        span "injection" (fun () ->
            Fault_injection.inject_replay ~nominees c target ~recording:r
              ~points:(Lazy.force ctx.points))
      in
      (fi, Pmtrace.Replay.stats r, confirmed)

(* Attach stacks to trace findings. Under [Replay] the recording already
   carries a stack on every event, so they are read off it for free; the
   live strategies pay one extra minimal execution. *)
let resolve_phase ctx raw =
  let wanted = List.map (fun r -> r.Trace_analysis.seq) raw in
  match ctx.config.Config.strategy with
  | Config.Replay ->
      let want = Fault_injection.member_of wanted in
      let resolved = Hashtbl.create (List.length wanted) in
      if wanted <> [] then
        List.iter
          (fun (e : Pmtrace.Event.t) ->
            if want e.Pmtrace.Event.seq then
              Option.iter (Hashtbl.replace resolved e.Pmtrace.Event.seq) e.Pmtrace.Event.stack)
          (Lazy.force ctx.events);
      resolved
  | Config.Reexecute | Config.Snapshot -> resolve_stacks ctx.target ~wanted

(* Provenance reads trace windows and image diffs off the shared
   recording, and the ledger keys the run on its event digest, when the
   recording stands in for the live run: under [Replay], or when a
   replay-backed phase (absint, prune, lint, fix verification, optimizer)
   ran — each of which has made the recording by now. The static miner
   reads only events, so a live-strategy run whose one offline phase is
   the miner keeps a live run's witness-and-verdict evidence. *)
let replay_backed (c : Config.t) =
  c.Config.strategy = Config.Replay || c.Config.absint || c.Config.prune || c.Config.lint
  || c.Config.verify_fixes || c.Config.optimize

let trace_signature ctx ta (stats : Pmem.Stats.t) =
  if replay_backed ctx.config then begin
    let buf = Buffer.create 4096 in
    List.iter
      (fun (e : Pmtrace.Event.t) ->
        Buffer.add_string buf (Pmem.Op.to_string e.Pmtrace.Event.op);
        Buffer.add_char buf '\n')
      (Lazy.force ctx.events);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  end
  else
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s#%d#%d#%d#%d" ctx.target.Target.name (Trace_analysis.event_count ta)
            stats.Pmem.Stats.stores (Pmem.Stats.flushes stats) (Pmem.Stats.fences stats)))

(* Causal evidence per finding, in report order. With the recording, the
   trace windows and the crash-vs-recovered image diffs are read off it by
   offline rematerialization, which costs recoveries but never a target
   execution; without it the evidence degrades to witness and verdict. *)
let provenance_phase ctx fi =
  let replayed = replay_backed ctx.config in
  let events = if replayed then Some (Array.of_list (Lazy.force ctx.events)) else None in
  let index_of_seq =
    lazy
      (let tbl = Hashtbl.create 256 in
       Option.iter
         (Array.iteri (fun i (e : Pmtrace.Event.t) -> Hashtbl.replace tbl e.Pmtrace.Event.seq i))
         events;
       tbl)
  in
  let window_at anchor_index =
    match events with
    | None -> []
    | Some evs when anchor_index < 0 || anchor_index >= Array.length evs -> []
    | Some evs ->
        let lo = max 0 (anchor_index - Provenance.window_radius) in
        let hi = min (Array.length evs - 1) (anchor_index + Provenance.window_radius) in
        List.init
          (hi - lo + 1)
          (fun k ->
            let i = lo + k in
            let e = evs.(i) in
            Printf.sprintf "%c #%d %s"
              (if i = anchor_index then '>' else ' ')
              e.Pmtrace.Event.seq
              (Pmem.Op.to_string e.Pmtrace.Event.op))
  in
  (* persistency index of each failure-point ordinal, read off the
     recording — the same enumeration the offline phases use *)
  let pseq_of_ordinal = Hashtbl.create 64 in
  if replayed then
    List.iter
      (fun (ordinal, pseq, _) -> Hashtbl.replace pseq_of_ordinal ordinal pseq)
      (Lazy.force ctx.points);
  let fi_bugs = Fault_injection.bug_records fi in
  (* Crash-vs-recovered image diff per oracle-flagged point: the crash
     image is rematerialized from the recording in one batched pass,
     snapshotted, recovered in place, and diffed against the persisted
     result at cache-line granularity. *)
  let diffs : (int, Provenance.image_diff) Hashtbl.t = Hashtbl.create 8 in
  if replayed && fi_bugs <> [] then begin
    let wanted =
      List.filter_map
        (fun (rc : Fault_injection.record) ->
          let ordinal = rc.Fault_injection.point.Fp_tree.ordinal in
          Option.map (fun pseq -> (ordinal, pseq)) (Hashtbl.find_opt pseq_of_ordinal ordinal))
        fi_bugs
    in
    ignore
      (Pmtrace.Replay.materialize (Lazy.force ctx.noload) ~points:wanted ~f:(fun ~key image ->
           let crash = Pmem.Image.snapshot image in
           let device = Pmem.Device.adopt ~eadr:ctx.config.Config.eadr image in
           ignore (Oracle.classify ctx.target.Target.recover device);
           let recovered = Pmem.Device.persisted_image device in
           Hashtbl.replace diffs key (Provenance.image_diff ~crash ~recovered)))
  end;
  let fi_evidence = Hashtbl.create 16 in
  List.iter
    (fun (rc : Fault_injection.record) ->
      let p = rc.Fault_injection.point in
      Hashtbl.replace fi_evidence (Pmtrace.Callstack.capture_to_string p.Fp_tree.capture) rc)
    fi_bugs;
  List.map
    (fun (f : Report.finding) ->
      let signature = Report.finding_signature f in
      let stack =
        Option.map
          (fun (c : Pmtrace.Callstack.capture) ->
            (c.Pmtrace.Callstack.path, c.Pmtrace.Callstack.op_index))
          f.Report.stack
      in
      let fi_record =
        match (f.Report.phase, f.Report.stack) with
        | Report.Fault_injection, Some c ->
            Hashtbl.find_opt fi_evidence (Pmtrace.Callstack.capture_to_string c)
        | _ -> None
      in
      let failure_point =
        Option.map
          (fun (rc : Fault_injection.record) ->
            let p = rc.Fault_injection.point in
            {
              Provenance.fp_path = p.Fp_tree.capture.Pmtrace.Callstack.path;
              fp_op_index = p.Fp_tree.capture.Pmtrace.Callstack.op_index;
              fp_ordinal = p.Fp_tree.ordinal;
              fp_pseq = Hashtbl.find_opt pseq_of_ordinal p.Fp_tree.ordinal;
            })
          fi_record
      in
      let anchor_index =
        match (failure_point, f.Report.seq) with
        | Some { Provenance.fp_pseq = Some pseq; _ }, _ ->
            (* load-free recording: pseq = 1-based event position *)
            Some (pseq - 1)
        | _, Some seq -> (
            match Hashtbl.find_opt (Lazy.force index_of_seq) seq with
            | Some i -> Some i
            | None -> Some (seq - 1))
        | _ -> None
      in
      let window = match anchor_index with Some i -> window_at i | None -> [] in
      let witness, verdict =
        match fi_record with
        | Some rc ->
            let o = Oracle.to_string rc.Fault_injection.oracle in
            (o, Some o)
        | None -> (f.Report.detail, Report.annotation ctx.report f)
      in
      {
        Provenance.p_finding = Provenance.id_of_signature signature;
        p_signature = signature;
        p_kind = Report.kind_to_string f.Report.kind;
        p_phase = Report.phase_to_string f.Report.phase;
        p_detail = f.Report.detail;
        p_stack = stack;
        p_seq = f.Report.seq;
        p_failure_point = failure_point;
        p_window = window;
        p_witness = witness;
        p_verdict = verdict;
        p_fix = Option.map Analysis.Fix.to_string f.Report.fix;
        p_image_diff =
          Option.bind fi_record (fun (rc : Fault_injection.record) ->
              Hashtbl.find_opt diffs rc.Fault_injection.point.Fp_tree.ordinal);
      })
    (Report.ordered ctx.report)

let analyze ?config:(c = Config.default) (target : Target.t) =
  let ctx = context c target in
  let ta = Trace_analysis.create c in
  (* the offline phases, each over the shared recordings *)
  let static_out, sa_metrics =
    optional c.Config.static ~progress:"static" "static_analysis" (fun () -> static_phase ctx)
  in
  let static_r = Option.map fst static_out in
  let absint_a, absint_metrics =
    optional (c.Config.absint || c.Config.prune) ~progress:"absint" "absint" (fun () ->
        absint_phase ctx)
  in
  let prune, prune_metrics =
    match absint_a with
    | Some a when c.Config.prune && c.Config.strategy <> Config.Snapshot ->
        optional true ~progress:"prune" "prune" (fun () -> prune_phase ctx a)
    | Some _ | None -> (None, Metrics.zero)
  in
  let ai_metrics = Metrics.add absint_metrics prune_metrics in
  let lint_out, lv_metrics =
    optional (c.Config.lint || c.Config.verify_fixes) ~progress:"lint" "lint" (fun () ->
        lint_phase ctx static_r)
  in
  let lint_r = Option.map fst lint_out and fix_verdicts = Option.bind lint_out snd in
  let opt_r, opt_metrics =
    optional c.Config.optimize ~progress:"optimize" "optimize" (fun () ->
        optimize_phase ctx ~static_r ~absint_a)
  in
  (* instrumented execution(s), failure-point tree, injection *)
  let skip, nominees =
    match prune with
    | Some (Plan plan) -> (Some plan.Analysis.Prune.skip, [])
    | Some (Deferred ns) ->
        ( None,
          List.filter_map
            (fun (n : Analysis.Prune.nomination) ->
              if n.Analysis.Prune.n_proven then Some n.Analysis.Prune.n_ordinal else None)
            ns )
    | None -> (None, [])
  in
  let (fi, pm_stats, replay_confirmed), fi_phase =
    Metrics.measure
      (inject_phase ctx ta ?priority:(Option.bind static_out snd) ?skip ~nominees)
  in
  (* Under [Replay] the prune plan is decided by the injection pass itself:
     a proven nominee is confirmed iff its streamed oracle outcome was
     consistent (and its record was elided there). *)
  let prune_plan =
    match prune with
    | Some (Plan plan) -> Some plan
    | Some (Deferred ns) ->
        Some (Analysis.Prune.decide ~confirmed:(Fault_injection.member_of replay_confirmed) ns)
    | None -> None
  in
  Option.iter
    (fun plan ->
      Telemetry.Collector.count "absint.proven_safe" plan.Analysis.Prune.proven;
      Telemetry.Collector.count "absint.skipped" (List.length plan.Analysis.Prune.skip);
      Telemetry.Collector.count "absint.confirm_rejected" plan.Analysis.Prune.rejected)
    prune_plan;
  (* GC counters are domain-local: fold what the injection workers
     allocated into the phase total measured on this domain. *)
  let fi_metrics = Metrics.absorb_workers fi_phase fi.Fault_injection.worker_metrics in
  let raw, ta_metrics =
    Telemetry.Progress.phase "trace-analysis";
    Metrics.measure (fun () -> span "trace_analysis" (fun () -> Trace_analysis.finish ta))
  in
  let resolved =
    if not c.Config.resolve_stacks then Hashtbl.create 0
    else begin
      Telemetry.Progress.phase "resolve-stacks";
      span "resolve_stacks" (fun () -> resolve_phase ctx raw)
    end
  in
  (* Combine: fault-injection bugs first, then static, abstract and lint
     findings (so the fix-carrying version of a finding wins deduplication
     against its trace-analysis twin — the report key is kind + code path,
     phase-blind by design), then trace-analysis findings. *)
  add_findings ctx of_oracle (Fault_injection.bug_records fi);
  Option.iter (fun s -> add_findings ctx of_static s.Analysis.Static.findings) static_r;
  Option.iter (fun a -> add_findings ctx of_absint a.Analysis.Absint.findings) absint_a;
  if c.Config.lint then
    Option.iter (fun l -> add_findings ctx of_lint l.Analysis.Lint.findings) lint_r;
  add_findings ctx (of_trace resolved) raw;
  (* Attach the replay-backed verdicts to the findings whose fixes they
     judged (an annotation side-table: arrives post-dedup, leaves the
     report signature untouched). *)
  Option.iter
    (fun v ->
      List.iter
        (fun (o : Analysis.Verify_fix.outcome) ->
          let fix = o.Analysis.Verify_fix.o_candidate.Analysis.Verify_fix.c_fix in
          Option.iter
            (fun finding ->
              Report.annotate ctx.report finding
                (Analysis.Verify_fix.verdict_to_string o.Analysis.Verify_fix.o_verdict
                ^ " — " ^ o.Analysis.Verify_fix.o_detail))
            (Hashtbl.find_opt ctx.fixes (Analysis.Fix.key fix)))
        v.Analysis.Verify_fix.outcomes)
    fix_verdicts;
  let trace_signature = trace_signature ctx ta pm_stats in
  let provenance = provenance_phase ctx fi in
  let result =
    {
      report = ctx.report;
      failure_points = Fp_tree.size fi.Fault_injection.tree;
      injections = List.length fi.Fault_injection.records;
      executions =
        fi.Fault_injection.executions
        + (if c.Config.resolve_stacks && c.Config.strategy <> Config.Replay then 1 else 0)
        + !(ctx.recordings);
      trace_events = Trace_analysis.event_count ta;
      pm_stats;
      metrics =
        Metrics.sum [ fi_metrics; ta_metrics; sa_metrics; lv_metrics; ai_metrics; opt_metrics ];
      fi_metrics;
      ta_metrics;
      sa_metrics;
      static = static_r;
      absint = Option.map (fun a -> { analysis = a; prune = prune_plan }) absint_a;
      ai_metrics;
      lint = lint_r;
      fix_verdicts;
      opt = opt_r;
      opt_metrics;
      first_bug_injection = Fault_injection.injections_to_first_bug fi;
      worker_metrics = fi.Fault_injection.worker_metrics;
      trace_signature;
      provenance;
    }
  in
  (* Pipeline-level counters, so the exported telemetry is a self-contained
     record of the run ("trace.events" — raw events across all executions —
     comes from the tracer itself). *)
  Telemetry.Collector.count "fp.discovered" result.failure_points;
  Telemetry.Collector.count "injections" result.injections;
  Telemetry.Collector.count "executions" result.executions;
  Telemetry.Collector.count "ta.events" result.trace_events;
  Telemetry.Collector.count "pm.stores" pm_stats.Pmem.Stats.stores;
  Telemetry.Collector.count "pm.flushes" (Pmem.Stats.flushes pm_stats);
  Telemetry.Collector.count "pm.fences" (Pmem.Stats.fences pm_stats);
  Telemetry.Progress.finish ();
  result

let pp_result ppf (r : result) =
  Fmt.pf ppf "%a@.failure points: %d, injections: %d, executions: %d, trace events: %d@.%a@."
    Report.pp r.report r.failure_points r.injections r.executions r.trace_events Metrics.pp
    r.metrics;
  (match r.absint with
  | Some a -> (
      Fmt.pf ppf "%a@." Analysis.Absint.pp a.analysis;
      match a.prune with
      | Some plan -> Fmt.pf ppf "%a@." Analysis.Prune.pp plan
      | None -> ())
  | None -> ());
  (match r.lint with
  | Some l ->
      Fmt.pf ppf
        "lint: %d finding(s) over %d epoch(s) — %d redundant flush(es), %d redundant \
         fence(s), %d missing-flush spot(s); est. %d cycles / %d events saved@."
        (List.length l.Analysis.Lint.findings)
        l.Analysis.Lint.epochs l.Analysis.Lint.redundant_flushes
        l.Analysis.Lint.redundant_fences l.Analysis.Lint.missing_flush_spots
        l.Analysis.Lint.cycles_saved l.Analysis.Lint.events_saved
  | None -> ());
  (match r.fix_verdicts with
  | Some v ->
      Fmt.pf ppf "fix verdicts: proven=%d ineffective=%d harmful=%d (%d replays)@."
        v.Analysis.Verify_fix.proven v.Analysis.Verify_fix.ineffective
        v.Analysis.Verify_fix.harmful v.Analysis.Verify_fix.replays
  | None -> ());
  (match r.opt with
  | Some o ->
      Fmt.pf ppf
        "optimizer: %d plan(s) synthesized, %d verified: proven=%d ineffective=%d harmful=%d \
         (%d replays; baseline %d events / %d cycles, %s weights)@."
        o.Analysis.Opt.synthesized o.Analysis.Opt.verified o.Analysis.Opt.proven
        o.Analysis.Opt.ineffective o.Analysis.Opt.harmful o.Analysis.Opt.replays
        o.Analysis.Opt.baseline_events o.Analysis.Opt.baseline_cycles
        o.Analysis.Opt.weights.Analysis.Cost.w_source;
      List.iter
        (fun b -> Fmt.pf ppf "  %a@." Analysis.Opt.pp_bundle b)
        o.Analysis.Opt.bundles
  | None -> ());
  match r.worker_metrics with
  | [] -> ()
  | workers ->
      List.iteri (fun i m -> Fmt.pf ppf "  worker %d: %a@." i Metrics.pp m) workers
