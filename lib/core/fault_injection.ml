(** Fault injection (paper section 4.1): crash the workload once per unique
    failure point, run the application's own recovery on the resulting
    program-order-prefix image, and report the states recovery cannot
    handle.

    A failure point is a persistency instruction (flush or fence) reached
    through a unique call stack, and only counts if at least one PM store
    happened since the previous failure point (equivalent post-failure
    states are skipped). The [Store_level] granularity — every store is a
    failure point — exists for the ablation study and mirrors what
    XFDetector-style tools pay. *)

type record = {
  point : Fp_tree.point;
  oracle : Oracle.outcome;
}

type result = {
  tree : Fp_tree.t;
  records : record list; (* sorted by failure-point ordinal *)
  executions : int; (* workload executions performed *)
  injection_order : int list;
      (* failure-point ordinals in the order faults were actually injected;
         equals ordinal order for the unprioritized loop *)
  worker_metrics : Metrics.t list;
      (* per-worker-domain resource usage of the parallel injection phase;
         empty for the sequential loop and the snapshot strategy *)
}

exception Crash_now

(* The failure-point detector: a stateful predicate over the op stream that
   fires at every failure point, honouring granularity and the store-since
   guard. The live listener and the offline enumerator both run it. *)
let fp_detector granularity =
  let stores_since = ref 0 in
  fun (op : Pmem.Op.t) ->
    match (op, granularity) with
    | Pmem.Op.Load _, _ -> false
    | Pmem.Op.Store _, _ ->
        incr stores_since;
        granularity = Config.Store_level
    | (Pmem.Op.Flush _ | Pmem.Op.Fence _), Config.Persistency_instruction ->
        !stores_since > 0
        && begin
             stores_since := 0;
             true
           end
    | (Pmem.Op.Flush _ | Pmem.Op.Fence _), Config.Store_level -> false

let fp_listener ~granularity ~on_fp =
  let is_fp = fp_detector granularity in
  fun (event : Pmtrace.Event.t) stack ->
    if is_fp event.Pmtrace.Event.op then on_fp (Pmtrace.Callstack.capture stack)

(** Offline replay of the failure-point detector over a recorded trace
    (events must carry stacks, i.e. come from a [with_stacks] tracer).
    Returns [(ordinal, pseq, capture)] triples: the discovery ordinal of
    each unique failure point, the persistency index (count of non-[Load]
    events) of its first dynamic occurrence, and the call-stack capture it
    fires under. Because this runs the live detector and
    [Fp_tree.insert], the ordinals coincide with the ones {!build_tree}
    assigns on a live execution of the same workload — which is what lets
    {!Prioritize} scores computed offline address the live tree. *)
let offline_points config (events : Pmtrace.Event.t list) =
  let tree = Fp_tree.create () in
  let is_fp = fp_detector config.Config.granularity in
  let points = ref [] in
  let pseq = ref 0 in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      (match e.Pmtrace.Event.op with Pmem.Op.Load _ -> () | _ -> incr pseq);
      if is_fp e.Pmtrace.Event.op then
        match e.Pmtrace.Event.stack with
        | Some capture -> (
            match Fp_tree.insert tree capture with
            | `Added p -> points := (p.Fp_tree.ordinal, !pseq, capture) :: !points
            | `Existing _ -> ())
        | None -> ())
    events;
  List.rev !points

(* One live execution of the target on a fresh device; [listener device]
   sees every PM instruction with the live call stack. Returns the
   device. *)
let execute config (target : Target.t) listener =
  let device = Pmem.Device.create ~eadr:config.Config.eadr ~size:target.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create ~collect:false device in
  Pmtrace.Tracer.add_listener tracer (listener device);
  Fun.protect
    ~finally:(fun () -> Pmtrace.Tracer.detach tracer)
    (fun () ->
      target.Target.run ~device
        ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer)));
  device

(** Build the failure-point tree with one instrumented execution (steps 4-5
    of Figure 1). [extra_listener] lets the engine run the trace-analysis
    feed on the same execution. *)
let build_tree ?(extra_listener = fun _ _ -> ()) config (target : Target.t) =
  let tree = Fp_tree.create () in
  let detect =
    fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
        ignore (Fp_tree.insert tree capture))
  in
  let device =
    execute config target (fun _ event stack ->
        extra_listener event stack;
        detect event stack)
  in
  (tree, Pmem.Device.stats device)

(* One injection execution: crash at the first unvisited failure point —
   or, given [ordinal], at the first dynamic occurrence of that point.
   Because ordinals are assigned in discovery order, a targeted crash hits
   the same occurrence — hence the same program-prefix image — the
   untargeted loop crashes at when that point's turn comes, which is why
   prioritization can only reorder findings, never change them. Returns the
   injected point and its crash image, or None if no wanted point was
   reached. *)
let reexecute ?ordinal config (target : Target.t) tree =
  let args = Option.to_list (Option.map (fun o -> ("ordinal", Telemetry.Json.Int o)) ordinal) in
  Telemetry.Collector.span ~cat:"inject" ~hist:"injection_exec_ns" ~args "exec" @@ fun () ->
  let wanted (point : Fp_tree.point) =
    (not point.Fp_tree.visited)
    && match ordinal with Some o -> point.Fp_tree.ordinal = o | None -> true
  in
  let injected = ref None in
  let listener device =
    fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
        if !injected = None then
          match Fp_tree.find tree capture with
          | Some point when wanted point ->
              point.Fp_tree.visited <- true;
              (* the image is captured here, before the crash unwinds, so
                 cleanup code cannot pollute the post-failure state *)
              injected :=
                Some
                  ( point,
                    Telemetry.Collector.span ~cat:"inject" ~hist:"crash_image_ns"
                      ~args:[ ("ordinal", Telemetry.Json.Int point.Fp_tree.ordinal) ]
                      "crash_image" (fun () ->
                        Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix) );
              raise Crash_now
          | Some _ | None -> ())
  in
  (try ignore (execute config target listener) with
  | Crash_now -> ()
  | Fun.Finally_raised Crash_now -> ()
  | _ when !injected <> None ->
      (* unwinding code (e.g. a transaction abort) may fail after the
         simulated crash; the run is over either way *)
      ());
  !injected

(* Recover one crash image under the oracle and record the outcome. Every
   image reaching here — a live crash snapshot or a materialized
   copy-on-write view — is owned by the caller alone, so recovery runs on
   it directly ([adopt]): no pool copy per point. *)
let judge config (target : Target.t) point image =
  let oracle =
    Telemetry.Collector.span ~cat:"inject" ~hist:"oracle_ns" "oracle"
      ~args:[ ("ordinal", Telemetry.Json.Int point.Fp_tree.ordinal) ]
      (fun () ->
        Oracle.classify target.Target.recover
          (Pmem.Device.adopt ~eadr:config.Config.eadr image))
  in
  Telemetry.Progress.tick ~bug:(Oracle.is_bug oracle) ();
  { point; oracle }

(* Drive the injection loop over [tree] until every leaf is visited or an
   execution makes no progress. Returns records in execution order. *)
let reexecute_loop config (target : Target.t) tree =
  let records = ref [] and executions = ref 0 in
  let continue_ = ref true in
  while !continue_ && Fp_tree.unvisited_count tree > 0 do
    incr executions;
    match reexecute config target tree with
    | None -> continue_ := false (* nondeterminism guard: no progress *)
    | Some (point, image) -> records := judge config target point image :: !records
  done;
  (List.rev !records, !executions)

(* Inject in the order given by [order] (failure-point ordinals), then sweep
   any leaves the priority list missed (or that were not reached by their
   targeted execution) with the standard loop. Returns records in injection
   order. *)
let reexecute_priority config (target : Target.t) tree order =
  let by_ordinal = Hashtbl.create 64 in
  Fp_tree.iter tree (fun p -> Hashtbl.replace by_ordinal p.Fp_tree.ordinal p);
  let records = ref [] and executions = ref 0 in
  List.iter
    (fun ordinal ->
      match Hashtbl.find_opt by_ordinal ordinal with
      | Some p when not p.Fp_tree.visited -> (
          incr executions;
          match reexecute ~ordinal config target tree with
          | None ->
              (* nondeterminism: the point was not reached this run *)
              Telemetry.Collector.count "fp.unreached" 1
          | Some (point, image) -> records := judge config target point image :: !records)
      | Some _ | None -> ())
    order;
  let stragglers, extra = reexecute_loop config target tree in
  (List.rev !records @ stragglers, !executions + extra)

let member_of keys =
  let set = Hashtbl.create (max 16 (List.length keys)) in
  List.iter (fun k -> Hashtbl.replace set k ()) keys;
  Hashtbl.mem set

(* [work w] on worker domain [w] of [jobs], each with its resource usage. *)
let on_workers jobs work =
  List.map Domain.join (List.init jobs (fun w -> Domain.spawn (fun () -> Metrics.measure (work w))))

let ordinals_of records = List.map (fun r -> r.point.Fp_tree.ordinal) records

(* The deterministic-merge rule: reports are ordered by failure-point
   discovery ordinal, so the result is identical regardless of how the
   leaves were scheduled over workers. *)
let sort_records =
  List.sort (fun a b -> compare a.point.Fp_tree.ordinal b.point.Fp_tree.ordinal)

(* A result from records given in injection order. *)
let result_of tree ~executions ?(worker_metrics = []) records =
  {
    tree;
    records = sort_records records;
    executions;
    injection_order = ordinals_of records;
    worker_metrics;
  }

(* Each worker owns a private copy of the tree (rebuilt from the serialized
   form, which preserves ordinals) with every leaf outside its round-robin
   share pre-marked visited, so the standard loop only injects its own
   assignment. Workers share no mutable state: each execution creates its
   own device and tracer, and the ambient framer/transaction state is
   domain-local. *)
let inject_parallel ?priority ?(skip = []) config (target : Target.t) tree ~jobs =
  let serialized = Fp_tree.serialize tree in
  (* Without a priority, leaves are partitioned round-robin by ordinal.
     With one, they are partitioned round-robin by *rank* in the priority
     order, so every worker starts on high-priority points. *)
  let shares =
    match priority with
    | None -> None
    | Some order ->
        Some
          (List.init jobs (fun w ->
               List.filteri (fun rank _ -> rank mod jobs = w) order))
  in
  let skipped = member_of skip in
  let results =
    on_workers jobs (fun w () ->
        let local = Fp_tree.deserialize serialized in
        (* Serialization does not carry visit state: pruned leaves must be
           re-marked on each worker's private tree. *)
        Fp_tree.iter local (fun p -> if skipped p.Fp_tree.ordinal then p.Fp_tree.visited <- true);
        match shares with
        | None ->
            Fp_tree.iter local (fun p ->
                if p.Fp_tree.ordinal mod jobs <> w then p.Fp_tree.visited <- true);
            reexecute_loop config target local
        | Some shares ->
            let mine = List.nth shares w in
            let is_mine = member_of mine in
            Fp_tree.iter local (fun p ->
                if not (is_mine p.Fp_tree.ordinal) then p.Fp_tree.visited <- true);
            reexecute_priority config target local mine)
  in
  let worker_metrics = List.map snd results in
  (* Re-anchor worker records on the master tree's points (the worker trees
     are projections of it) and mark the master leaves visited. *)
  let records =
    List.concat_map
      (fun ((recs, _), _) ->
        List.map
          (fun r ->
            match Fp_tree.find tree r.point.Fp_tree.capture with
            | Some master ->
                master.Fp_tree.visited <- true;
                { r with point = master }
            | None -> assert false)
          recs)
      results
  in
  let executions = List.fold_left (fun acc ((_, e), _) -> acc + e) 0 results in
  (* The logical injection order of the merged schedule: priority rank when
     prioritized (each worker drains its share in rank order), discovery
     ordinal otherwise. *)
  let r = result_of tree ~executions ~worker_metrics records in
  match priority with
  | Some order -> { r with injection_order = List.filter (member_of r.injection_order) order }
  | None -> { r with injection_order = List.sort compare r.injection_order }

(** The paper's injection loop: re-execute the workload until every leaf of
    the tree is visited, injecting one fault per execution (steps 6-9 of
    Figure 1, [Config.Reexecute]). With [Config.jobs > 1] the loop runs on
    that many worker domains — each fault injection is an independent
    re-execution, so the leaves are partitioned round-robin by ordinal and
    the per-worker records merged back in ordinal order, making the result
    byte-for-byte identical to the sequential schedule. [skip] lists the
    ordinals of failure points proven safe offline ({!Analysis.Prune}):
    they are marked visited up front and never injected. *)
let inject_reexecute ?priority ?(skip = []) config (target : Target.t) tree =
  let skipped = member_of skip in
  Fp_tree.iter tree (fun p -> if skipped p.Fp_tree.ordinal then p.Fp_tree.visited <- true);
  (* never spawn more domains than there are leaves to inject *)
  let jobs = max 1 (min config.Config.jobs (max 1 (Fp_tree.size tree))) in
  if jobs = 1 then
    let records, executions =
      match priority with
      | None -> reexecute_loop config target tree
      | Some order -> reexecute_priority config target tree order
    in
    result_of tree ~executions records
  else inject_parallel ?priority ~skip config target tree ~jobs

(** Replay-first injection ([Config.Replay], the default): rebuild the
    failure-point tree offline from the shared recording, materialize every
    point's crash image in one batched prefix-incremental replay pass per
    worker ({!Pmtrace.Replay.materialize}), and stream the recovery oracle
    over the images — no image is ever retained and the target is never
    re-executed on the replayed path. [nominees] lists the ordinals the
    abstract fixpoint proved safe ({!Analysis.Prune}): a nominee whose
    oracle outcome is [Consistent] is {e confirmed} — its record, known to
    contribute no finding, is elided. This is the prune confirmation under
    this strategy: every point's oracle outcome is computed anyway, so
    pruning costs nothing extra. Points the replay pass cannot reach
    (nondeterminism with respect to the recording) fall back to one live
    targeted re-execution each. Returns the injection result plus the
    confirmed ordinals (sorted). *)
let inject_replay ?(nominees = []) config (target : Target.t) ~recording ~points =
  (* Re-inserting the captures in discovery order reproduces the ordinals
     [offline_points] reported — the same ordinals a live [build_tree]
     assigns on this deterministic workload. *)
  let tree = Fp_tree.create () in
  let pts =
    List.map
      (fun (ordinal, pseq, capture) ->
        match Fp_tree.insert tree capture with
        | `Added p ->
            assert (p.Fp_tree.ordinal = ordinal);
            (ordinal, pseq, p)
        | `Existing _ -> assert false)
      points
  in
  let by_ordinal = Hashtbl.create (max 16 (List.length pts)) in
  List.iter (fun (o, _, p) -> Hashtbl.replace by_ordinal o p) pts;
  (* One materialization pass over a share of the points: crash images
     stream straight into the oracle, so at most one image is live at a
     time. The recording is immutable and safely shared across domains. *)
  let materialize_share mine =
    let out = ref [] in
    let unreached =
      Pmtrace.Replay.materialize recording
        ~points:(List.map (fun (o, pseq, _) -> (o, pseq)) mine)
        ~f:(fun ~key image ->
          out := judge config target (Hashtbl.find by_ordinal key) image :: !out)
    in
    (List.rev !out, unreached)
  in
  let jobs = max 1 (min config.Config.jobs (max 1 (List.length pts))) in
  let replayed, unreached, worker_metrics =
    if jobs = 1 then
      let records, unreached = materialize_share pts in
      (records, unreached, [])
    else
      let results =
        on_workers jobs (fun w () ->
            materialize_share (List.filter (fun (o, _, _) -> o mod jobs = w) pts))
      in
      ( List.concat_map (fun ((recs, _), _) -> recs) results,
        List.concat_map (fun ((_, unr), _) -> unr) results,
        List.map snd results )
  in
  (* Visit state is committed on the spawning domain after the join. *)
  List.iter (fun r -> r.point.Fp_tree.visited <- true) replayed;
  (* Fallback: a point the recording never reached is injected live, one
     targeted re-execution each (expected never to fire on deterministic
     targets — the counter makes any divergence visible). *)
  let fallback_records = ref [] and fallback_execs = ref 0 in
  List.iter
    (fun ordinal ->
      Telemetry.Collector.count "fp.replay_fallback" 1;
      incr fallback_execs;
      match reexecute ~ordinal config target tree with
      | None -> Telemetry.Collector.count "fp.unreached" 1
      | Some (point, image) ->
          fallback_records := judge config target point image :: !fallback_records)
    (List.sort compare unreached);
  let all = replayed @ List.rev !fallback_records in
  let nominated = member_of nominees in
  let confirmed r =
    match r.oracle with
    | Oracle.Consistent -> nominated r.point.Fp_tree.ordinal
    | Oracle.Unrecoverable _ | Oracle.Crashed _ -> false
  in
  ( result_of tree ~executions:!fallback_execs ~worker_metrics
      (sort_records (List.filter (fun r -> not (confirmed r)) all)),
    List.sort compare (ordinals_of (List.filter confirmed all)) )

(** Simulator-only optimisation ([Config.Snapshot]): a single execution in
    which each new failure point immediately snapshots its crash image and
    runs recovery on the snapshot. Detects exactly the same bugs. Also returns
    the device counters of that execution — the real store/flush/fence
    totals of the instrumented run. *)
let inject_snapshot ?(extra_listener = fun _ _ -> ()) config (target : Target.t) =
  let tree = Fp_tree.create () in
  let records = ref [] in
  let listener device =
    let detect =
      fp_listener ~granularity:config.Config.granularity ~on_fp:(fun capture ->
        match Fp_tree.insert tree capture with
        | `Existing _ -> ()
        | `Added point ->
            point.Fp_tree.visited <- true;
            let image =
              Telemetry.Collector.span ~cat:"inject" ~hist:"crash_image_ns"
                ~args:[ ("ordinal", Telemetry.Json.Int point.Fp_tree.ordinal) ]
                "crash_image" (fun () ->
                  Pmem.Device.crash device ~policy:Pmem.Device.Program_prefix)
            in
            records := judge config target point image :: !records)
    in
    fun event stack ->
      extra_listener event stack;
      detect event stack
  in
  let device = execute config target listener in
  (result_of tree ~executions:1 (List.rev !records), Pmem.Device.stats device)

let bug_records result = List.filter (fun r -> Oracle.is_bug r.oracle) result.records

(** 1-based position in {!result.injection_order} of the first injection
    whose oracle flagged a bug, or [None] when no injection found one — the
    time-to-first-bug metric of the [bench prioritized] experiment. *)
let injections_to_first_bug result =
  let is_bug = member_of (ordinals_of (bug_records result)) in
  let rec scan i = function
    | [] -> None
    | o :: rest -> if is_bug o then Some i else scan (i + 1) rest
  in
  scan 1 result.injection_order
