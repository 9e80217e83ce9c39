(* Tests for the offline static analyzer (lib/analysis): dependency-graph
   structural properties over generated and recorded traces, trace
   serialization round-trips, the static-findings-vs-ground-truth
   differential, and the phase pipeline over one shared recording. *)

let wl ?(ops = 250) ?(key_range = 60) () = Targets.standard_workload ~ops ~key_range ()

let target_for ?version ?tx_mode name =
  match Pmapps.Registry.find name with
  | None -> Alcotest.failf "unknown app %s" name
  | Some (module A : Pmapps.Kv_intf.S) ->
      let version =
        match version with
        | Some v -> v
        | None ->
            if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
            else Pmalloc.Version.V1_12
      in
      Targets.of_app (module A) ~version ?tx_mode ~workload:(wl ()) ()

(* One fully instrumented, independent recording: stacks on every event,
   optional load tracing. The reference the engine's shared recordings are
   held to. *)
let record ?(loads = false) (target : Mumak.Target.t) =
  let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
  if loads then Pmem.Device.trace_loads device true;
  let tracer = Pmtrace.Tracer.create ~collect:true ~with_stacks:true device in
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  Pmtrace.Tracer.trace tracer

(* --- dependency-graph structural properties --- *)

let events_of_ops ops =
  List.mapi (fun i op -> { Pmtrace.Event.seq = i + 1; op; stack = None }) ops

(* a well-formed persist of slot [s]: store, flush its line, fence *)
let persist_ops slot =
  [
    Pmem.Op.Store { addr = slot * 8; size = 8; nt = false };
    Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot * 8 / 64; dirty = true; volatile = false };
    Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 1; pending_nt = 0 };
  ]

(* a messier block: lone stores, loads, clean flushes, empty fences *)
let block_ops (choice, slot) =
  match choice mod 5 with
  | 0 -> persist_ops slot
  | 1 -> [ Pmem.Op.Store { addr = slot * 8; size = 8; nt = false } ]
  | 2 -> [ Pmem.Op.Load { addr = slot * 8; size = 8 } ]
  | 3 ->
      [ Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = slot * 8 / 64; dirty = false; volatile = false } ]
  | _ -> [ Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 } ]

let prop_graph_check_synthetic =
  QCheck.Test.make ~name:"generated traces build structurally valid graphs" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_range 0 20) (int_range 0 50)))
    (fun blocks ->
      let g = Analysis.Dep_graph.build (events_of_ops (List.concat_map block_ops blocks)) in
      Analysis.Dep_graph.check g = [])

(* clflush persists its line at once: a window it captured, or one a clwb
   captured before it, is durable even when no fence ever follows, while a
   clwb-captured one alone still dangles *)
let test_graph_clflush_not_dangling () =
  let dangling flushes =
    let flush kind = Pmem.Op.Flush { kind; line = 0; dirty = true; volatile = false } in
    List.length
      (Analysis.Dep_graph.build
         (events_of_ops (Pmem.Op.Store { addr = 0; size = 8; nt = false } :: List.map flush flushes)))
        .Analysis.Dep_graph.dangling
  in
  Alcotest.(check int) "clflushed window is not dangling" 0 (dangling [ Pmem.Op.Clflush ]);
  Alcotest.(check int) "clwb then clflush: not dangling" 0
    (dangling [ Pmem.Op.Clwb; Pmem.Op.Clflush ]);
  Alcotest.(check int) "clwb-captured window still dangles" 1 (dangling [ Pmem.Op.Clwb ])

(* An NT store bypasses the cache: it persists at the fence in a window
   of its own and leaves the line's earlier cached store dirty. *)
let test_nt_store_leaves_cached_store_dirty () =
  let events =
    Pmtrace.Replay.normalize_events ~pool_size:4096
      (events_of_ops
         [
           Pmem.Op.Store { addr = 0; size = 8; nt = false };
           Pmem.Op.Store { addr = 8; size = 8; nt = true };
           Pmem.Op.Fence { kind = Pmem.Op.Sfence; pending_flushes = 0; pending_nt = 0 };
         ])
  in
  let g = Analysis.Dep_graph.build events in
  Alcotest.(check (list (pair int (option int))))
    "one NT persist" [ (1, None) ]
    (List.map
       (fun (n : Analysis.Dep_graph.node) -> (n.Analysis.Dep_graph.store_count, n.Analysis.Dep_graph.flush))
       (Array.to_list g.Analysis.Dep_graph.nodes));
  Alcotest.(check (list (pair int int)))
    "the cached store dangles" [ (0, 1) ]
    (List.map
       (fun (d : Analysis.Dep_graph.dangling) ->
         (d.Analysis.Dep_graph.d_line, d.Analysis.Dep_graph.d_first_store_p))
       g.Analysis.Dep_graph.dangling);
  let s =
    Analysis.Static.analyze ~support:3 ~confidence:0.9 ~eadr:false [ (events, events) ]
  in
  Alcotest.(check (list string))
    "static reports it" [ "transient" ]
    (List.map
       (fun (f : Analysis.Static.finding) -> Analysis.Static.kind_to_string f.Analysis.Static.kind)
       s.Analysis.Static.findings)

let test_graph_check_recorded () =
  List.iter
    (fun name ->
      let trace = record ~loads:true (target_for name) in
      let g = Analysis.Dep_graph.build (Pmtrace.Trace.to_list trace) in
      Alcotest.(check (list string))
        (name ^ " recorded-trace graph passes structural checks")
        []
        (Analysis.Dep_graph.check g))
    [ "btree"; "hashmap_atomic" ]

let test_graph_epochs_monotone () =
  let trace = record ~loads:true (target_for "btree") in
  let g = Analysis.Dep_graph.build (Pmtrace.Trace.to_list trace) in
  let groups = Analysis.Dep_graph.epoch_groups g in
  let epochs = List.map fst groups in
  Alcotest.(check (list int)) "epoch groups ascend" (List.sort compare epochs) epochs;
  Alcotest.(check bool) "a real workload persists something" true (Array.length g.Analysis.Dep_graph.nodes > 0)

(* --- trace serialization --- *)

let test_trace_roundtrip_recorded () =
  List.iter
    (fun loads ->
      let trace = record ~loads (target_for "btree") in
      let trace' = Pmtrace.Trace.deserialize (Pmtrace.Trace.serialize trace) in
      Alcotest.(check int)
        (Printf.sprintf "length preserved (loads=%b)" loads)
        (Pmtrace.Trace.length trace) (Pmtrace.Trace.length trace');
      Alcotest.(check bool)
        (Printf.sprintf "events round-trip (loads=%b)" loads)
        true
        (List.for_all2
           (fun (a : Pmtrace.Event.t) b -> a = b)
           (Pmtrace.Trace.to_list trace) (Pmtrace.Trace.to_list trace')))
    [ false; true ]

let prop_trace_roundtrip_synthetic =
  QCheck.Test.make ~name:"synthetic event streams round-trip through serialization" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 20) (int_range 0 50)))
    (fun blocks ->
      let t = Pmtrace.Trace.create () in
      List.iter (Pmtrace.Trace.add t) (events_of_ops (List.concat_map block_ops blocks));
      Pmtrace.Trace.to_list (Pmtrace.Trace.deserialize (Pmtrace.Trace.serialize t))
      = Pmtrace.Trace.to_list t)

(* --- trace-analysis raw findings are unique per (kind, seq) --- *)

let prop_ta_findings_unique =
  QCheck.Test.make ~name:"trace-analysis raw findings are deduplicated by (kind, seq)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_range 0 20) (int_range 0 50)))
    (fun blocks ->
      let ta = Mumak.Trace_analysis.create Mumak.Config.default in
      List.iter
        (fun e -> Mumak.Trace_analysis.feed ta e)
        (events_of_ops (List.concat_map block_ops blocks));
      let raw = Mumak.Trace_analysis.finish ta in
      let keys =
        List.map (fun (r : Mumak.Trace_analysis.raw) -> (r.Mumak.Trace_analysis.kind, r.Mumak.Trace_analysis.seq)) raw
      in
      List.length keys = List.length (List.sort_uniq compare keys))

(* --- static findings vs ground truth --- *)

let static_config =
  (* smaller mining effort than the default profile: the tests re-analyze
     several targets and only need the subject run + one witness *)
  { Mumak.Config.faithful with Mumak.Config.static = true; invariant_runs = 2 }

let static_findings target =
  let r = Mumak.Engine.analyze ~config:static_config target in
  match r.Mumak.Engine.static with
  | None -> Alcotest.fail "static config produced no static result"
  | Some s -> (r, s.Analysis.Static.findings)

let test_static_clean_no_durability () =
  List.iter
    (fun name ->
      let _, findings = static_findings (target_for name) in
      let durability =
        List.filter (fun (f : Analysis.Static.finding) -> f.Analysis.Static.kind = Analysis.Static.Durability) findings
      in
      Alcotest.(check int)
        (name ^ ": clean build has no static durability findings")
        0 (List.length durability))
    [ "btree"; "hashmap_atomic" ]

let check_seeded_finding ~app ~bug ~kind () =
  Bugreg.with_enabled [ bug ] (fun () ->
      let _, findings = static_findings (target_for app) in
      match
        List.find_opt (fun (f : Analysis.Static.finding) -> f.Analysis.Static.kind = kind) findings
      with
      | None -> Alcotest.failf "%s: no static %s finding" bug (Analysis.Static.kind_to_string kind)
      | Some f -> (
          match f.Analysis.Static.fix with
          | None -> Alcotest.failf "%s: finding carries no fix suggestion" bug
          | Some fx ->
              Alcotest.(check bool)
                (bug ^ ": fix is anchored at a frame + ordinal")
                true
                (fx.Analysis.Fix.stack <> None)))

let test_static_seeded_durability () =
  check_seeded_finding ~app:"hashmap_atomic" ~bug:"hm_atomic_count_never_flushed"
    ~kind:Analysis.Static.Durability ()

let test_static_seeded_ordering () =
  check_seeded_finding ~app:"hashmap_atomic" ~bug:"hm_atomic_link_before_persist"
    ~kind:Analysis.Static.Ordering ()

let test_static_same_correctness_bugs () =
  (* the static phase must not change what fault injection + trace analysis
     prove: correctness bugs of the combined report are identical with and
     without it (static-only additions are warnings or fix-annotated
     duplicates of the same findings) *)
  List.iter
    (fun bug ->
      Bugreg.with_enabled [ bug ] (fun () ->
          let base = Mumak.Engine.analyze ~config:Mumak.Config.faithful (target_for "btree") in
          let stat = Mumak.Engine.analyze ~config:static_config (target_for "btree") in
          let kinds r =
            List.sort compare
              (List.map (fun (f : Mumak.Report.finding) -> Mumak.Report.kind_to_string f.Mumak.Report.kind)
                 (Mumak.Report.bugs r.Mumak.Engine.report))
          in
          Alcotest.(check (list string))
            (bug ^ ": correctness bugs unchanged by the static phase")
            (kinds base) (kinds stat)))
    [ "btree_insert_no_tx"; "btree_count_outside_tx" ]

(* --- the phase pipeline over one shared recording --- *)

let small_target name =
  match Pmapps.Registry.find name with
  | None -> Alcotest.failf "unknown app %s" name
  | Some (module A : Pmapps.Kv_intf.S) ->
      let version =
        if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
        else Pmalloc.Version.V1_12
      in
      Targets.of_app (module A) ~version ~workload:(wl ~ops:40 ~key_range:15 ()) ()

(* The static phase reads the run's shared recording pair replicated
   [invariant_runs] times; on a deterministic target that must equal the
   analyzer run over that many fresh, independent recordings. *)
let test_static_shared_recordings_match_fresh () =
  List.iter
    (fun (name, bugs) ->
      Bugreg.with_enabled bugs (fun () ->
          let target = small_target name in
          let config =
            { Mumak.Config.default with Mumak.Config.static = true; invariant_runs = 3 }
          in
          let reference =
            Analysis.Static.analyze ~support:config.Mumak.Config.invariant_support
              ~confidence:config.Mumak.Config.invariant_confidence ~eadr:false
              (List.init config.Mumak.Config.invariant_runs (fun _ ->
                   ( Pmtrace.Trace.to_list (record target),
                     Pmtrace.Trace.to_list (record ~loads:true target) )))
          in
          let r = Mumak.Engine.analyze ~config target in
          match r.Mumak.Engine.static with
          | None -> Alcotest.fail "static config produced no static result"
          | Some s ->
              Alcotest.(check int)
                (name ^ ": as many static findings as over fresh recordings")
                (List.length reference.Analysis.Static.findings)
                (List.length s.Analysis.Static.findings);
              Alcotest.(check bool)
                (name ^ ": static findings equal those over fresh recordings")
                true
                (s.Analysis.Static.findings = reference.Analysis.Static.findings)))
    [ ("btree", []); ("hashmap_atomic", [ "hm_atomic_link_before_persist" ]) ]

(* Small enough for every optional phase to run in well under a second. *)
let montage_target () =
  Targets.of_montage ~variant:`Buffered ~workload:(wl ~ops:10 ~key_range:8 ()) ()

let test_executions_pinned () =
  List.iter
    (fun (label, config, expected) ->
      let r = Mumak.Engine.analyze ~config (montage_target ()) in
      Alcotest.(check int) (label ^ ": executions") expected r.Mumak.Engine.executions)
    [
      ( "replay + static + verify_fixes",
        { Mumak.Config.default with Mumak.Config.static = true; verify_fixes = true },
        2 );
      ("optimizing", Mumak.Config.optimizing, 1);
      ("default", Mumak.Config.default, 1);
    ]

(* Every enabled phase emits exactly one ["phase"] span under its name, and
   a phase's metrics are [Metrics.zero] exactly when it is off. *)
let test_phase_spans_and_metrics () =
  let all_on =
    {
      Mumak.Config.optimizing with
      Mumak.Config.static = true;
      verify_fixes = true;
    }
  in
  List.iter
    (fun (label, config, phases) ->
      Telemetry.Collector.enable ();
      ignore (Telemetry.Collector.drain ());
      let r, dump =
        Fun.protect ~finally:Telemetry.Collector.disable (fun () ->
            let r = Mumak.Engine.analyze ~config (montage_target ()) in
            (r, Telemetry.Collector.drain ()))
      in
      let spans =
        List.filter_map
          (fun (s : Telemetry.Span.t) ->
            if s.Telemetry.Span.cat = "phase" then Some s.Telemetry.Span.name else None)
          dump.Telemetry.Collector.spans
      in
      Alcotest.(check (list string))
        (label ^ ": one phase span per enabled phase")
        (List.sort compare phases) (List.sort compare spans);
      let zero (m : Mumak.Metrics.t) = m = Mumak.Metrics.zero in
      let on name = List.mem name phases in
      List.iter
        (fun (metric, m, phase) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s zero iff %s off" label metric phase)
            (not (on phase)) (zero m))
        [
          ("sa_metrics", r.Mumak.Engine.sa_metrics, "static_analysis");
          ("ai_metrics", r.Mumak.Engine.ai_metrics, "absint");
          ("opt_metrics", r.Mumak.Engine.opt_metrics, "optimize");
          ("ta_metrics", r.Mumak.Engine.ta_metrics, "trace_analysis");
        ];
      Alcotest.(check bool) (label ^ ": fi_metrics nonzero") false (zero r.Mumak.Engine.fi_metrics))
    [
      ("default", Mumak.Config.default, [ "injection"; "trace_analysis"; "resolve_stacks" ]);
      ( "reexecute",
        Mumak.Config.faithful,
        [ "build_tree"; "injection"; "trace_analysis"; "resolve_stacks" ] );
      ( "snapshot",
        { Mumak.Config.default with Mumak.Config.strategy = Mumak.Config.Snapshot },
        [ "fault_injection"; "trace_analysis"; "resolve_stacks" ] );
      ( "every phase",
        all_on,
        [
          "static_analysis"; "absint"; "lint"; "optimize"; "injection"; "trace_analysis";
          "resolve_stacks";
        ] );
    ]

(* [prune] and [prioritize] survive in [Config.t] only as retired fields:
   a run that sets either must fail loudly rather than silently ignore it. *)
let test_retired_fields_rejected () =
  List.iter
    (fun (label, config) ->
      match Mumak.Engine.analyze ~config (montage_target ()) with
      | _ -> Alcotest.failf "%s = true: analyze accepted a retired field" label
      | exception Invalid_argument _ -> ())
    [
      ("prune", { Mumak.Config.default with Mumak.Config.absint = true; prune = true });
      ("prioritize", { Mumak.Config.faithful with Mumak.Config.static = true; prioritize = true });
    ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "dep_graph",
        [
          qt prop_graph_check_synthetic;
          Alcotest.test_case "lone clflushed window is not dangling" `Quick
            test_graph_clflush_not_dangling;
          Alcotest.test_case "NT store leaves the cached store dirty" `Quick
            test_nt_store_leaves_cached_store_dirty;
          Alcotest.test_case "recorded traces pass structural checks" `Quick
            test_graph_check_recorded;
          Alcotest.test_case "epoch groups are monotone" `Quick test_graph_epochs_monotone;
        ] );
      ( "trace_serialization",
        [
          Alcotest.test_case "recorded traces round-trip" `Quick test_trace_roundtrip_recorded;
          qt prop_trace_roundtrip_synthetic;
        ] );
      ("trace_analysis", [ qt prop_ta_findings_unique ]);
      ( "static_differential",
        [
          Alcotest.test_case "clean builds: no static durability findings" `Quick
            test_static_clean_no_durability;
          Alcotest.test_case "seeded durability bug found with anchored fix" `Quick
            test_static_seeded_durability;
          Alcotest.test_case "seeded ordering bug found with anchored fix" `Quick
            test_static_seeded_ordering;
          Alcotest.test_case "correctness bugs unchanged by the static phase" `Quick
            test_static_same_correctness_bugs;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "static over shared recordings = over fresh ones" `Quick
            test_static_shared_recordings_match_fresh;
          Alcotest.test_case "executions pinned per configuration" `Quick
            test_executions_pinned;
          Alcotest.test_case "one phase span per enabled phase; zero metrics iff off" `Quick
            test_phase_spans_and_metrics;
        ] );
      ( "retired_config_fields",
        [
          Alcotest.test_case "prune and prioritize = true are rejected" `Quick
            test_retired_fields_rejected;
        ] );
    ]
