(* The detection pipeline rebuilt layer by layer from each layer's public
   function, in Engine.analyze's phase order, with a span around every
   call. It exists only for the traced pass: its outputs are checked
   against Engine.analyze on the same input, and its spans give the
   per-layer costs. *)

let span = Spans.with_span

(* Per-layer counts, kept at the same boundaries as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  Hashtbl.replace counters name (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* Wall time of the blocks Engine.analyze measures as its fi/ta/sa/ai/opt
   phases, summed over the traced pass. *)
type phase = Fi | Ta | Sa | Ai | Opt

let phase_names = [ (Fi, "fi"); (Ta, "ta"); (Sa, "sa"); (Ai, "ai"); (Opt, "opt") ]
let phase_wall : (phase, float) Hashtbl.t = Hashtbl.create 8

let in_phase phase f =
  let t0 = Telemetry.Clock.now_ns () in
  let v = f () in
  let dt = Telemetry.Clock.elapsed_s t0 (Telemetry.Clock.now_ns ()) in
  Hashtbl.replace phase_wall phase
    (dt +. Option.value (Hashtbl.find_opt phase_wall phase) ~default:0.);
  v

let reset () =
  Hashtbl.reset counters;
  Hashtbl.reset phase_wall

(** What the self-check compares with Engine.analyze. *)
type outputs = {
  failure_points : int;
  injections : int;
  bug_records : int;
  proven_sites : int option;
  lint_findings : int option;
  fix_tallies : (int * int * int) option;  (** proven, ineffective, harmful *)
  opt_tallies : (int * int * int) option;  (** synthesized, verified, proven *)
}

let fix_tallies (v : Analysis.Verify_fix.t) =
  (v.Analysis.Verify_fix.proven, v.Analysis.Verify_fix.ineffective, v.Analysis.Verify_fix.harmful)

let opt_tallies (o : Analysis.Opt.t) =
  (o.Analysis.Opt.synthesized, o.Analysis.Opt.verified, o.Analysis.Opt.proven)

let oracle (target : Mumak.Target.t) device =
  span "oracle" (fun () ->
      let o = Mumak.Oracle.classify target.Mumak.Target.recover device in
      count "oracle.bugs" (if Mumak.Oracle.is_bug o then 1. else 0.);
      o)

(* The image oracle the verifier and the optimizer are given, as the
   engine builds it. *)
let image_oracle (config : Mumak.Config.t) target img =
  match oracle target (Pmem.Device.of_image ~eadr:config.Mumak.Config.eadr img) with
  | Mumak.Oracle.Consistent -> None
  | Mumak.Oracle.Unrecoverable msg ->
      Some (Mumak.Report.kind_to_string Mumak.Report.Unrecoverable_state, msg)
  | Mumak.Oracle.Crashed msg -> Some (Mumak.Report.kind_to_string Mumak.Report.Recovery_crash, msg)

let fp_enum config events =
  span "fp_enum" (fun () ->
      let points = Mumak.Fault_injection.offline_points config events in
      count "fp_enum.points" (float_of_int (List.length points));
      points)

(* Under re-execution the oracle runs inside the injection loop, so the
   target's own recovery is what gets the span. *)
let traced_recover (target : Mumak.Target.t) =
  {
    target with
    Mumak.Target.recover =
      (fun device ->
        span "oracle" (fun () ->
            match target.Mumak.Target.recover device with
            | Ok () -> Ok ()
            | Error _ as e ->
                count "oracle.bugs" 1.;
                e
            | exception ex ->
                count "oracle.bugs" 1.;
                raise ex));
  }

(* One fully-instrumented recording for the static analyzer, as the
   engine makes it. *)
let record_trace ~loads ~eadr (target : Mumak.Target.t) =
  let device = Pmem.Device.create ~eadr ~size:target.Mumak.Target.pool_size () in
  if loads then Pmem.Device.trace_loads device true;
  let tracer = Pmtrace.Tracer.create ~collect:true ~with_stacks:true device in
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  Pmtrace.Trace.to_list (Pmtrace.Tracer.trace tracer)

let run (config : Mumak.Config.t) (target : Mumak.Target.t) =
  let open Mumak.Config in
  let eadr = config.eadr in
  let runs = max 1 config.invariant_runs in
  let shared = ref None in
  let recording () =
    match !shared with
    | Some r -> r
    | None ->
        let r =
          span "record" (fun () ->
              Pmtrace.Replay.record ~loads:false ~eadr ~pool_size:target.Mumak.Target.pool_size
                (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer))
        in
        count "record.events" (float_of_int (List.length (Pmtrace.Replay.events r)));
        shared := Some r;
        r
  in
  let static_r, static_noload =
    if not config.static then (None, None)
    else
      in_phase Sa (fun () ->
          span "static" (fun () ->
              let recordings =
                List.init runs (fun _ ->
                    let noload = record_trace ~loads:false ~eadr target in
                    let loaded = record_trace ~loads:true ~eadr target in
                    (noload, loaded))
              in
              count "static.recordings" (float_of_int (2 * runs));
              let s =
                Analysis.Static.analyze ~support:config.invariant_support
                  ~confidence:config.invariant_confidence ~eadr recordings
              in
              (Some s, Some (List.map fst recordings))))
  in
  let absint =
    if not config.absint then None
    else
      in_phase Ai (fun () ->
          let recordings =
            match static_noload with
            | Some rs -> rs
            | None ->
                let evs = Pmtrace.Replay.events (recording ()) in
                List.init runs (fun _ -> evs)
          in
          let a = span "absint" (fun () -> Analysis.Absint.analyze ~eadr recordings) in
          count "absint.cfg_nodes" (float_of_int (Analysis.Cfg.node_count a.Analysis.Absint.cfg));
          count "absint.proven_sites" (float_of_int (Analysis.Absint.proven_count a));
          Some a)
  in
  let invariants = Option.map (fun s -> s.Analysis.Static.invariants) static_r in
  let lint_r, fix_verdicts =
    if not (config.lint || config.verify_fixes) then (None, None)
    else begin
      let noload = recording () in
      let l =
        span "lint" (fun () -> Analysis.Lint.analyze ~eadr (Pmtrace.Replay.events noload))
      in
      count "lint.findings" (float_of_int (List.length l.Analysis.Lint.findings));
      if not config.verify_fixes then (Some l, None)
      else begin
        let loaded =
          span "record" (fun () ->
              Pmtrace.Replay.record ~loads:true ~eadr ~pool_size:target.Mumak.Target.pool_size
                (fun ~device ~framer -> target.Mumak.Target.run ~device ~framer))
        in
        let static_candidates =
          match static_r with
          | None -> []
          | Some s ->
              List.filter_map
                (fun (f : Analysis.Static.finding) ->
                  Option.map
                    (fun fx ->
                      {
                        Analysis.Verify_fix.c_source = Analysis.Verify_fix.Static_finding;
                        c_kind = Analysis.Static.kind_to_string f.Analysis.Static.kind;
                        c_stack = f.Analysis.Static.stack;
                        c_pseq = f.Analysis.Static.seq;
                        c_fix = fx;
                      })
                    f.Analysis.Static.fix)
                s.Analysis.Static.findings
        in
        let lint_candidates =
          List.filter_map
            (fun (f : Analysis.Lint.finding) ->
              Option.map
                (fun fx ->
                  {
                    Analysis.Verify_fix.c_source = Analysis.Verify_fix.Lint_finding;
                    c_kind = Analysis.Lint.kind_to_string f.Analysis.Lint.l_kind;
                    c_stack = f.Analysis.Lint.l_stack;
                    c_pseq = f.Analysis.Lint.l_pseq;
                    c_fix = fx;
                  })
                f.Analysis.Lint.l_fix)
            l.Analysis.Lint.findings
        in
        let candidates = static_candidates @ lint_candidates in
        count "verify_fix.candidates" (float_of_int (List.length candidates));
        let v =
          span "verify_fix" (fun () ->
              Analysis.Verify_fix.verify ?invariants ~support:config.invariant_support
                ~confidence:config.invariant_confidence ~eadr
                ~oracle:(image_oracle config target) ~points:(fp_enum config) ~noload
                ~loaded candidates)
        in
        count "verify_fix.replays" (float_of_int v.Analysis.Verify_fix.replays);
        count "verify_fix.proven" (float_of_int v.Analysis.Verify_fix.proven);
        count "verify_fix.judged"
          (float_of_int
             (v.Analysis.Verify_fix.proven + v.Analysis.Verify_fix.ineffective
            + v.Analysis.Verify_fix.harmful));
        (Some l, Some v)
      end
    end
  in
  let opt =
    if not config.optimize then None
    else
      in_phase Opt (fun () ->
          let noload = recording () in
          let o =
            span "opt" (fun () ->
                Analysis.Opt.optimize ?invariants ?absint ~weights:Analysis.Cost.static_weights
                  ~support:config.invariant_support ~confidence:config.invariant_confidence ~eadr
                  ~oracle:(image_oracle config target) ~points:(fp_enum config) noload)
          in
          count "opt.synthesized" (float_of_int o.Analysis.Opt.synthesized);
          count "opt.verified" (float_of_int o.Analysis.Opt.verified);
          count "opt.proven" (float_of_int o.Analysis.Opt.proven);
          count "opt.replays" (float_of_int o.Analysis.Opt.replays);
          Some o)
  in
  let ta = Mumak.Trace_analysis.create config in
  let feed events =
    span "trace_analysis" (fun () -> List.iter (Mumak.Trace_analysis.feed ta) events)
  in
  let failure_points, injections, bug_records =
    in_phase Fi (fun () ->
        match config.strategy with
        | Replay ->
            let r = recording () in
            feed (Pmtrace.Replay.events r);
            let points = fp_enum config (Pmtrace.Replay.events r) in
            let injected = ref 0 and bugs = ref 0 in
            (* A point the recording cannot reach is re-executed live by the
               engine and skipped here, so the injection-count check exposes
               it. *)
            ignore
              (span "materialize" (fun () ->
                   Pmtrace.Replay.materialize r
                     ~points:(List.map (fun (o, pseq, _) -> (o, pseq)) points)
                     ~f:(fun ~key:_ image ->
                       incr injected;
                       if Mumak.Oracle.is_bug (oracle target (Pmem.Device.adopt ~eadr image)) then
                         incr bugs)));
            count "materialize.images" (float_of_int !injected);
            (List.length points, !injected, !bugs)
        | Reexecute ->
            let events = ref [] in
            let traced = traced_recover target in
            let tree, _ =
              span "build_tree" (fun () ->
                  Mumak.Fault_injection.build_tree
                    ~extra_listener:(fun e _ -> events := e :: !events)
                    config traced)
            in
            feed (List.rev !events);
            let fi =
              span "inject_reexecute" (fun () ->
                  Mumak.Fault_injection.inject_reexecute config traced tree)
            in
            count "inject_reexecute.executions"
              (float_of_int fi.Mumak.Fault_injection.executions);
            ( Mumak.Fp_tree.size tree,
              List.length fi.Mumak.Fault_injection.records,
              List.length (Mumak.Fault_injection.bug_records fi) )
        | Snapshot -> invalid_arg "Pipeline.run: the snapshot strategy is not benchmarked")
  in
  in_phase Ta (fun () ->
      ignore (span "trace_analysis" (fun () -> Mumak.Trace_analysis.finish ta)));
  count "trace_analysis.events" (float_of_int (Mumak.Trace_analysis.event_count ta));
  {
    failure_points;
    injections;
    bug_records;
    proven_sites = Option.map Analysis.Absint.proven_count absint;
    lint_findings = Option.map (fun l -> List.length l.Analysis.Lint.findings) lint_r;
    fix_tallies = Option.map fix_tallies fix_verdicts;
    opt_tallies = Option.map opt_tallies opt;
  }

(** The same outputs read off an engine result. *)
let of_engine (r : Mumak.Engine.result) =
  {
    failure_points = r.Mumak.Engine.failure_points;
    injections = r.Mumak.Engine.injections;
    bug_records =
      List.length
        (List.filter
           (fun f -> f.Mumak.Report.phase = Mumak.Report.Fault_injection)
           (Mumak.Report.findings r.Mumak.Engine.report));
    proven_sites =
      Option.map
        (fun (a : Mumak.Engine.absint) -> Analysis.Absint.proven_count a.Mumak.Engine.analysis)
        r.Mumak.Engine.absint;
    lint_findings = Option.map (fun l -> List.length l.Analysis.Lint.findings) r.Mumak.Engine.lint;
    fix_tallies = Option.map fix_tallies r.Mumak.Engine.fix_verdicts;
    opt_tallies = Option.map opt_tallies r.Mumak.Engine.opt;
  }

let engine_phase_wall (r : Mumak.Engine.result) = function
  | Fi -> r.Mumak.Engine.fi_metrics.Mumak.Metrics.wall_seconds
  | Ta -> r.Mumak.Engine.ta_metrics.Mumak.Metrics.wall_seconds
  | Sa -> r.Mumak.Engine.sa_metrics.Mumak.Metrics.wall_seconds
  | Ai -> r.Mumak.Engine.ai_metrics.Mumak.Metrics.wall_seconds
  | Opt -> r.Mumak.Engine.opt_metrics.Mumak.Metrics.wall_seconds
