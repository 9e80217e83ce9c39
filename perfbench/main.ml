(* The repository benchmark: one workload per run, end-to-end metrics with
   tracing off, or the per-layer table from a traced pass (--trace 1).

   Usage: main.exe --workload detect|reexecute|analyses --seed N
                   --seconds S --trace 0|1

   The last line of standard output is the JSON result. Every run is one
   process on one domain. *)

let out_dir = ".perfbench_out"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let now () = Telemetry.Clock.now_ns ()
let since t0 = Telemetry.Clock.elapsed_s t0 (now ())

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type env = { wl : Workloads.t; ledger : Store.Ledger.t option }

(* Timed as setup_s: input generation, target building, a fresh ledger and
   one untimed warm-up verdict (the workload's first input under the
   default configuration). *)
let setup name ~seed =
  let wl = Workloads.make name ~seed in
  let ledger =
    if wl.Workloads.ledger then begin
      let dir = Filename.concat out_dir "ledger" in
      remove_tree dir;
      Some (Store.Ledger.open_ ~dir ())
    end
    else None
  in
  ignore (Mumak.Engine.analyze (List.hd wl.Workloads.verdicts).Workloads.target);
  { wl; ledger }

let setup_repeats = 9

(* Passes a run makes at least, so each verdict has more than one time to
   take the fastest of besides the first, which grows the heap. *)
let min_passes = 3

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

(* What a verdict's result is kept for: only this survives the verdict, so
   one verdict's analysis state never lives on into the next. *)
type summary = {
  report : Mumak.Report.t;
  injections : int;
  executions : int;
  trace_events : int;
  failure_points : int;
}

let summarize (r : Mumak.Engine.result) =
  {
    report = r.Mumak.Engine.report;
    injections = r.Mumak.Engine.injections;
    executions = r.Mumak.Engine.executions;
    trace_events = r.Mumak.Engine.trace_events;
    failure_points = r.Mumak.Engine.failure_points;
  }

type outcome = {
  v : Workloads.verdict;
  wall_s : float;
  alloc_bytes : float;
  result : summary option;  (** [None]: the verdict raised *)
  error : string option;  (** raised, or passed the time limit *)
}

let in_verdict (v : Workloads.verdict) f =
  Pmapps.Level_hash.use_enhanced_recovery := v.Workloads.enhanced_recovery;
  Fun.protect
    ~finally:(fun () -> Pmapps.Level_hash.use_enhanced_recovery := false)
    (fun () -> Bugreg.with_enabled v.Workloads.bugs f)

let workload_desc (v : Workloads.verdict) =
  Printf.sprintf "perfbench:%s,ops=%d,keys=%d%s" v.Workloads.label v.Workloads.ops
    v.Workloads.keys
    (match v.Workloads.bugs with [] -> "" | l -> ",bugs=" ^ String.concat "+" l)

(* Returns the bytes written. *)
let append_ledger env (v : Workloads.verdict) result =
  match env.ledger with
  | None -> 0
  | Some ledger ->
      let record =
        Store.Record.of_result ~target:v.Workloads.target.Mumak.Target.name
          ~workload:(workload_desc v) ~config:env.wl.Workloads.config result
      in
      let id = Store.Ledger.append_run ledger record in
      (Unix.stat (Store.Ledger.run_path ledger id)).Unix.st_size

(* One verdict: Engine.analyze (plus the ledger append, on a workload that
   keeps one) under the verdict's seeded bugs. [body] replaces the plain
   call on the traced pass. *)
let run_verdict ?body env (v : Workloads.verdict) =
  let body =
    match body with
    | Some b -> b
    | None ->
        fun () ->
          let r = Mumak.Engine.analyze ~config:env.wl.Workloads.config v.Workloads.target in
          ignore (append_ledger env v r);
          r
  in
  (* each verdict starts from a compacted heap, as a fresh CLI process
     would, instead of paying for the previous verdict's garbage *)
  Gc.compact ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = now () in
  let result, error =
    match in_verdict v body with
    | r -> (Some (summarize r), None)
    | exception e -> (None, Some (Printexc.to_string e))
  in
  let wall_s = since t0 in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let error =
    match error with
    | None when wall_s > env.wl.Workloads.limit_s ->
        Some (Printf.sprintf "passed the %.0f s limit (%.3f s)" env.wl.Workloads.limit_s wall_s)
    | e -> e
  in
  { v; wall_s; alloc_bytes; result; error }

(* Known-answer scoring of one pass; clean runs are the baselines of the
   seeded verdicts that follow them. *)
let score outcomes =
  let reports = Hashtbl.create 16 in
  List.map
    (fun o ->
      let right =
        match (o.error, o.result) with
        | None, Some r ->
            Hashtbl.replace reports o.v.Workloads.label r.report;
            Known.score o.v.Workloads.answer
              ~baseline:(Option.bind o.v.Workloads.baseline (Hashtbl.find_opt reports))
              r.report
        | _ -> false
      in
      (o, right))
    outcomes

let pass ?body env = List.map (run_verdict ?body env) env.wl.Workloads.verdicts

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit_, note) ->
      Printf.printf "  %-36s %14.6g %-6s %s\n" name value unit_ note)
    rows

let ratio_note num den = Printf.sprintf "(%d/%d)" num den

(* Seed and input sizes, from the first pass. *)
let print_provenance name ~seed outcomes =
  let open Telemetry.Json in
  let inputs =
    List.map
      (fun o ->
        let ev, fp =
          match o.result with
          | Some r -> (Int r.trace_events, Int r.failure_points)
          | None -> (Null, Null)
        in
        Assoc
          [
            ("verdict", String o.v.Workloads.label);
            ("ops", Int o.v.Workloads.ops);
            ("keys", Int o.v.Workloads.keys);
            ("trace_events", ev);
            ("failure_points", fp);
          ])
      outcomes
  in
  print_endline
    (to_string
       (Assoc [ ("workload", String name); ("seed", Int seed); ("inputs", List inputs) ]))

(* Verdicts the correctness check refuses: an error, or a correctness
   finding on a clean input. A seeded bug the input does not expose is a
   miss, counted in verdict_accuracy only. *)
let unexpected scored =
  List.filter
    (fun (o, right) -> o.error <> None || ((not right) && o.v.Workloads.answer = Known.Clean))
    scored

(* Each error and each miss once, however many passes repeated it. *)
let report_failures scored =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (o, right) ->
      let label = o.v.Workloads.label in
      let line =
        match o.error with
        | Some e -> Some (Printf.sprintf "error: %s: %s" label e)
        | None when not right ->
            Some
              (Printf.sprintf "miss: %s%s" label
                 (if Known.expected_miss o.v.Workloads.answer then " (designed ordering miss)"
                  else ""))
        | None -> None
      in
      match line with
      | Some l when not (Hashtbl.mem seen l) ->
          Hashtbl.add seen l ();
          print_endline l
      | _ -> ())
    scored

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

let end_to_end name ~seed ~seconds =
  let setups =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        let env = setup name ~seed in
        (env, since t0))
  in
  let env = fst (List.hd (List.rev setups)) in
  let setup_s = Stats.median (List.map snd setups) in
  let t0 = now () in
  let passes = ref [] in
  while List.length !passes < min_passes || since t0 < seconds do
    passes := pass env :: !passes
  done;
  let passes = List.rev !passes in
  let n_passes = List.length passes in
  print_provenance name ~seed (List.hd passes);
  let scored = List.concat_map score passes in
  let outcomes = List.map fst scored in
  let attempted = List.length outcomes in
  let failed = List.length (List.filter (fun o -> o.error <> None) outcomes) in
  let right = List.length (List.filter snd scored) in
  let results = List.filter_map (fun o -> o.result) outcomes in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let injections = sum (fun r -> r.injections) in
  let executions = sum (fun r -> r.executions) in
  let walls = List.map (fun o -> o.wall_s) outcomes in
  (* The timed pass is the verdicts themselves (scoring and the heap
     compaction between verdicts are the benchmark's own), each verdict
     timed by its fastest pass: load from outside the process only ever
     adds time, and on a shared host it comes in phases of tens of
     seconds that a median over a few passes does not escape. *)
  let pass_walls = List.map (fun p -> Array.of_list (List.map (fun o -> o.wall_s) p)) passes in
  let verdict_s =
    List.init (Array.length (List.hd pass_walls)) (fun i ->
        List.fold_left (fun m w -> Float.min m w.(i)) infinity pass_walls)
  in
  let best_pass_s = List.fold_left ( +. ) 0. verdict_s in
  let per_pass x = float_of_int x /. float_of_int n_passes in
  let alloc = List.fold_left (fun acc o -> acc +. o.alloc_bytes) 0. outcomes in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let n = float_of_int attempted in
  let metrics =
    [
      Metric.make "setup_s" setup_s "s";
      Metric.make "verdicts_per_s" (per_pass attempted /. best_pass_s) "1/s";
      Metric.make "verdict_s_p50" (Stats.median verdict_s) "s";
      Metric.make "injections_per_s" (per_pass injections /. best_pass_s) "1/s";
      Metric.make "executions_per_verdict" (float_of_int executions /. n) "count";
      Metric.make "alloc_mb_per_verdict" (alloc /. n /. 1e6) "MB";
      Metric.make "peak_heap_mb" peak_heap_mb "MB";
      Metric.make "verdict_accuracy" (float_of_int right /. n) "ratio";
    ]
  in
  let notes =
    [
      ("setup_s", Printf.sprintf "median of n=%d set-ups" setup_repeats);
      ( "verdicts_per_s",
        Printf.sprintf "n=%d verdicts in %d passes; fastest-per-verdict pass %.3f s" attempted
          n_passes best_pass_s );
      ( "verdict_s_p50",
        Printf.sprintf "n=%d verdicts, each its fastest of %d passes" (List.length verdict_s)
          n_passes );
      ("injections_per_s", Printf.sprintf "n=%d injections in %d passes" injections n_passes);
      ("executions_per_verdict", ratio_note executions attempted);
      ("alloc_mb_per_verdict", Printf.sprintf "n=%d" attempted);
      ("peak_heap_mb", "n=1 (process peak)");
      ("verdict_accuracy", ratio_note right attempted);
    ]
  in
  report_failures scored;
  Printf.printf "pass walls (s):%s\n"
    (String.concat ""
       (List.map (fun w -> Printf.sprintf " %.3f" (Array.fold_left ( +. ) 0. w)) pass_walls));
  print_table
    (Printf.sprintf "workload %s, seed %d, tracing off" name seed)
    (List.map
       (fun m -> (m.Metric.name, m.Metric.value, m.Metric.unit_, List.assoc m.Metric.name notes))
       metrics);
  let clean = List.filter (fun (o, _) -> o.v.Workloads.answer = Known.Clean) scored in
  let seeded = List.filter (fun (o, _) -> o.v.Workloads.answer <> Known.Clean) scored in
  let right_of l = List.length (List.filter snd l) in
  Printf.printf "  clean verdicts correct %s, seeded verdicts correct %s\n"
    (ratio_note (right_of clean) (List.length clean))
    (ratio_note (right_of seeded) (List.length seeded));
  Printf.printf "  error_rate %g %s\n" (float_of_int failed /. n) (ratio_note failed attempted);
  (match Stats.p90 walls with
  | Some p -> Printf.printf "  verdict_s_p90 %g s (n=%d)\n" p attempted
  | None ->
      Printf.printf "  verdict_s_p90 omitted: %d verdicts < %d\n" attempted Stats.p90_min_samples);
  let correct = unexpected scored = [] in
  print_endline (Metric.result_line ~correct ~attempted ~failed metrics)

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer table                                     *)
(* ------------------------------------------------------------------ *)

(* A traced verdict: the layer-by-layer pipeline, then Engine.analyze and
   the ledger append on the same input, each under its span. *)
let traced_body env (v : Workloads.verdict) mismatches engine_walls () =
  Spans.with_span "verdict" @@ fun () ->
  let config = env.wl.Workloads.config in
  let layered = Pipeline.run config v.Workloads.target in
  let r = Spans.with_span "engine" (fun () -> Mumak.Engine.analyze ~config v.Workloads.target) in
  if env.ledger <> None then
    Pipeline.count "ledger.bytes"
      (float_of_int (Spans.with_span "ledger" (fun () -> append_ledger env v r)));
  let s = r.Mumak.Engine.pm_stats in
  Pipeline.count "device.calls" 1.;
  Pipeline.count "device.stores" (float_of_int s.Pmem.Stats.stores);
  Pipeline.count "device.flushes" (float_of_int (Pmem.Stats.flushes s));
  Pipeline.count "device.fences" (float_of_int (Pmem.Stats.fences s));
  if layered <> Pipeline.of_engine r then mismatches := v.Workloads.label :: !mismatches;
  List.iter
    (fun (phase, _) ->
      let prev = Option.value (Hashtbl.find_opt engine_walls phase) ~default:0. in
      Hashtbl.replace engine_walls phase (prev +. Pipeline.engine_phase_wall r phase))
    Pipeline.phase_names;
  r

(* Each phase's span sum must agree with the engine's own phase wall
   within this share of the larger, plus a fixed slack per pass for phases
   too short to time reliably. The two run at different moments, and on a
   shared host a burst of outside load slows one of them by up to half. *)
let phase_tolerance = 0.5
let phase_slack_s = 0.05

let layers =
  [
    "record"; "fp_enum"; "materialize"; "oracle"; "trace_analysis"; "build_tree";
    "inject_reexecute"; "static"; "absint"; "lint"; "verify_fix"; "opt"; "ledger"; "engine";
  ]

let traced name ~seed ~seconds =
  let env = setup name ~seed in
  let mismatches = ref [] in
  let engine_walls = Hashtbl.create 8 in
  Spans.reset ();
  Pipeline.reset ();
  let t0 = now () in
  let pairs = ref 0 and untraced_s = ref 0. and traced_s = ref 0. in
  let scored = ref [] in
  let wall_sum = List.fold_left (fun acc o -> acc +. o.wall_s) 0. in
  while !pairs = 0 || since t0 < seconds do
    let plain = pass env in
    untraced_s := !untraced_s +. wall_sum plain;
    Spans.enabled := true;
    let outcomes =
      List.mapi
        (fun i v ->
          Spans.verdict := (!pairs * 1000) + i;
          run_verdict ~body:(traced_body env v mismatches engine_walls) env v)
        env.wl.Workloads.verdicts
    in
    traced_s := !traced_s +. wall_sum outcomes;
    Spans.enabled := false;
    if !pairs = 0 then print_provenance name ~seed plain;
    scored := !scored @ score plain @ score outcomes;
    incr pairs
  done;
  let passes = float_of_int !pairs in
  let spans = Spans.spans () in
  let trace_path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed) in
  Spans.write trace_path spans;
  let selves = Spans.self_times spans in
  let tbl = Spans.by_layer selves in
  let layer name =
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ Spans.calls = 0; self_total_s = 0.; alloc_total = 0.; durations = [] }
  in
  let per_pass x = x /. passes in
  let c = Pipeline.counter in
  let ratio num den = if den > 0. then num /. den else 0. in
  (* Engine time not covered by the layer spans of the same verdicts: a
     verdict's direct children are the layer calls, the engine call and
     the ledger append. *)
  let unattributed =
    let roots = Hashtbl.create 64 in
    List.iter (fun s -> if s.Spans.name = "verdict" then Hashtbl.replace roots s.Spans.id ()) spans;
    List.fold_left
      (fun acc s ->
        if not (Hashtbl.mem roots s.Spans.parent) then acc
        else
          match s.Spans.name with
          | "engine" -> acc +. Spans.duration_s s
          | "ledger" -> acc
          | _ -> acc -. Spans.duration_s s)
      0. spans
  in
  let oracle = layer "oracle" in
  let reexec_ms = (layer "inject_reexecute").Spans.self_total_s *. 1e3 in
  let reexec_n = c "inject_reexecute.executions" in
  let metrics =
    List.concat_map
      (fun name ->
        let l = layer name in
        [
          Metric.make (name ^ ".s") (per_pass l.Spans.self_total_s) "s";
          Metric.make (name ^ ".calls") (per_pass (float_of_int l.Spans.calls)) "count";
          Metric.make (name ^ ".alloc_mb") (per_pass l.Spans.alloc_total /. 1e6) "MB";
        ])
      layers
    @ [
        Metric.make "record.events" (per_pass (c "record.events")) "count";
        Metric.make "fp_enum.points" (per_pass (c "fp_enum.points")) "count";
        Metric.make "materialize.images" (per_pass (c "materialize.images")) "count";
        Metric.make "oracle.us_p50"
          (match oracle.Spans.durations with [] -> 0. | d -> Stats.median d *. 1e6)
          "us";
        Metric.make "oracle.bug_ratio"
          (ratio (c "oracle.bugs") (float_of_int oracle.Spans.calls))
          "ratio";
        Metric.make "trace_analysis.events" (per_pass (c "trace_analysis.events")) "count";
        Metric.make "inject_reexecute.executions"
          (per_pass (c "inject_reexecute.executions"))
          "count";
        Metric.make "inject_reexecute.ms_per_execution"
          (ratio reexec_ms reexec_n)
          "ms";
        Metric.make "device.calls" (per_pass (c "device.calls")) "count";
        Metric.make "device.stores" (per_pass (c "device.stores")) "count";
        Metric.make "device.flushes" (per_pass (c "device.flushes")) "count";
        Metric.make "device.fences" (per_pass (c "device.fences")) "count";
        Metric.make "static.recordings" (per_pass (c "static.recordings")) "count";
        Metric.make "absint.cfg_nodes" (per_pass (c "absint.cfg_nodes")) "count";
        Metric.make "absint.proven_sites" (per_pass (c "absint.proven_sites")) "count";
        Metric.make "lint.findings" (per_pass (c "lint.findings")) "count";
        Metric.make "verify_fix.candidates" (per_pass (c "verify_fix.candidates")) "count";
        Metric.make "verify_fix.replays" (per_pass (c "verify_fix.replays")) "count";
        Metric.make "verify_fix.proven_ratio"
          (ratio (c "verify_fix.proven") (c "verify_fix.judged"))
          "ratio";
        Metric.make "opt.synthesized" (per_pass (c "opt.synthesized")) "count";
        Metric.make "opt.verified" (per_pass (c "opt.verified")) "count";
        Metric.make "opt.replays" (per_pass (c "opt.replays")) "count";
        Metric.make "opt.verified_ratio" (ratio (c "opt.verified") (c "opt.synthesized")) "ratio";
        Metric.make "opt.proven_ratio" (ratio (c "opt.proven") (c "opt.verified")) "ratio";
        Metric.make "ledger.bytes" (per_pass (c "ledger.bytes")) "bytes";
        Metric.make "engine.unattributed_s" (per_pass unattributed) "s";
        Metric.make "trace.overhead_s" (per_pass (!traced_s -. !untraced_s)) "s";
      ]
  in
  let bases =
    [
      ("oracle.bug_ratio", c "oracle.bugs", float_of_int oracle.Spans.calls);
      ("verify_fix.proven_ratio", c "verify_fix.proven", c "verify_fix.judged");
      ("opt.verified_ratio", c "opt.verified", c "opt.synthesized");
      ("opt.proven_ratio", c "opt.proven", c "opt.verified");
      ("inject_reexecute.ms_per_execution", reexec_ms, reexec_n);
    ]
  in
  (* self-check: outputs per verdict, then phase walls per pass *)
  let phase_errors =
    List.filter_map
      (fun (phase, pname) ->
        let mine = Option.value (Hashtbl.find_opt Pipeline.phase_wall phase) ~default:0. in
        let engine = Option.value (Hashtbl.find_opt engine_walls phase) ~default:0. in
        let allowed =
          (phase_tolerance *. Float.max mine engine) +. (phase_slack_s *. passes)
        in
        Printf.printf "  phase %-4s layered %.4f s, engine %.4f s, allowed difference %.4f s\n"
          pname mine engine allowed;
        if Float.abs (mine -. engine) > allowed then Some pname else None)
      Pipeline.phase_names
  in
  let outcomes = List.map fst !scored in
  let attempted = List.length outcomes in
  let failed = List.length (List.filter (fun o -> o.error <> None) outcomes) in
  report_failures !scored;
  let valid = !mismatches = [] && phase_errors = [] in
  if valid then begin
    print_table
      (Printf.sprintf "workload %s, seed %d, traced: per pass (n=%d pairs of passes), spans in %s"
         name seed !pairs trace_path)
      (List.map (fun m -> (m.Metric.name, m.Metric.value, m.Metric.unit_, "")) metrics);
    List.iter
      (fun (name, num, den) -> Printf.printf "  %s base: %g / %g\n" name num den)
      bases
  end
  else
    Printf.printf "per-layer table INVALID: outputs differ on [%s]; phase walls differ on [%s]\n"
      (String.concat ", " (List.rev !mismatches))
      (String.concat ", " phase_errors);
  let correct = valid && unexpected !scored = [] in
  print_endline (Metric.result_line ~correct ~attempted ~failed metrics)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, String.concat "|" Workloads.names);
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer table");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Workloads.names) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let seconds = float_of_int !seconds in
  if !trace = 1 then traced !workload ~seed:!seed ~seconds
  else end_to_end !workload ~seed:!seed ~seconds
