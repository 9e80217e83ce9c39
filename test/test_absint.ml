(* Property tests for the merged-CFG abstract interpreter.

   Two layers: (1) qcheck laws for the per-cache-line lattice (join is
   associative, commutative, idempotent, monotone — on both the public
   chain and the powerset masks the fixpoint actually runs on) and for the
   transfer functions (mask-monotone); (2) qcheck structural laws for the
   multi-trace automaton merge (idempotent under duplicated recordings,
   insensitive to recording order), plus the merged paths and witnesses of
   one recorded target and the safety proofs on one clean build.
   Report-level absint differentials live in test_replay_engine. *)

module L = Analysis.Absint.Lattice

let elem_arb = QCheck.make ~print:L.elem_to_string (QCheck.Gen.oneofl L.all_elems)
let mask_arb = QCheck.make ~print:string_of_int (QCheck.Gen.oneofl L.all_masks)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

(* --- (1) lattice laws --- *)

let lattice_tests =
  [
    QCheck.Test.make ~name:"elem join associative"
      (QCheck.triple elem_arb elem_arb elem_arb) (fun (a, b, c) ->
        L.join a (L.join b c) = L.join (L.join a b) c);
    QCheck.Test.make ~name:"elem join commutative" (QCheck.pair elem_arb elem_arb)
      (fun (a, b) -> L.join a b = L.join b a);
    QCheck.Test.make ~name:"elem join idempotent, bot identity" elem_arb (fun a ->
        L.join a a = a && L.join L.Bot a = a);
    QCheck.Test.make ~name:"elem join monotone (upper bound, least)"
      (QCheck.pair elem_arb elem_arb) (fun (a, b) ->
        L.leq a (L.join a b) && L.leq b (L.join a b)
        && ((not (L.leq a b)) || L.join a b = b));
    QCheck.Test.make ~name:"mask join associative"
      (QCheck.triple mask_arb mask_arb mask_arb) (fun (a, b, c) ->
        L.mask_join a (L.mask_join b c) = L.mask_join (L.mask_join a b) c);
    QCheck.Test.make ~name:"mask join commutative" (QCheck.pair mask_arb mask_arb)
      (fun (a, b) -> L.mask_join a b = L.mask_join b a);
    QCheck.Test.make ~name:"mask join idempotent, bot identity" mask_arb (fun a ->
        L.mask_join a a = a && L.mask_join L.bot a = a);
    QCheck.Test.make ~name:"mask join monotone (upper bound, least)"
      (QCheck.pair mask_arb mask_arb) (fun (a, b) ->
        L.mask_leq a (L.mask_join a b)
        && ((not (L.mask_leq a b)) || L.mask_join a b = b));
    QCheck.Test.make ~name:"elem_of_mask maps bot to Bot and is total" mask_arb
      (fun m ->
        L.elem_of_mask L.bot = L.Bot
        && List.mem (L.elem_of_mask m) L.all_elems);
  ]

(* --- transfer monotonicity --- *)

(* A synthetic automaton node with a chosen instruction multiset; the
   capture is arbitrary since transfer only reads [instrs] and [key]. *)
let node_of_instrs instrs : Analysis.Cfg.node =
  {
    Analysis.Cfg.capture = { Pmtrace.Callstack.path = [ "t" ]; op_index = 0 };
    key = "t@0";
    instrs;
    succs = [];
    first_pseq = 0;
    runs = 1;
  }

let instr_choices =
  [
    Analysis.Cfg.Store { lines = [ 0 ]; nt = false };
    Analysis.Cfg.Store { lines = [ 0 ]; nt = true };
    Analysis.Cfg.Store { lines = [ 1 ]; nt = false };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clflush; line = 0 };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clflushopt; line = 0 };
    Analysis.Cfg.Flush { kind = Pmem.Op.Clwb; line = 1 };
    Analysis.Cfg.Fence { kind = Pmem.Op.Sfence };
    Analysis.Cfg.Fence { kind = Pmem.Op.Rmw };
  ]

let instrs_arb =
  QCheck.make
    ~print:(fun is -> String.concat ";" (List.map Analysis.Cfg.instr_to_string is))
    QCheck.Gen.(
      let* n = 1 -- 3 in
      list_size (return n) (oneofl instr_choices))

let state_of_mask line m : Analysis.Absint.state =
  if m = L.bot then Analysis.Absint.Lines.empty
  else
    Analysis.Absint.Lines.singleton line
      { Analysis.Absint.mask = m; wit_dirty = None; wit_pending = None }

let mask_at line (st : Analysis.Absint.state) =
  match Analysis.Absint.Lines.find_opt line st with
  | Some v -> v.Analysis.Absint.mask
  | None -> L.bot

let transfer_tests =
  [
    QCheck.Test.make ~name:"transfer mask-monotone in the input state"
      (QCheck.triple instrs_arb mask_arb mask_arb) (fun (instrs, m1, m2) ->
        let node = node_of_instrs instrs in
        let s1 = state_of_mask 0 m1 in
        let s2 = Analysis.Absint.state_join s1 (state_of_mask 0 m2) in
        let t1 = Analysis.Absint.transfer node s1 in
        let t2 = Analysis.Absint.transfer node s2 in
        L.mask_leq (mask_at 0 t1) (mask_at 0 t2)
        && L.mask_leq (mask_at 1 t1) (mask_at 1 t2));
    QCheck.Test.make ~name:"transfer output independent of join order"
      (QCheck.pair instrs_arb mask_arb) (fun (instrs, m) ->
        let node = node_of_instrs instrs in
        let s = state_of_mask 0 m in
        Analysis.Absint.state_equal
          (Analysis.Absint.transfer node s)
          (Analysis.Absint.transfer (node_of_instrs (List.rev instrs)) s));
  ]

(* --- (2) automaton merge laws --- *)

let record (target : Mumak.Target.t) =
  let device = Pmem.Device.create ~size:target.Mumak.Target.pool_size () in
  let tracer = Pmtrace.Tracer.create ~collect:true ~with_stacks:true device in
  target.Mumak.Target.run ~device
    ~framer:(Pmtrace.Framer.of_callstack (Pmtrace.Tracer.stack tracer));
  Pmtrace.Tracer.detach tracer;
  Pmtrace.Trace.to_list (Pmtrace.Tracer.trace tracer)

let app name =
  match Pmapps.Registry.find name with
  | Some m -> m
  | None -> Alcotest.failf "unknown app %s" name

(* Three genuinely different recordings of the same application: distinct
   seeds exercise distinct paths, so the merge is non-trivial. *)
let sample_runs =
  lazy
    (List.map
       (fun seed ->
         record
           (Targets.of_app (app "wort")
              ~workload:(Workload.standard ~ops:40 ~key_range:12 ~seed)
              ()))
       [ 1L; 7L; 42L ])

let cfg_sig runs = Analysis.Cfg.signature (Analysis.Cfg.build runs)

let cfg_tests =
  [
    QCheck.Test.make ~name:"merge idempotent under duplicated recordings"
      (QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 7)) (fun sel ->
        let runs = Lazy.force sample_runs in
        let dup = List.filteri (fun i _ -> sel land (1 lsl i) <> 0) runs in
        String.equal (cfg_sig runs) (cfg_sig (runs @ dup)));
    QCheck.Test.make ~name:"merge insensitive to recording order"
      (QCheck.make
         ~print:(fun p -> String.concat "," (List.map string_of_int p))
         (QCheck.Gen.shuffle_l [ 0; 1; 2 ]))
      (fun perm ->
        let runs = Lazy.force sample_runs in
        let shuffled = List.map (List.nth runs) perm in
        Analysis.Cfg.equal
          (Analysis.Cfg.build runs)
          (Analysis.Cfg.build shuffled));
  ]

let test_cfg_merges_paths () =
  let runs = Lazy.force sample_runs in
  let merged = Analysis.Cfg.build runs in
  let single = Analysis.Cfg.build [ List.hd runs ] in
  Alcotest.(check bool) "merged automaton saw every run" true (merged.Analysis.Cfg.runs = 3);
  Alcotest.(check bool) "merge adds structure over a single run" true
    (Analysis.Cfg.edge_count merged > Analysis.Cfg.edge_count single);
  (* every node of the merged automaton has a concrete path witness *)
  Analysis.Cfg.sorted_nodes merged
  |> List.iter (fun n ->
         match Analysis.Cfg.witness merged n.Analysis.Cfg.key with
         | [] -> Alcotest.failf "no witness for %s" n.Analysis.Cfg.key
         | path ->
             Alcotest.(check string)
               (Printf.sprintf "witness for %s ends at the node" n.Analysis.Cfg.key)
               n.Analysis.Cfg.key
               (List.nth path (List.length path - 1)))

(* The proofs Opt ranks plans on: a clean build gets a nonzero number of
   sites proven safe, and the interpreter's over-approximate findings never
   surface as a recovery failure. *)
let test_clean_build_proofs () =
  let target =
    Targets.of_app (app "wort") ~workload:(Workload.standard ~ops:60 ~key_range:25 ~seed:42L) ()
  in
  let config = { Mumak.Config.default with Mumak.Config.absint = true } in
  let r = Mumak.Engine.analyze ~config target in
  (match r.Mumak.Engine.absint with
  | Some { Mumak.Engine.analysis } ->
      Alcotest.(check bool) "clean wort: sites proven safe" true
        (Analysis.Absint.proven_count analysis > 0)
  | None -> Alcotest.fail "absint run carries no analysis");
  Alcotest.(check (list string)) "clean wort: no unrecoverable state" []
    (Mumak.Report.findings r.Mumak.Engine.report
    |> List.filter (fun f -> f.Mumak.Report.kind = Mumak.Report.Unrecoverable_state)
    |> List.map Mumak.Report.finding_signature)

let () =
  Alcotest.run "absint"
    [
      qsuite "lattice" lattice_tests;
      qsuite "transfer" transfer_tests;
      qsuite "cfg-merge" cfg_tests;
      ( "cfg-structure",
        [ Alcotest.test_case "merged paths and witnesses" `Quick test_cfg_merges_paths ] );
      ( "clean-build-proofs",
        [ Alcotest.test_case "clean wort: proofs, no unrecoverable state" `Quick
            test_clean_build_proofs ] );
    ]
