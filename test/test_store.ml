(* Tests for the results store (run ledger + finding provenance):
   - codec round-trips: generated provenance and finding records survive
     to_json |> to_string |> of_string |> of_json byte-for-byte, and a
     real engine run's full record survives the same trip;
   - ledger: append/load by id and by unique prefix through a temp dir;
   - diff algebra: diff a a is empty, and new/fixed swap under argument
     exchange;
   - explain: every finding of a seeded run resolves, by 1-based index
     and by finding-id prefix, to a provenance record whose identity
     matches the finding;
   - schema validator: accepts emitted run and diff records, rejects
     wrong schema/version/type and torn structures;
   - trend gate: no baseline passes, improvement passes, a blown-up
     newest run fails, and smoke runs trend separately. *)

module Json = Telemetry.Json

let wl ?(ops = 200) ?(key_range = 60) () = Targets.standard_workload ~ops ~key_range ()

let target_for ?(workload = wl ()) name =
  match Pmapps.Registry.find name with
  | None -> Alcotest.failf "unknown app %s" name
  | Some (module A : Pmapps.Kv_intf.S) ->
      let version =
        (* hashmap_atomic's layout predates the 1.12 allocator *)
        if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6
        else Pmalloc.Version.V1_12
      in
      Targets.of_app (module A) ~version ~workload ()

let run_recorded ?(bugs = []) ?(config = Mumak.Config.default) name =
  Bugreg.with_enabled bugs (fun () ->
      let result = Mumak.Engine.analyze ~config (target_for name) in
      let workload =
        Printf.sprintf "test:%s%s" name
          (match bugs with [] -> "" | l -> ",bugs=" ^ String.concat "+" l)
      in
      Store.Record.of_result ~target:name ~workload ~config result)

(* --- generators ----------------------------------------------------- *)

let gen_name =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let gen_text =
  (* printable ASCII including the characters the JSON escaper must
     handle *)
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 30))

let gen_hex = QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '9'; 'a'; 'f' ]) (return 16))

let gen_failure_point =
  let open QCheck.Gen in
  let* path = list_size (int_range 1 4) gen_name in
  let* op_index = int_range 0 500 in
  let* ordinal = int_range 0 500 in
  let* pseq = opt (int_range 1 5000) in
  return
    {
      Mumak.Provenance.fp_path = path;
      fp_op_index = op_index;
      fp_ordinal = ordinal;
      fp_pseq = pseq;
    }

let gen_image_diff =
  let open QCheck.Gen in
  let* lines =
    list_size (int_range 0 4)
      (let* line = int_range 0 1000 in
       let* crash = gen_hex in
       let* recovered = gen_hex in
       return { Mumak.Provenance.dl_line = line; dl_crash = crash; dl_recovered = recovered })
  in
  let* extra = int_range 0 20 in
  let differing = List.length lines + extra in
  return
    {
      Mumak.Provenance.id_lines = lines;
      id_differing = differing;
      id_capped = differing > List.length lines;
    }

let gen_provenance =
  let open QCheck.Gen in
  let* signature = gen_text in
  let* kind = gen_name in
  let* phase = gen_name in
  let* detail = gen_text in
  let* stack = opt (pair (list_size (int_range 1 4) gen_name) (int_range 0 200)) in
  let* seq = opt (int_range 1 10_000) in
  let* failure_point = opt gen_failure_point in
  let* window = list_size (int_range 0 7) gen_text in
  let* witness = gen_text in
  let* verdict = opt gen_text in
  let* fix = opt gen_text in
  let* image_diff = opt gen_image_diff in
  return
    {
      Mumak.Provenance.p_finding = Mumak.Provenance.id_of_signature signature;
      p_signature = signature;
      p_kind = kind;
      p_phase = phase;
      p_detail = detail;
      p_stack = stack;
      p_seq = seq;
      p_failure_point = failure_point;
      p_window = window;
      p_witness = witness;
      p_verdict = verdict;
      p_fix = fix;
      p_image_diff = image_diff;
    }

let prov_print p = Json.to_string (Mumak.Provenance.to_json p)

let prop_provenance_roundtrip =
  QCheck.Test.make ~name:"provenance round-trips through JSON text" ~count:300
    (QCheck.make ~print:prov_print gen_provenance) (fun p ->
      match Json.of_string (Json.to_string (Mumak.Provenance.to_json p)) with
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg
      | Ok j -> (
          match Mumak.Provenance.of_json j with
          | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg
          | Ok p' -> Mumak.Provenance.equal p p'))

let gen_finding =
  let open QCheck.Gen in
  let* signature = gen_text in
  let* kind = gen_name in
  let* phase = gen_name in
  let* path = list_size (int_range 0 4) gen_name in
  let* op_index = opt (int_range 0 200) in
  let* seq = opt (int_range 1 10_000) in
  let* detail = gen_text in
  let* fix = opt gen_text in
  let* verdict = opt gen_text in
  return
    {
      Store.Record.f_id = Mumak.Provenance.id_of_signature signature;
      f_signature = signature;
      f_kind = kind;
      f_phase = phase;
      f_path = path;
      f_op_index = op_index;
      f_seq = seq;
      f_detail = detail;
      f_fix = fix;
      f_verdict = verdict;
    }

let prop_finding_roundtrip =
  QCheck.Test.make ~name:"store findings round-trip through JSON text" ~count:300
    (QCheck.make
       ~print:(fun f -> Json.to_string (Store.Record.finding_to_json f))
       gen_finding)
    (fun f ->
      match Json.of_string (Json.to_string (Store.Record.finding_to_json f)) with
      | Error msg -> QCheck.Test.fail_reportf "parse error: %s" msg
      | Ok j -> (
          match Store.Record.finding_of_json j with
          | Error msg -> QCheck.Test.fail_reportf "decode error: %s" msg
          | Ok f' -> f = f'))

(* --- real-run record round-trip and ledger -------------------------- *)

let temp_store () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mumak-store-test-%d" (Unix.getpid ()))
  in
  Store.Ledger.open_ ~dir ()

let test_record_roundtrip () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  match Json.of_string (Json.to_string (Store.Record.to_json record)) with
  | Error msg -> Alcotest.failf "record reparse failed: %s" msg
  | Ok j -> (
      match Store.Record.of_json j with
      | Error msg -> Alcotest.failf "record decode failed: %s" msg
      | Ok record' ->
          Alcotest.(check bool)
            "run record survives serialization byte-for-byte" true
            (Store.Record.equal record record'))

let test_ledger_append_load () =
  let ledger = temp_store () in
  let record = run_recorded "hashmap_atomic" in
  let id = Store.Ledger.append_run ledger record in
  Alcotest.(check string) "append returns the content address" record.Store.Record.run_id id;
  (match Store.Ledger.load_run ledger id with
  | Error msg -> Alcotest.failf "load by full id failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "load by id returns the record" true
        (Store.Record.equal record r));
  (match Store.Ledger.load_run ledger (String.sub id 0 8) with
  | Error msg -> Alcotest.failf "load by prefix failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "load by unique prefix returns the record" true
        (Store.Record.equal record r));
  match Store.Ledger.load_run ledger "ffffffffffff" with
  | Ok _ -> Alcotest.fail "made-up id should not resolve"
  | Error _ -> ()

(* A truncated run record must surface as an error naming its file: read
   as a shorter ledger, it would make `mumak query` report no runs. *)
let test_ledger_truncated_record () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mumak-store-test-%d-truncated" (Unix.getpid ()))
  in
  let ledger = Store.Ledger.open_ ~dir () in
  let id = Store.Ledger.append_run ledger (run_recorded "hashmap_atomic") in
  (match Store.Ledger.load_all ledger with
  | Ok runs -> Alcotest.(check int) "intact ledger loads its one run" 1 (List.length runs)
  | Error msg -> Alcotest.failf "intact ledger failed to load: %s" msg);
  let path = Store.Ledger.run_path ledger id in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 (String.length text / 2)));
  match Store.Ledger.load_all ledger with
  | Ok runs -> Alcotest.failf "truncated record read as a ledger of %d run(s)" (List.length runs)
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the file" msg)
        true
        (String.starts_with ~prefix:path msg)

(* --- diff algebra ---------------------------------------------------- *)

let signatures fs = List.map (fun f -> f.Store.Record.f_signature) fs

let test_diff_self_empty () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let d = Store.Diff.compute record record in
  Alcotest.(check bool) "diff a a is empty" true (Store.Diff.is_empty d);
  Alcotest.(check int) "no new findings" 0 (List.length d.Store.Diff.new_findings);
  Alcotest.(check int) "no fixed findings" 0 (List.length d.Store.Diff.fixed_findings);
  Alcotest.(check int) "every finding persists"
    (List.length record.Store.Record.findings)
    (List.length d.Store.Diff.persisting)

let test_diff_symmetry () =
  let clean = run_recorded "btree" in
  let seeded = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let forward = Store.Diff.compute clean seeded in
  let backward = Store.Diff.compute seeded clean in
  Alcotest.(check (list string))
    "forward new = backward fixed"
    (signatures forward.Store.Diff.new_findings)
    (signatures backward.Store.Diff.fixed_findings);
  Alcotest.(check (list string))
    "forward fixed = backward new"
    (signatures forward.Store.Diff.fixed_findings)
    (signatures backward.Store.Diff.new_findings);
  Alcotest.(check (list string))
    "persisting agrees up to signature"
    (signatures forward.Store.Diff.persisting)
    (signatures backward.Store.Diff.persisting);
  Alcotest.(check bool)
    "the seeded bug produced at least one new finding" true
    (forward.Store.Diff.new_findings <> [])

(* --- explain --------------------------------------------------------- *)

let test_explain_resolves_every_finding () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  Alcotest.(check bool) "the seeded run has findings" true
    (record.Store.Record.findings <> []);
  List.iteri
    (fun i (f : Store.Record.finding) ->
      (* by 1-based index *)
      (match Store.Explain.find record (string_of_int (i + 1)) with
      | Error msg -> Alcotest.failf "finding %d unresolvable by index: %s" (i + 1) msg
      | Ok (f', p) ->
          Alcotest.(check string)
            (Printf.sprintf "index %d resolves to the right finding" (i + 1))
            f.Store.Record.f_id f'.Store.Record.f_id;
          Alcotest.(check string)
            (Printf.sprintf "provenance %d carries the finding's identity" (i + 1))
            f.Store.Record.f_signature p.Mumak.Provenance.p_signature;
          Alcotest.(check bool)
            (Printf.sprintf "chain %d is non-empty" (i + 1))
            true
            (Store.Explain.chain record (f', p) <> []));
      (* by finding-id (full ids are unique; prefixes may collide) *)
      match Store.Explain.find record f.Store.Record.f_id with
      | Error msg ->
          Alcotest.failf "finding %s unresolvable by id: %s" f.Store.Record.f_id msg
      | Ok (f', _) ->
          Alcotest.(check string) "id resolves to itself" f.Store.Record.f_id
            f'.Store.Record.f_id)
    record.Store.Record.findings

let test_explain_fi_findings_have_evidence () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  let fi =
    List.filter
      (fun (p : Mumak.Provenance.t) ->
        String.equal p.Mumak.Provenance.p_phase "fault_injection")
      record.Store.Record.provenance
  in
  Alcotest.(check bool) "the seeded run has fault-injection findings" true (fi <> []);
  List.iter
    (fun (p : Mumak.Provenance.t) ->
      Alcotest.(check bool) "FI finding carries a failure point" true
        (p.Mumak.Provenance.p_failure_point <> None);
      Alcotest.(check bool) "FI finding carries a trace window" true
        (p.Mumak.Provenance.p_window <> []);
      Alcotest.(check bool) "FI finding carries an image diff" true
        (p.Mumak.Provenance.p_image_diff <> None);
      Alcotest.(check bool) "FI finding carries a verdict" true
        (p.Mumak.Provenance.p_verdict <> None))
    fi

(* --- schema validator ------------------------------------------------ *)

let test_schema_accepts_emitted () =
  let record = run_recorded ~bugs:[ "btree_insert_no_tx" ] "btree" in
  (match Store.Schema.validate (Store.Record.to_json record) with
  | Error msg -> Alcotest.failf "emitted run record rejected: %s" msg
  | Ok _ -> ());
  let clean = run_recorded "btree" in
  match Store.Schema.validate (Store.Diff.to_json (Store.Diff.compute clean record)) with
  | Error msg -> Alcotest.failf "emitted diff record rejected: %s" msg
  | Ok _ -> ()

let test_schema_rejections () =
  let record = run_recorded "hashmap_atomic" in
  let json = Store.Record.to_json record in
  let patch key value = function
    | Json.Assoc fields ->
        Json.Assoc (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
    | other -> other
  in
  let expect_reject label doc =
    match Store.Schema.validate doc with
    | Ok desc -> Alcotest.failf "%s should be rejected (got OK: %s)" label desc
    | Error _ -> ()
  in
  expect_reject "wrong schema name" (patch "schema" (Json.String "mumak.wrong") json);
  expect_reject "wrong schema version" (patch "version" (Json.Int 999) json);
  expect_reject "unknown record type" (patch "type" (Json.String "blob") json);
  expect_reject "non-string run id" (patch "run_id" (Json.Int 7) json);
  expect_reject "missing counters" (patch "counters" Json.Null json);
  expect_reject "torn findings list" (patch "findings" (Json.List [ Json.Int 1 ]) json);
  expect_reject "findings/provenance length mismatch"
    (patch "provenance" (Json.List []) json);
  expect_reject "not a store document" (Json.Assoc [ ("hello", Json.Int 1) ])

(* --- trend gate ------------------------------------------------------ *)

let envelope ?(smoke = false) ~experiment ~wall ~alloc () =
  Json.Assoc
    [
      ("schema", Json.String "mumak.bench");
      ("version", Json.Int 2);
      ("experiment", Json.String experiment);
      ("smoke", Json.Bool smoke);
      ( "meta",
        Json.Assoc
          [
            ("git_commit", Json.String "deadbeef");
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("host_cores", Json.Int 4);
            ("smoke", Json.Bool smoke);
            ("wall_seconds", Json.Float wall);
            ("allocated_bytes", Json.Float alloc);
          ] );
    ]

let test_trend_gate () =
  (* single sample: no baseline, passes *)
  let only = Store.Trend.check [ envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 () ] in
  Alcotest.(check int) "one experiment judged" 1 (List.length only);
  Alcotest.(check bool) "no baseline passes" false (Store.Trend.any_regressed only);
  (* improvement: passes *)
  let improved =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:2.0 ~alloc:2e8 ();
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "improvement passes" false (Store.Trend.any_regressed improved);
  (* blow-up beyond factor + slack: fails *)
  let blown =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "10x wall blow-up fails" true (Store.Trend.any_regressed blown);
  (* a fast earlier run, not the latest prior one, is the baseline *)
  let min_baseline =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:1.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:50.0 ~alloc:1e8 ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e8 ();
      ]
  in
  Alcotest.(check bool) "baseline is the min over history, not the previous run" true
    (Store.Trend.any_regressed min_baseline);
  (* smoke and full runs trend as separate series *)
  let stratified =
    Store.Trend.check
      [
        envelope ~experiment:"scaling" ~wall:0.1 ~alloc:1e6 ~smoke:true ();
        envelope ~experiment:"scaling" ~wall:10.0 ~alloc:1e9 ();
      ]
  in
  Alcotest.(check int) "smoke trends separately" 2 (List.length stratified);
  Alcotest.(check bool) "full run is not judged against the smoke baseline" false
    (Store.Trend.any_regressed stratified)

(* --- bench history on disk ------------------------------------------ *)

let test_bench_history_roundtrip () =
  let ledger = temp_store () in
  let e1 = envelope ~experiment:"micro" ~wall:1.0 ~alloc:1e7 () in
  let e2 = envelope ~experiment:"micro" ~wall:1.1 ~alloc:1.1e7 () in
  Store.Ledger.append_bench ledger e1;
  Store.Ledger.append_bench ledger e2;
  let history = Store.Ledger.bench_history ledger in
  Alcotest.(check bool) "history preserves both envelopes in order" true
    (List.length history >= 2
    &&
    let last2 =
      List.filteri (fun i _ -> i >= List.length history - 2) history
    in
    List.map Json.to_string last2 = List.map Json.to_string [ e1; e2 ])

let () =
  Alcotest.run "store"
    [
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest prop_provenance_roundtrip;
          QCheck_alcotest.to_alcotest prop_finding_roundtrip;
          Alcotest.test_case "engine run record round-trips" `Quick test_record_roundtrip;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append/load by id and prefix" `Quick test_ledger_append_load;
          Alcotest.test_case "truncated run record is an error" `Quick
            test_ledger_truncated_record;
          Alcotest.test_case "bench history round-trips" `Quick
            test_bench_history_roundtrip;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self-diff is empty" `Quick test_diff_self_empty;
          Alcotest.test_case "new/fixed swap under exchange" `Quick test_diff_symmetry;
        ] );
      ( "explain",
        [
          Alcotest.test_case "every finding resolves" `Quick
            test_explain_resolves_every_finding;
          Alcotest.test_case "FI findings carry full evidence" `Quick
            test_explain_fi_findings_have_evidence;
        ] );
      ( "schema",
        [
          Alcotest.test_case "accepts emitted records" `Quick test_schema_accepts_emitted;
          Alcotest.test_case "rejects malformed records" `Quick test_schema_rejections;
        ] );
      ("trend", [ Alcotest.test_case "trend gate verdicts" `Quick test_trend_gate ]);
    ]
