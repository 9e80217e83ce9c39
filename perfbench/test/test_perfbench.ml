(* Unit tests of the benchmark's own arithmetic: span self time, the
   percentile rule, the metric-name grammar and the known-answer scorer. *)

open Perfbench

let span ~id ~parent ~start ~stop ?(alloc = 0.) name =
  { Spans.id; name; verdict = 0; parent; start_ns = start; stop_ns = stop; alloc_bytes = alloc }

let self_of selves id =
  List.find (fun (x : Spans.self) -> x.Spans.s_span.Spans.id = id) selves

let close_to = Alcotest.float 1e-12

let test_self_nested () =
  (* parent [0,100) with children [10,30), [20,50) (overlapping: 40 covered
     once) and [90,120) (clipped to 10); a grandchild inside [10,30) counts
     against its own parent only *)
  let spans =
    [
      span ~id:0 ~parent:(-1) ~start:0 ~stop:100 ~alloc:1000. "verdict";
      span ~id:1 ~parent:0 ~start:10 ~stop:30 ~alloc:300. "materialize";
      span ~id:2 ~parent:0 ~start:20 ~stop:50 ~alloc:200. "record";
      span ~id:3 ~parent:0 ~start:90 ~stop:120 ~alloc:100. "engine";
      span ~id:4 ~parent:1 ~start:12 ~stop:17 ~alloc:50. "oracle";
    ]
  in
  let selves = Spans.self_times spans in
  Alcotest.check close_to "parent self" 50e-9 (self_of selves 0).Spans.self_s;
  Alcotest.check close_to "child self" 15e-9 (self_of selves 1).Spans.self_s;
  Alcotest.check close_to "leaf self" 5e-9 (self_of selves 4).Spans.self_s;
  Alcotest.check close_to "parent self alloc" 400. (self_of selves 0).Spans.self_alloc;
  Alcotest.check close_to "child self alloc" 250. (self_of selves 1).Spans.self_alloc;
  let tbl = Spans.by_layer selves in
  let verdict = Hashtbl.find tbl "verdict" in
  Alcotest.(check int) "calls" 1 verdict.Spans.calls

let test_with_span_records_nesting () =
  Spans.reset ();
  Spans.enabled := true;
  Spans.verdict := 7;
  let v =
    Spans.with_span "outer" (fun () ->
        ignore (Spans.with_span "inner" (fun () -> 1));
        (try Spans.with_span "raising" (fun () -> failwith "boom") with Failure _ -> ());
        2)
  in
  Spans.enabled := false;
  Alcotest.(check int) "value" 2 v;
  let spans = Spans.spans () in
  let by_name n = List.find (fun s -> s.Spans.name = n) spans in
  let outer = by_name "outer" in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "outer is a root" (-1) outer.Spans.parent;
  Alcotest.(check int) "inner parent" outer.Spans.id (by_name "inner").Spans.parent;
  Alcotest.(check int) "raising span closed" outer.Spans.id (by_name "raising").Spans.parent;
  Alcotest.(check bool) "same verdict id" true (List.for_all (fun s -> s.Spans.verdict = 7) spans);
  Alcotest.(check int) "disabled records nothing" 3
    (ignore (Spans.with_span "off" (fun () -> ()));
     List.length (Spans.spans ()));
  Spans.reset ()

let test_quantiles () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close_to "median" 3. (Stats.median xs);
  Alcotest.check close_to "q1" 2. (Stats.quantile 0.25 xs);
  Alcotest.check close_to "interpolated" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_p90_rule () =
  let samples n = List.init n float_of_int in
  Alcotest.(check (option (float 1e-9))) "99 samples: omitted" None (Stats.p90 (samples 99));
  Alcotest.(check (option (float 1e-9)))
    "100 samples: reported" (Some 89.1)
    (Stats.p90 (samples 100))

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "record.s"; "oracle.us_p50"; "a-b"; "9lives"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Metric.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "µs"; String.make 65 'x' ];
  Alcotest.check_raises "make refuses a bad name" (Invalid_argument "Metric.make: bad name a b")
    (fun () -> ignore (Metric.make "a b" 1. "s"))

let report kinds =
  let r = Mumak.Report.create ~target:"t" in
  List.iteri
    (fun i kind ->
      ignore
        (Mumak.Report.add r
           {
             Mumak.Report.kind;
             phase = Mumak.Report.Trace_analysis;
             stack = None;
             seq = Some i;
             detail = "";
             fix = None;
           }))
    kinds;
  r

let test_scorer () =
  let open Mumak.Report in
  let score answer ?baseline kinds = Known.score answer ~baseline (report kinds) in
  Alcotest.(check bool) "clean, performance finding only" true
    (score Known.Clean [ Redundant_flush; Transient_data_warning ]);
  Alcotest.(check bool) "clean, correctness finding" false (score Known.Clean [ Durability_bug ]);
  let c = Known.Seeded_correctness "some_bug" in
  Alcotest.(check bool) "seeded correctness, found" true (score c [ Unrecoverable_state ]);
  Alcotest.(check bool) "seeded correctness, recovery crash" true (score c [ Recovery_crash ]);
  Alcotest.(check bool) "seeded correctness, only a warning" false (score c [ Redundant_fence ]);
  let p = Known.Seeded_performance ("some_bug", Bugreg.Redundant_flush) in
  let baseline = report [ Redundant_flush ] in
  Alcotest.(check bool) "seeded performance, more than clean" true
    (score p ~baseline [ Redundant_flush; Redundant_flush ]);
  Alcotest.(check bool) "seeded performance, same as clean" false
    (score p ~baseline [ Redundant_flush; Redundant_fence ]);
  Alcotest.(check bool) "seeded performance, no clean run" false
    (score p [ Redundant_flush; Redundant_flush ]);
  Alcotest.(check bool) "designed miss" true
    (Known.expected_miss (Known.Seeded_correctness "wort_leaf_unflushed"));
  Alcotest.(check bool) "ordinary bug" false (Known.expected_miss c)

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_nested;
          Alcotest.test_case "with_span nesting and ids" `Quick test_with_span_records_nesting;
        ] );
      ( "stats",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "p90 needs 100 samples" `Quick test_p90_rule;
        ] );
      ("metric", [ Alcotest.test_case "name grammar" `Quick test_metric_names ]);
      ("known", [ Alcotest.test_case "known-answer scorer" `Quick test_scorer ]);
    ]
