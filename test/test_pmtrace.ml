(* Tests for the instrumentation layer: call stacks, tracing, stack
   resolution. *)

open Pmtrace

let run_scenario tracer =
  let d = Tracer.device tracer in
  Tracer.with_frame tracer "main" (fun () ->
      Tracer.with_frame tracer "insert" (fun () ->
          Pmem.Device.store_i64 d ~addr:0 1L;
          Pmem.Device.clwb d ~addr:0;
          Pmem.Device.sfence d);
      Tracer.with_frame tracer "insert" (fun () ->
          Pmem.Device.store_i64 d ~addr:64 2L;
          Pmem.Device.clwb d ~addr:64;
          Pmem.Device.sfence d))

let test_trace_collection () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create d in
  run_scenario tracer;
  Alcotest.(check int) "6 events" 6 (Trace.length (Tracer.trace tracer));
  let seqs = List.map (fun e -> e.Event.seq) (Trace.to_list (Tracer.trace tracer)) in
  Alcotest.(check (list int)) "monotonic seq" [ 1; 2; 3; 4; 5; 6 ] seqs

let test_stack_capture () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create ~with_stacks:true d in
  run_scenario tracer;
  let events = Trace.to_list (Tracer.trace tracer) in
  let stack_of n =
    match (List.nth events n).Event.stack with
    | Some c -> c
    | None -> Alcotest.fail "missing stack"
  in
  Alcotest.(check (list string)) "path" [ "_start"; "main"; "insert" ] (stack_of 0).Callstack.path;
  (* within one frame activation the op index advances per PM instruction *)
  Alcotest.(check int) "eventwise index 1" 1 (stack_of 0).Callstack.op_index;
  Alcotest.(check int) "eventwise index 3" 3 (stack_of 2).Callstack.op_index;
  (* the second activation of "insert" restarts its counter, so the same
     code point gets the same identity *)
  Alcotest.(check bool) "same identity across activations" true
    (Callstack.capture_equal (stack_of 0) (stack_of 3))

let test_frames_pop_on_exception () =
  let cs = Callstack.create () in
  (try Callstack.with_frame cs "f" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "stack empty after raise" 0 (Callstack.depth cs)

let test_listener_and_collect_flag () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create ~collect:false d in
  let n = ref 0 in
  Tracer.add_listener tracer (fun _ _ -> incr n);
  run_scenario tracer;
  Alcotest.(check int) "listener saw all" 6 !n;
  Alcotest.(check int) "no collection" 0 (Trace.length (Tracer.trace tracer))

let test_resolve_stacks () =
  let d = Pmem.Device.create ~size:4096 () in
  let tracer = Tracer.create d in
  run_scenario tracer;
  (* events were collected without stacks; resolve #2 and #5 by re-running *)
  let resolved =
    Tracer.resolve_stacks tracer ~wanted:[ 2; 5 ] ~run:(fun () -> run_scenario tracer)
  in
  Alcotest.(check int) "two resolved" 2 (Hashtbl.length resolved);
  let c2 = Hashtbl.find resolved 2 in
  Alcotest.(check (list string)) "resolved path" [ "_start"; "main"; "insert" ] c2.Callstack.path;
  Alcotest.(check int) "resolved index" 2 c2.Callstack.op_index

let test_trace_fold_order () =
  let t = Trace.create () in
  List.iter
    (fun seq -> Trace.add t { Event.seq; op = Pmem.Op.Store { addr = 0; size = 8; nt = false }; stack = None })
    [ 1; 2; 3 ];
  let seqs = Trace.fold t [] (fun acc e -> e.Event.seq :: acc) in
  Alcotest.(check (list int)) "fold in execution order" [ 3; 2; 1 ] seqs

let prop_capture_identity =
  QCheck.Test.make ~name:"capture equality is structural" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 6) (string_of_size (Gen.return 3))) small_nat)
    (fun (labels, k) ->
      let cs = Callstack.create () in
      List.iter (fun l -> Callstack.push cs l) labels;
      for _ = 1 to k do
        Callstack.tick cs
      done;
      let a = Callstack.capture cs and b = Callstack.capture cs in
      Callstack.capture_equal a b
      && Callstack.capture_compare a b = 0
      && Callstack.capture_hash a = Callstack.capture_hash b)

(* --- the persistency walk against the device --------------------- *)

type dev_op =
  | St of int * int  (* addr, size *)
  | St_nt of int  (* slot *)
  | Fl of Pmem.Op.flush_kind * int  (* kind, addr; past the pool = volatile *)
  | Sf
  | Mf
  | Cas of int  (* slot *)

let pool = 4 * Pmem.Addr.line_size

let dev_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a n -> St (a, n)) (int_bound (pool - 16)) (int_range 1 16));
        (2, map (fun s -> St_nt s) (int_bound ((pool / 8) - 1)));
        ( 4,
          map2
            (fun k a -> Fl (k, a))
            (oneofl [ Pmem.Op.Clflush; Pmem.Op.Clflushopt; Pmem.Op.Clwb ])
            (int_bound (pool + 64)) );
        (2, return Sf);
        (1, return Mf);
        (1, map (fun s -> Cas s) (int_bound ((pool / 8) - 1)));
      ])

(* The device's own events for a program: their [dirty] bits and pending
   counts are the reference the walk is checked against. *)
let device_ops prog =
  let d = Pmem.Device.create ~size:pool () in
  let ops = ref [] in
  Pmem.Device.set_hook d (Some (fun op -> ops := op :: !ops));
  List.iter
    (function
      | St (addr, n) -> Pmem.Device.store d ~addr (Bytes.make n 'x')
      | St_nt s -> Pmem.Device.store_nt_i64 d ~addr:(s * 8) 7L
      | Fl (Pmem.Op.Clflush, addr) -> Pmem.Device.clflush d ~addr
      | Fl (Pmem.Op.Clflushopt, addr) -> Pmem.Device.clflushopt d ~addr
      | Fl (Pmem.Op.Clwb, addr) -> Pmem.Device.clwb d ~addr
      | Sf -> Pmem.Device.sfence d
      | Mf -> Pmem.Device.mfence d
      | Cas s -> ignore (Pmem.Device.cas d ~addr:(s * 8) ~expected:0L ~desired:1L))
    prog;
  List.rev !ops

(* Where the walk and the device disagree on one program, if anywhere. *)
let walk_disagreement ops =
  let walk = Persist.create ignore in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
  List.iteri
    (fun i op ->
      Persist.tick walk op;
      match op with
      | Pmem.Op.Load _ -> ()
      | Pmem.Op.Store { addr; size; nt } -> Persist.store walk i ~addr ~size ~nt ignore
      | Pmem.Op.Flush { kind; line; dirty; volatile } ->
          let captures = (not volatile) && Persist.dirty walk line in
          ignore (Persist.flush walk i ~kind ~line ~volatile);
          if (not volatile) && captures <> dirty then
            fail "#%d: flush of line %d captures=%b but the device says dirty=%b" i line
              captures dirty
      | Pmem.Op.Fence { pending_flushes; pending_nt; _ } ->
          let lines = ref [] and nts = ref 0 in
          Persist.fence walk (fun w ->
              if w.Persist.nt then incr nts
              else if not w.Persist.persisted then
                if not (List.mem w.Persist.line !lines) then lines := w.Persist.line :: !lines);
          if List.length !lines > pending_flushes then
            fail "#%d: fence drains %d captured lines, device has %d pending flushes" i
              (List.length !lines) pending_flushes;
          if !nts <> pending_nt then
            fail "#%d: fence drains %d NT stores, device has %d" i !nts pending_nt)
    ops;
  !problem

let prop_walk_matches_device =
  QCheck.Test.make ~name:"persist walk agrees with the device" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map Pmem.Op.to_string (device_ops ops)))
       QCheck.Gen.(list_size (int_range 1 60) dev_op_gen))
    (fun prog ->
      match walk_disagreement (device_ops prog) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

let test_waste_rule () =
  let flush ~dirty ~volatile = Pmem.Op.Flush { kind = Pmem.Op.Clwb; line = 1; dirty; volatile } in
  let fence kind pending_flushes = Pmem.Op.Fence { kind; pending_flushes; pending_nt = 0 } in
  let check label expect op = Alcotest.(check bool) label true (Persist.waste op = expect) in
  check "volatile flush" (Some Persist.Volatile_flush) (flush ~dirty:false ~volatile:true);
  check "clean flush" (Some Persist.Clean_flush) (flush ~dirty:false ~volatile:false);
  check "dirty flush" None (flush ~dirty:true ~volatile:false);
  check "empty sfence" (Some Persist.Empty_fence) (fence Pmem.Op.Sfence 0);
  check "empty mfence" (Some Persist.Empty_fence) (fence Pmem.Op.Mfence 0);
  check "draining sfence" None (fence Pmem.Op.Sfence 1);
  check "empty RMW fence" None (fence Pmem.Op.Rmw 0)

let () =
  Alcotest.run "pmtrace"
    [
      ( "tracer",
        [
          Alcotest.test_case "collection" `Quick test_trace_collection;
          Alcotest.test_case "stack capture" `Quick test_stack_capture;
          Alcotest.test_case "frames pop on exception" `Quick test_frames_pop_on_exception;
          Alcotest.test_case "listener / collect flag" `Quick test_listener_and_collect_flag;
          Alcotest.test_case "resolve stacks" `Quick test_resolve_stacks;
          Alcotest.test_case "fold order" `Quick test_trace_fold_order;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_capture_identity ]);
      ( "persist",
        [
          QCheck_alcotest.to_alcotest prop_walk_matches_device;
          Alcotest.test_case "waste rule" `Quick test_waste_rule;
        ] );
    ]
