(* Tests for the Montage analogue: functional behaviour of both hashtables,
   clean crash-recovery (buffered semantics: committed epochs survive, the
   open epoch may be discarded), and exposure of the two real Montage bugs
   through the Mumak pipeline. *)

let size = Montage.Hashtable.min_pool_size

let test_hashtable_functional () =
  let dev = Pmem.Device.create ~size () in
  let t = Montage.Hashtable.create dev in
  let model = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match op with
      | Workload.Put (k, v) ->
          Montage.Hashtable.put t ~key:k ~value:v;
          Hashtbl.replace model k v
      | Workload.Get k ->
          if Montage.Hashtable.get t ~key:k <> Hashtbl.find_opt model k then
            Alcotest.failf "montage get mismatch for %Ld" k
      | Workload.Delete k ->
          let expect = Hashtbl.mem model k in
          Hashtbl.remove model k;
          if Montage.Hashtable.delete t ~key:k <> expect then
            Alcotest.failf "montage delete mismatch for %Ld" k)
    (Workload.standard ~ops:500 ~key_range:120 ~seed:5L);
  Alcotest.(check int) "count" (Hashtbl.length model) (Montage.Hashtable.count t)

let test_lf_hashtable_functional () =
  let dev = Pmem.Device.create ~size () in
  let t = Montage.Lf_hashtable.create dev in
  let model = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match op with
      | Workload.Put (k, v) ->
          Montage.Lf_hashtable.put t ~key:k ~value:v;
          Hashtbl.replace model k v
      | Workload.Get k ->
          if Montage.Lf_hashtable.get t ~key:k <> Hashtbl.find_opt model k then
            Alcotest.failf "montage_lf get mismatch for %Ld" k
      | Workload.Delete k ->
          let expect = Hashtbl.mem model k in
          Hashtbl.remove model k;
          if Montage.Lf_hashtable.delete t ~key:k <> expect then
            Alcotest.failf "montage_lf delete mismatch for %Ld" k)
    (Workload.standard ~ops:500 ~key_range:120 ~seed:5L);
  Alcotest.(check int) "count" (Hashtbl.length model) (Montage.Lf_hashtable.count t)

let test_buffered_crash_loses_at_most_open_epoch () =
  let dev = Pmem.Device.create ~size () in
  let t = Montage.Hashtable.create dev in
  (* 20 puts: epochs publish every 8 mutations, so 16 are committed *)
  for i = 1 to 20 do
    Montage.Hashtable.put t ~key:(Int64.of_int i) ~value:(Int64.of_int i)
  done;
  (* power cut without close: only fenced data survives *)
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Adr in
  Alcotest.(check (result unit string)) "recovery consistent" (Ok ())
    (Montage.Hashtable.recover (Pmem.Device.of_image img))

let test_close_makes_everything_durable () =
  let dev = Pmem.Device.create ~size () in
  let t = Montage.Hashtable.create dev in
  for i = 1 to 21 do
    Montage.Hashtable.put t ~key:(Int64.of_int i) ~value:(Int64.of_int i)
  done;
  Montage.Hashtable.close t;
  let img = Pmem.Device.crash dev ~policy:Pmem.Device.Adr in
  Alcotest.(check (result unit string)) "clean shutdown recovers" (Ok ())
    (Montage.Hashtable.recover (Pmem.Device.of_image img))

(* Clean sweep: crash at every PM instruction; recovery must always
   succeed. *)
let sweep variant () =
  let target =
    Targets.of_montage ~variant
      ~workload:(Workload.standard ~ops:60 ~key_range:30 ~seed:9L)
      ()
  in
  Bugreg.disable_all ();
  let result = Mumak.Engine.analyze target in
  let correctness = Mumak.Report.correctness_bugs result.Mumak.Engine.report in
  if correctness <> [] then
    Alcotest.failf "clean montage reported bugs:\n%s"
      (String.concat "\n" (List.map (Fmt.str "%a" Mumak.Report.pp_finding) correctness));
  Alcotest.(check bool) "failure points found" true (result.Mumak.Engine.failure_points > 5)

let expose bug variant () =
  Bugreg.with_enabled [ bug ] (fun () ->
      let target =
        Targets.of_montage ~variant
          ~workload:(Workload.standard ~ops:60 ~key_range:30 ~seed:9L)
          ()
      in
      let result = Mumak.Engine.analyze target in
      Alcotest.(check bool)
        (bug ^ " exposed")
        true
        (Mumak.Report.correctness_bugs result.Mumak.Engine.report <> []))

(* The lock-free table's CAS fences drain nothing, but deleting one would
   delete its CAS: only the close path's empty sfence is redundant. *)
let test_lf_cas_fences_not_redundant () =
  Bugreg.disable_all ();
  let target =
    Targets.of_montage ~variant:`Lockfree
      ~workload:(Workload.standard ~ops:600 ~key_range:200 ~seed:42L)
      ()
  in
  let report = (Mumak.Engine.analyze target).Mumak.Engine.report in
  let sites =
    List.filter_map
      (fun (f : Mumak.Report.finding) ->
        if f.Mumak.Report.kind = Mumak.Report.Redundant_fence then
          Option.map Pmtrace.Callstack.capture_to_string f.Mumak.Report.stack
        else None)
      (Mumak.Report.findings report)
  in
  Alcotest.(check (list string)) "redundant fence sites" [ "_start > montage_lf.close @1" ] sites

let () =
  Alcotest.run "montage"
    [
      ( "functional",
        [
          Alcotest.test_case "hashtable vs model" `Quick test_hashtable_functional;
          Alcotest.test_case "lf hashtable vs model" `Quick test_lf_hashtable_functional;
          Alcotest.test_case "buffered epoch semantics" `Quick
            test_buffered_crash_loses_at_most_open_epoch;
          Alcotest.test_case "close durability" `Quick test_close_makes_everything_durable;
        ] );
      ( "mumak-clean",
        [
          Alcotest.test_case "hashtable sweep" `Slow (sweep `Buffered);
          Alcotest.test_case "lf sweep" `Slow (sweep `Lockfree);
          Alcotest.test_case "lf CAS fences are not redundant" `Slow
            test_lf_cas_fences_not_redundant;
        ] );
      ( "new-bugs (paper 6.4)",
        [
          Alcotest.test_case "allocator recoverability bug" `Slow
            (expose "montage_alloc_head_unpersisted" `Buffered);
          Alcotest.test_case "destructor window bug" `Slow
            (expose "montage_dtor_window" `Buffered);
        ] );
    ]
