(** The offline static analyzer: whole-trace analysis over recorded
    executions, run after tracing and before (or instead of) fault
    injection.

    Each run of the workload is recorded twice: once load-free with stacks
    (exact frame + ordinal anchors, in the same seq coordinates as the
    rest of the pipeline) and once with load tracing (dependency edges and
    pointer chases, whose seqs are normalized back to persistency-index
    coordinates). The dependency graphs of all runs feed the likely-
    invariant miner; the subject graph (run 0) is then scanned for
    instances that break an accepted invariant and for store windows that
    never reached durability — each finding carrying a concrete {!Fix.t}
    when one exists. Persistency instructions that do no work are left to
    the trace analysis, which reports every one of them, and to {!Lint},
    whose delete fixes are sound for every dynamic instance of a site. *)

type kind =
  | Durability  (** correctness: a store window never reached durability *)
  | Transient  (** its line is never flushed at all — PM as transient data? *)
  | Ordering  (** a persist-order hazard witnessed by a dependence *)
  | Atomicity  (** an accepted atomicity invariant was split by a fence *)

let kind_to_string = function
  | Durability -> "durability"
  | Transient -> "transient"
  | Ordering -> "ordering"
  | Atomicity -> "atomicity"

type finding = {
  kind : kind;
  seq : int;  (** persistency-index anchor *)
  stack : Pmtrace.Callstack.capture option;  (** frame + ordinal of the anchor *)
  detail : string;
  fix : Fix.t option;
  ident : string option;
      (** for invariant-backed findings (ordering / atomicity), the mined
          invariant the instance violates — identity that survives trace
          rewrites even when the anchor shifts or the violation is
          re-described (a dangling pointee becoming an unordered one is
          the same chase) *)
}

type t = {
  findings : finding list;
  invariants : Invariants.t;
  graph : Dep_graph.t;  (** the subject run's graph *)
  hot_windows : (int * int * int) list;
      (** (lo, hi, weight) persistency-index windows implicated by a
          violation or a dangling store — the input to {!Prioritize} *)
  hot_frames : string list;
      (** innermost call-stack frame labels of the violation anchors that
          emitted windows; windows are per-activation, so a violation that
          repeats across activations (tree splits at different depths) is
          only witnessed in one window — the frame label generalizes the
          evidence to every failure point of the same operation *)
  runs : int;
  events : int;  (** total events folded into graphs across recordings *)
}

(* Index a load-free recorded trace: seq -> stack capture. *)
let index_stacks events =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      match e.Pmtrace.Event.stack with
      | Some c -> Hashtbl.replace tbl e.Pmtrace.Event.seq c
      | None -> ())
    events;
  tbl

let capture_str tbl p =
  Option.map Pmtrace.Callstack.capture_to_string (Hashtbl.find_opt tbl p)

let kind_rank = function
  | Durability -> 0
  | Transient -> 1
  | Ordering -> 2
  | Atomicity -> 3

(** [analyze ~support ~confidence ~eadr runs] — each run is
    [(load_free_events, load_traced_events)] of one recorded execution of
    the same deterministic workload. [invariants] skips the mining and
    scans against the given invariant set instead — how the fix verifier
    re-checks a rewritten trace under the {e baseline} invariants. *)
let analyze ?invariants ~support ~confidence ~eadr
    (runs : (Pmtrace.Event.t list * Pmtrace.Event.t list) list) =
  Telemetry.Collector.span ~cat:"static" "analyze" @@ fun () ->
  assert (runs <> []);
  let stacks = List.map (fun (noload, _) -> index_stacks noload) runs in
  let graphs =
    List.map2
      (fun (_, loaded) tbl -> Dep_graph.build ~loc_of_pseq:(capture_str tbl) loaded)
      runs stacks
  in
  let invariants =
    match invariants with
    | Some i -> i
    | None ->
        let with_locs =
          List.map (fun g -> (g, fun (n : Dep_graph.node) -> n.Dep_graph.locs)) graphs
        in
        Invariants.mine ~support ~confidence with_locs
  in
  let g = List.hd graphs in
  let stack_tbl = List.hd stacks in
  let stack_of p = Hashtbl.find_opt stack_tbl p in
  (* Widen a hot window by one persist epoch on each side: the suspicious
     publish point is typically a fence {e adjacent} to the witnessed
     window — the one that closed the preceding epoch, or the next
     persisting fence after the window's own (e.g. the pointer swap whose
     pointee was copied inside the window) — and [Prioritize]'s coverage
     test is [lo < s <= hi]. *)
  let fence_ps =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list
            (Array.map (fun (n : Dep_graph.node) -> n.Dep_graph.fence_p) g.Dep_graph.nodes)))
  in
  let widen lo hi =
    let n = Array.length fence_ps in
    let rec prev l h acc =
      if l > h then acc
      else
        let mid = (l + h) / 2 in
        if fence_ps.(mid) < lo then prev (mid + 1) h (Some fence_ps.(mid))
        else prev l (mid - 1) acc
    in
    let rec next l h acc =
      if l > h then acc
      else
        let mid = (l + h) / 2 in
        if fence_ps.(mid) > hi then next l (mid - 1) (Some fence_ps.(mid))
        else next (mid + 1) h acc
    in
    let lo' = match prev 0 (n - 1) None with None -> lo | Some f -> min lo (f - 1) in
    let hi' = match next 0 (n - 1) None with None -> hi | Some f -> max hi f in
    (lo', hi')
  in
  let findings = ref [] and hot = ref [] and frames = ref [] in
  let add ?fix ?window ?ident kind seq detail =
    (match window with
    | Some (lo, hi, w) -> (
        let lo, hi = widen lo hi in
        hot := (lo, hi, w) :: !hot;
        match stack_of seq with
        | Some c -> (
            match List.rev c.Pmtrace.Callstack.path with
            | innermost :: _ -> frames := innermost :: !frames
            | [] -> ())
        | None -> ())
    | None -> ());
    findings := { kind; seq; stack = stack_of seq; detail; fix; ident } :: !findings
  in
  let fix action seq rationale = { Fix.action; seq; stack = stack_of seq; rationale } in
  (* ---- durability: store windows that never reached a fence ---- *)
  if not eadr then
    List.iter
      (fun (d : Dep_graph.dangling) ->
        match d.Dep_graph.d_flush_p with
        | Some fp ->
            add ~fix:(fix Fix.Insert_fence fp "the flush is issued but never drained")
              ~window:(d.Dep_graph.d_first_store_p, fp, 10)
              Durability fp
              (Printf.sprintf "line %d flushed at #%d but never fenced" d.Dep_graph.d_line fp)
        | None ->
            if d.Dep_graph.d_line_flushed then
              add
                ~fix:
                  (fix
                     (Fix.Insert_flush { line = d.Dep_graph.d_line })
                     d.Dep_graph.d_last_store_p
                     "the stores are left in the cache; flush the line and fence")
                ~window:(d.Dep_graph.d_first_store_p, d.Dep_graph.d_last_store_p, 10)
                Durability d.Dep_graph.d_last_store_p
                (Printf.sprintf "stores to line %d never persisted (line is flushed elsewhere)"
                   d.Dep_graph.d_line)
            else
              add
                ~fix:
                  (fix
                     (Fix.Insert_flush { line = d.Dep_graph.d_line })
                     d.Dep_graph.d_last_store_p "flush and fence the line if the data must survive")
                Transient d.Dep_graph.d_last_store_p
                (Printf.sprintf "line %d written but never flushed: PM used for transient data?"
                   d.Dep_graph.d_line))
      g.Dep_graph.dangling;
  (* ---- ordering: pointer chases that break an accepted invariant ---- *)
  let supported paths =
    List.find_opt
      (fun (s : Invariants.ordering_stat) ->
        String.equal s.Invariants.o_src_path (fst paths)
        && String.equal s.Invariants.o_dst_path (snd paths))
      invariants.Invariants.orderings
  in
  let seen_chase = Hashtbl.create 16 in
  let chase_ident (src, dst) = Printf.sprintf "chase:%s->%s" src dst in
  List.iter
    (fun (c : Dep_graph.chase) ->
      match supported c.Dep_graph.c_paths with
      | None -> ()
      | Some stat -> (
          let conf = Invariants.o_confidence stat in
          let describe what anchor =
            Printf.sprintf
              "%s (reader path: %s -> %s; %d/%d instances enforce pointee-first, confidence \
               %.2f); anchor #%d"
              what (fst c.Dep_graph.c_paths) (snd c.Dep_graph.c_paths) stat.Invariants.o_enforced
              stat.Invariants.o_instances conf anchor
          in
          let once cls f =
            let key = (c.Dep_graph.c_paths, cls) in
            if not (Hashtbl.mem seen_chase key) then begin
              Hashtbl.replace seen_chase key ();
              f ()
            end
          in
          let src = Dep_graph.node g c.Dep_graph.c_src in
          match c.Dep_graph.c_dst with
          | Dep_graph.Persisted id ->
              let dst = Dep_graph.node g id in
              if dst.Dep_graph.epoch = src.Dep_graph.epoch then
                once `Unordered (fun () ->
                    (* both flushed, one fence: persist order unconstrained *)
                    let anchor =
                      match (dst.Dep_graph.flush_p, src.Dep_graph.flush_p) with
                      | Some a, Some b -> max a b
                      | Some a, None | None, Some a -> a
                      | None, None -> src.Dep_graph.fence_p
                    in
                    let lo =
                      min dst.Dep_graph.first_store_p src.Dep_graph.first_store_p
                    in
                    add
                      ~fix:
                        (fix Fix.Insert_fence anchor
                           "drain the pointee's flush before flushing the pointer")
                      ~window:(lo, src.Dep_graph.fence_p, 100)
                      ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                      (describe
                         (Printf.sprintf
                            "pointee line %d and pointer line %d persist at the same fence; \
                             their order is left to the hardware"
                            dst.Dep_graph.line src.Dep_graph.line)
                         anchor))
              else if dst.Dep_graph.epoch > src.Dep_graph.epoch then
                once `Inverted (fun () ->
                    let anchor =
                      Option.value ~default:src.Dep_graph.fence_p src.Dep_graph.flush_p
                    in
                    add
                      ~fix:
                        (fix
                           (Fix.Insert_flush { line = dst.Dep_graph.line })
                           anchor "persist the pointee before publishing the pointer")
                      ~window:(src.Dep_graph.first_store_p, dst.Dep_graph.fence_p, 100)
                      ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                      (describe
                         (Printf.sprintf
                            "pointer line %d persisted at epoch %d before pointee line %d \
                             (epoch %d)"
                            src.Dep_graph.line src.Dep_graph.epoch dst.Dep_graph.line
                            dst.Dep_graph.epoch)
                         anchor))
          | Dep_graph.Dirty_window -> (
              (* only a hazard if the pointee never reaches durability *)
              match
                List.find_opt
                  (fun (d : Dep_graph.dangling) ->
                    d.Dep_graph.d_line = c.Dep_graph.c_dst_line
                    && d.Dep_graph.d_first_store_p <= c.Dep_graph.c_seq_p)
                  g.Dep_graph.dangling
              with
              | None -> ()
              | Some d ->
                  once `Dangling (fun () ->
                      let anchor = d.Dep_graph.d_last_store_p in
                      add
                        ~fix:
                          (fix
                             (Fix.Insert_flush { line = d.Dep_graph.d_line })
                             anchor "the pointer is persisted but its target never is")
                        ~window:(d.Dep_graph.d_first_store_p, d.Dep_graph.d_last_store_p, 100)
                        ~ident:(chase_ident c.Dep_graph.c_paths) Ordering anchor
                        (describe
                           (Printf.sprintf
                              "pointer line %d is persisted but pointee line %d never reaches \
                               durability"
                              src.Dep_graph.line d.Dep_graph.d_line)
                           anchor)))
          | Dep_graph.Unknown -> ()))
    g.Dep_graph.chases;
  (* ---- ordering: read-after-persist dependences whose locations
          co-persist in a single epoch ---- *)
  let occupancy = Dep_graph.epoch_groups g in
  List.iter
    (fun (dep : Invariants.dep_stat) ->
      if dep.Invariants.dep_co > 0 then
        let witness =
          List.find_map
            (fun (_, nodes) ->
              let holds loc (n : Dep_graph.node) = List.mem loc n.Dep_graph.locs in
              match
                ( List.find_opt (holds dep.Invariants.dep_src) nodes,
                  List.find_opt (holds dep.Invariants.dep_dst) nodes )
              with
              | Some a, Some b when a.Dep_graph.id <> b.Dep_graph.id -> Some (a, b)
              | _ -> None)
            occupancy
        in
        match witness with
        | None -> ()
        | Some (a, b) ->
            let anchor =
              match (a.Dep_graph.flush_p, b.Dep_graph.flush_p) with
              | Some x, Some y -> max x y
              | Some x, None | None, Some x -> x
              | None, None -> a.Dep_graph.fence_p
            in
            add
              ~fix:
                (fix Fix.Insert_fence anchor
                   "order the dependence: fence between the two flushes")
              ~window:
                (min a.Dep_graph.first_store_p b.Dep_graph.first_store_p, a.Dep_graph.fence_p, 100)
              ~ident:
                (Printf.sprintf "dep:%s->%s" dep.Invariants.dep_src dep.Invariants.dep_dst)
              Ordering anchor
              (Printf.sprintf
                 "%s is read to derive %s (%d dependence witnesses) but both persist at the \
                  same fence in %d epoch(s)"
                 dep.Invariants.dep_src dep.Invariants.dep_dst dep.Invariants.dep_count
                 dep.Invariants.dep_co))
    invariants.Invariants.deps;
  (* ---- atomicity: accepted co-persist invariants split by a fence ---- *)
  List.iter
    (fun (ap : Invariants.atomic_stat) ->
      if ap.Invariants.a_split > 0 then
        match
          List.find_opt (fun (gi, _, _) -> gi = 0) ap.Invariants.a_split_instances
        with
        | None -> ()
        | Some (_, ida, idb) ->
            let a = Dep_graph.node g ida and b = Dep_graph.node g idb in
            let lo = min a.Dep_graph.first_store_p b.Dep_graph.first_store_p
            and hi = max a.Dep_graph.fence_p b.Dep_graph.fence_p in
            add ~window:(lo, hi, 50)
              ~ident:(Printf.sprintf "atomic:%s&%s" ap.Invariants.a_loc1 ap.Invariants.a_loc2)
              Atomicity
              (min a.Dep_graph.fence_p b.Dep_graph.fence_p)
              (Printf.sprintf
                 "%s and %s persist atomically in %d epoch(s) (confidence %.2f) but are \
                  split %d time(s); a crash between the fences tears the pair"
                 ap.Invariants.a_loc1 ap.Invariants.a_loc2 ap.Invariants.a_co
                 (Invariants.a_confidence ap) ap.Invariants.a_split))
    invariants.Invariants.atomic_pairs;
  (* Deterministic findings order: invariant tables iterate in hash order,
     so emission order can drift across runs — sort by (anchor, kind,
     detail) instead. *)
  let findings =
    List.sort
      (fun a b ->
        Stdlib.compare (a.seq, kind_rank a.kind, a.detail) (b.seq, kind_rank b.kind, b.detail))
      !findings
  in
  {
    findings;
    invariants;
    graph = g;
    hot_windows = List.rev !hot;
    hot_frames = List.sort_uniq compare !frames;
    runs = List.length runs;
    events = List.fold_left (fun acc gr -> acc + gr.Dep_graph.events) 0 graphs;
  }

let pp_finding ppf f =
  Fmt.pf ppf "[SA] %s: %s%s" (kind_to_string f.kind) f.detail
    (match f.fix with None -> "" | Some fx -> "\n    fix: " ^ Fix.to_string fx)

let pp ppf t =
  Fmt.pf ppf "static analysis over %d run(s): %a; %a; %d finding(s)" t.runs Dep_graph.pp
    t.graph Invariants.pp t.invariants (List.length t.findings);
  List.iter (fun f -> Fmt.pf ppf "@.%a" pp_finding f) t.findings
