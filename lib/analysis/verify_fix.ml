(** Engine-backed fix verification: every {!Fix.t} the analyses suggest is
    applied to the recorded trace as a concrete edit, the rewritten trace is
    replayed, and both the crash-consistency oracle and the static detectors
    are re-run over the result — upgrading an advisory suggestion to a
    machine-checked verdict.

    A fix is {e proven} when the finding it targets disappears from the
    rewritten trace and no new harm shows up; {e ineffective} when the
    finding survives; {e harmful} when the rewrite introduces a new
    correctness-grade finding (oracle bug, structural durability /
    ordering / atomicity violation, stranded store window) or — for
    deletions, which promise behaviour preservation — changes the final
    persisted image.

    Everything here is offline: verification costs replays (trace
    interpretation), never target re-executions. The oracle and
    failure-point enumerators are passed in as closures so this module
    stays below the engine in the dependency order. *)

type verdict = Proven | Ineffective | Harmful

let verdict_to_string = function
  | Proven -> "proven"
  | Ineffective -> "ineffective"
  | Harmful -> "harmful"

type source = Static_finding | Lint_finding

let source_to_string = function Static_finding -> "static" | Lint_finding -> "lint"

type candidate = {
  c_source : source;
  c_kind : string;  (** source-specific kind string of the targeted finding *)
  c_stack : Pmtrace.Callstack.capture option;  (** the finding's code path *)
  c_pseq : int;  (** the finding's persistency-index anchor *)
  c_fix : Fix.t;
}

type outcome = { o_candidate : candidate; o_verdict : verdict; o_detail : string }

type t = {
  outcomes : outcome list;  (** in {!Fix.compare} order of the fixes *)
  proven : int;
  ineffective : int;
  harmful : int;
  replays : int;  (** trace passes performed (normalization + materialization) *)
}

(* Finding identity across a rewrite: kind + code path. Stacks survive
   rewriting (recorded events keep theirs; synthesized events have none),
   whereas anchors and detail strings embed persistency indices that shift
   past an insertion. *)
let finding_key kind stack pseq =
  kind ^ "@"
  ^
  match stack with
  | Some c -> Pmtrace.Callstack.capture_to_string c
  | None -> Printf.sprintf "#%d" pseq

let candidate_key c = finding_key c.c_kind c.c_stack c.c_pseq

(** The concrete trace edits a {!Fix.t} stands for at one anchor. An
    inserted flush gets a fence right behind it: under the buffered
    persistency model a flush only reaches durability at a fence, so the
    flush alone would leave the window exactly as dangling as before. *)
let edits_at (fix : Fix.t) ?at_op ?(with_fence = true) pseq =
  match fix.Fix.action with
  | Fix.Insert_flush { line } ->
      (* a flush-the-store fix follows the store it repairs: when the
         instance is a store, flush the line *that* instance dirtied — the
         same source line touches a different cache line each execution *)
      let line =
        match at_op with
        | Some (Pmem.Op.Store { addr; _ }) -> Pmem.Addr.line_of addr
        | Some _ | None -> line
      in
      Pmtrace.Replay.Insert_flush_after { pseq; line }
      :: (if with_fence then [ Pmtrace.Replay.Insert_fence_after { pseq } ] else [])
  | Fix.Insert_fence -> [ Pmtrace.Replay.Insert_fence_after { pseq } ]
  | Fix.Delete_flush _ -> [ Pmtrace.Replay.Delete_flush_at { pseq } ]
  | Fix.Delete_fence -> [ Pmtrace.Replay.Delete_fence_at { pseq } ]
  (* transformation actions at a single anchor instance; the optimizer
     builds richer per-instance edit lists itself, this mapping is what a
     bare (stackless) anchor stands for *)
  | Fix.Move_flush { to_pseq; _ } -> [ Pmtrace.Replay.Move_flush_to { pseq; to_pseq } ]
  | Fix.Coalesce_flushes _ -> [ Pmtrace.Replay.Delete_flush_at { pseq } ]
  | Fix.Batch_fences _ -> [ Pmtrace.Replay.Delete_fence_at { pseq } ]
  | Fix.Convert_to_nt { flush_pseq; _ } ->
      [
        Pmtrace.Replay.Set_store_nt { pseq };
        Pmtrace.Replay.Delete_flush_at { pseq = flush_pseq };
      ]
  | Fix.Convert_to_clwb _ ->
      [ Pmtrace.Replay.Set_flush_kind { pseq; kind = Pmem.Op.Clwb } ]

let edits_of_fix (fix : Fix.t) = edits_at fix fix.Fix.seq

(* A fix names a code site, not a dynamic instruction: every event whose
   capture (innermost path + ordinal) equals the fix's anchor is the same
   static instruction executing again. Captures of frame instances that
   took different branches can collide on the ordinal, so an instance also
   has to carry the op shape the fix's action expects (deletes anchor at
   the deleted flush/fence, inserts at the store to be persisted). *)
let site_pseqs (fix : Fix.t) events =
  let shape : Pmem.Op.t -> _ = function
    | Pmem.Op.Store _ -> `Store
    | Pmem.Op.Flush _ -> `Flush
    | Pmem.Op.Fence _ -> `Fence
    | Pmem.Op.Load _ -> `Load
  in
  match fix.Fix.stack with
  | None -> [ (fix.Fix.seq, None) ]
  | Some c ->
      let want = Pmtrace.Callstack.capture_to_string c in
      let pseq = ref 0 and matches = ref [] in
      List.iter
        (fun (e : Pmtrace.Event.t) ->
          match e.Pmtrace.Event.op with
          | Pmem.Op.Load _ -> ()
          | op -> (
              incr pseq;
              match e.Pmtrace.Event.stack with
              | Some c' when Pmtrace.Callstack.capture_to_string c' = want ->
                  matches := (!pseq, op) :: !matches
              | _ -> ()))
        events;
      let matches = List.rev !matches in
      (* only instances shaped like the anchor event count: captures of
         frame instances that branched differently can collide on the
         ordinal, and a delete edit additionally requires its shape *)
      let anchor_shape =
        Option.map shape (List.assoc_opt fix.Fix.seq matches)
      in
      let allowed s =
        (match anchor_shape with Some a -> s = a | None -> true)
        &&
        match fix.Fix.action with
        | Fix.Delete_flush _ -> s = `Flush
        | Fix.Delete_fence -> s = `Fence
        | Fix.Insert_flush _ | Fix.Insert_fence -> true
        | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Convert_to_clwb _ -> s = `Flush
        | Fix.Batch_fences _ -> s = `Fence
        | Fix.Convert_to_nt _ -> s = `Store
      in
      (match
         List.filter_map
           (fun (p, op) -> if allowed (shape op) then Some (p, Some op) else None)
           matches
       with
      | [] -> [ (fix.Fix.seq, None) ]
      | l -> l)

(** A source-level repair applies everywhere the repaired instruction
    executes: the fix's edits, expanded to every dynamic instance of its
    anchor site in [events] (inserted flushes chase each instance's own
    cache line). An inserted flush is paired with a fence only when no
    recorded fence follows it — a later fence drains the flush anyway,
    while a synthesized one splits the surrounding persist epoch and can
    break the program's own atomicity batching. *)
let expand_fix (fix : Fix.t) events =
  let last_fence_p =
    let pseq = ref 0 and last = ref 0 in
    List.iter
      (fun (e : Pmtrace.Event.t) ->
        match e.Pmtrace.Event.op with
        | Pmem.Op.Load _ -> ()
        | Pmem.Op.Fence _ ->
            incr pseq;
            last := !pseq
        | _ -> incr pseq)
      events;
    !last
  in
  List.concat_map
    (fun (p, at_op) -> edits_at fix ?at_op ~with_fence:(p >= last_fence_p) p)
    (site_pseqs fix events)

let is_delete (fix : Fix.t) =
  match fix.Fix.action with
  | Fix.Delete_flush _ | Fix.Delete_fence -> true
  | Fix.Insert_flush _ | Fix.Insert_fence -> false
  (* every transformation action promises behaviour preservation, so it is
     held to the deletion standard: the final persisted image must not
     change *)
  | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Batch_fences _ | Fix.Convert_to_nt _
  | Fix.Convert_to_clwb _ -> true

(* ------------------------------------------------------------------ *)
(* Key sets from the three checkers                                    *)
(* ------------------------------------------------------------------ *)

module Keys = Set.Make (String)

let static_keys ~correctness_only (s : Static.t) =
  List.fold_left
    (fun acc (f : Static.finding) ->
      let corr =
        match f.Static.kind with
        | Static.Durability | Static.Ordering | Static.Atomicity -> true
        | Static.Transient -> false
      in
      if correctness_only && not corr then acc
      else
        let key =
          (* invariant-backed findings carry the violated invariant's
             identity: a rewrite that shifts the anchor or re-describes the
             violation (dangling pointee -> unordered pointee) is still the
             same defect, not a new one *)
          match f.Static.ident with
          | Some id -> Static.kind_to_string f.Static.kind ^ "@" ^ id
          | None -> finding_key (Static.kind_to_string f.Static.kind) f.Static.stack f.Static.seq
        in
        Keys.add key acc)
    Keys.empty s.Static.findings

let lint_keys ?only (l : Lint.t) =
  List.fold_left
    (fun acc (f : Lint.finding) ->
      if match only with Some k -> f.Lint.l_kind <> k | None -> false then acc
      else Keys.add (finding_key (Lint.kind_to_string f.Lint.l_kind) f.Lint.l_stack f.Lint.l_pseq) acc)
    Keys.empty l.Lint.findings

(* Offline fault injection: enumerate the trace's failure points with the
   [points] closure and classify each one's materialized crash image. The
   program-prefix view is Mumak's graceful model; with [adr] the
   conservative ADR view, under which only fenced data survives, is judged
   too — the view that makes deleted or deferred persist instructions
   observable. Returns the oracle-bug key sets of both views (the ADR one
   empty when not judged). *)
let inject ~adr ~points ~oracle recording =
  let captures = Hashtbl.create 64 in
  List.iter
    (fun (_, pseq, capture) -> Hashtbl.replace captures pseq capture)
    (points (Pmtrace.Replay.events recording));
  let wanted = Hashtbl.fold (fun pseq _ acc -> (pseq, pseq) :: acc) captures [] in
  let judge policy =
    let keys = ref Keys.empty in
    ignore
      (Pmtrace.Replay.materialize ~policy recording ~points:wanted ~f:(fun ~key image ->
           match oracle image with
           | None -> ()
           | Some (kind, _detail) ->
               let capture = Hashtbl.find captures key in
               keys := Keys.add (kind ^ "@" ^ Pmtrace.Callstack.capture_to_string capture) !keys));
    !keys
  in
  (judge Pmem.Device.Program_prefix, if adr then judge Pmem.Device.Adr else Keys.empty)

(* A post-rewrite finding anchored at a synthesized event (stackless key,
   "kind@#pseq") has no source location: it is the detector re-describing
   the inserted instruction itself, not a new defect at a program site.
   Hazards between recorded instructions keep their stacks and still
   register. *)
let attributable key =
  match String.index_opt key '@' with
  | Some i -> not (i + 1 < String.length key && key.[i + 1] = '#')
  | None -> true

(* ------------------------------------------------------------------ *)
(* The recheck cascade                                                 *)
(* ------------------------------------------------------------------ *)

(* What the checks see on one trace: the static analysis of its
   load-free/load-traced event pair, the lint of its events, its offline
   injection under the program-prefix crash view and, when enabled, the
   conservative ADR view, and the persisted image its normalization pass
   ends with. *)
type view = {
  v_static : Static.t;
  v_lint : Lint.t;
  v_structural : Keys.t;
  v_missing : Keys.t;
  v_prefix : Keys.t;
  v_adr : Keys.t;
  v_image : Pmem.Image.t;
}

type checker = {
  ck_view :
    Pmtrace.Replay.t -> Pmtrace.Event.t list * Pmtrace.Event.t list -> Pmem.Image.t -> view;
  ck_base : view;
  ck_passes : int;  (* materialization passes per trace: one per crash view *)
  mutable ck_replays : int;
}

let checker ?invariants ?(adr = false) ~support ~confidence ~eadr ~oracle ~points noload pair =
  let view ?invariants recording (events, loaded_events) v_image =
    let v_static =
      Static.analyze ?invariants ~support ~confidence ~eadr [ (events, loaded_events) ]
    in
    let v_lint = Lint.analyze ~eadr events in
    let v_prefix, v_adr = inject ~adr ~points ~oracle recording in
    {
      v_static;
      v_lint;
      v_structural = static_keys ~correctness_only:true v_static;
      v_missing = lint_keys ~only:Lint.Missing_flush v_lint;
      v_prefix;
      v_adr;
      v_image;
    }
  in
  (* invariants are mined once, on the baseline, and reused by every recheck *)
  let base = view ?invariants noload pair (snd (Pmtrace.Replay.normalize noload)) in
  let passes = if adr then 2 else 1 in
  {
    ck_view = view ~invariants:base.v_static.Static.invariants;
    ck_base = base;
    ck_passes = passes;
    ck_replays = 1 + passes;
  }

let replays ck = ck.ck_replays

type recheck = { r_events : Pmtrace.Event.t list; r_view : view; r_harm : string option }

let recheck ck ?loaded noload edits =
  match Pmtrace.Replay.rewrite noload edits with
  | exception Failure msg -> Error msg
  | rewritten ->
      let norm, image = Pmtrace.Replay.normalize rewritten in
      let norm_loaded =
        match loaded with
        | Some l -> fst (Pmtrace.Replay.normalize (Pmtrace.Replay.rewrite l edits))
        | None -> norm
      in
      let v = ck.ck_view rewritten (norm, norm_loaded) image in
      ck.ck_replays <-
        ck.ck_replays + ck.ck_passes + (match loaded with Some _ -> 2 | None -> 1);
      let fresh keys =
        Keys.elements (Keys.diff (keys v) (keys ck.ck_base)) |> List.filter attributable
      in
      let harm =
        match
          ( fresh (fun v -> v.v_prefix),
            fresh (fun v -> v.v_adr),
            fresh (fun v -> v.v_structural),
            fresh (fun v -> v.v_missing) )
        with
        | bug :: _, _, _, _ -> Some ("introduces an oracle bug: " ^ bug)
        | [], bug :: _, _, _ -> Some ("introduces an oracle bug under the ADR crash view: " ^ bug)
        | [], [], v :: _, _ -> Some ("introduces a structural violation: " ^ v)
        | [], [], [], v :: _ -> Some ("strands a store window: " ^ v)
        | [], [], [], [] -> None
      in
      Ok { r_events = norm; r_view = v; r_harm = harm }

let image_changed ck r = not (Pmem.Image.equal ck.ck_base.v_image r.r_view.v_image)

(* One entry per distinct key, first occurrence kept, order preserved. *)
let dedup key items =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
    items

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify ?invariants ~support ~confidence ~eadr
    ~(oracle : Pmem.Image.t -> (string * string) option)
    ~(points : Pmtrace.Event.t list -> (int * int * Pmtrace.Callstack.capture) list)
    ~(noload : Pmtrace.Replay.t) ~(loaded : Pmtrace.Replay.t) (candidates : candidate list) =
  Telemetry.Collector.span ~cat:"verify" "verify_fixes" @@ fun () ->
  let events = Pmtrace.Replay.events noload in
  let ck =
    checker ?invariants ~support ~confidence ~eadr ~oracle ~points noload
      (events, Pmtrace.Replay.events loaded)
  in
  (* deterministic order, one verdict per distinct edit *)
  let candidates =
    dedup (fun c -> Fix.key c.c_fix)
      (List.stable_sort (fun a b -> Fix.compare a.c_fix b.c_fix) candidates)
  in
  let judge c =
    (* one edit list, computed in noload coordinates and applied to both
       recordings: the persistency index is shared (it skips loads), while
       capture ordinals are not — a load-traced frame counts its loads, so
       matching sites by capture against the loaded trace would hit
       different instructions *)
    let verdict, detail =
      match recheck ck ~loaded noload (expand_fix c.c_fix events) with
      | Error msg -> (Ineffective, msg)
      | Ok { r_harm = Some harm; _ } -> (Harmful, harm)
      | Ok r when is_delete c.c_fix && image_changed ck r ->
          (Harmful, "deletion changes the final persisted image")
      | Ok r ->
          let keys =
            match c.c_source with
            | Static_finding -> static_keys ~correctness_only:false r.r_view.v_static
            | Lint_finding -> lint_keys r.r_view.v_lint
          in
          if not (Keys.mem (candidate_key c) keys) then
            (Proven, "targeted finding gone from the rewritten trace; no new findings")
          else (Ineffective, "targeted finding still present in the rewritten trace")
    in
    { o_candidate = c; o_verdict = verdict; o_detail = detail }
  in
  let outcomes = List.map judge candidates in
  let tally v = List.length (List.filter (fun o -> o.o_verdict = v) outcomes) in
  let proven = tally Proven and ineffective = tally Ineffective and harmful = tally Harmful in
  Telemetry.Collector.count "fix.proven" proven;
  Telemetry.Collector.count "fix.ineffective" ineffective;
  Telemetry.Collector.count "fix.harmful" harmful;
  { outcomes; proven; ineffective; harmful; replays = replays ck }

let pp_outcome ppf o =
  Fmt.pf ppf "[%s] %s -> %s (%s)"
    (source_to_string o.o_candidate.c_source)
    (Fix.to_string o.o_candidate.c_fix)
    (verdict_to_string o.o_verdict) o.o_detail

let pp ppf t =
  Fmt.pf ppf "fix verdicts: proven=%d ineffective=%d harmful=%d (%d replay(s))" t.proven
    t.ineffective t.harmful t.replays;
  List.iter (fun o -> Fmt.pf ppf "@.  %a" pp_outcome o) t.outcomes

(** Ledger encoding of one replay-backed verdict. *)
let outcome_to_json (o : outcome) =
  let open Telemetry.Json in
  let c = o.o_candidate in
  Assoc
    [
      ("source", String (source_to_string c.c_source));
      ("kind", String c.c_kind);
      ( "stack",
        match c.c_stack with
        | None -> Null
        | Some s -> String (Pmtrace.Callstack.capture_to_string s) );
      ("pseq", Int c.c_pseq);
      ("fix", String (Fix.to_string c.c_fix));
      ("verdict", String (verdict_to_string o.o_verdict));
      ("detail", String o.o_detail);
    ]

(** Ledger encoding of the phase: the verdict tally plus every outcome. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("proven", Int t.proven);
      ("ineffective", Int t.ineffective);
      ("harmful", Int t.harmful);
      ("replays", Int t.replays);
      ("outcomes", List (List.map outcome_to_json t.outcomes));
    ]
