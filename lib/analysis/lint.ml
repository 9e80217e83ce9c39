(** Epoch-based persistency anti-pattern detectors (the Bentō catalogue, see
    PAPERS.md): a single pass over one load-free recorded trace flags
    persistency instructions that do no useful work — and fences that arrive
    with work left undone — each with a frame + ordinal location, a concrete
    {!Fix.t}, and the estimated cost of leaving it in place.

    Lint needs no invariant mining and no load-traced recording, so it runs
    off a single execution. It follows the line lifecycle with
    {!Pmtrace.Persist} and decides which flushes and fences do no work
    with {!Pmtrace.Persist.waste}, the rule the trace analysis applies to
    every dynamic instance; the report-level deduplication (same kind,
    same code path) merges the two, and lint's site-level delete fix wins.

    The trace should carry device-accurate metadata (flush [dirty] bits,
    fence pending counts): recorded traces do by construction, rewritten
    traces must be re-normalized ({!Replay.normalize}) first. *)

type kind =
  | Duplicate_flush
      (** the line is flushed again, dirty, in the same persist epoch: the
          first capture is overwritten before any fence drains it *)
  | Unnecessary_flush  (** the line holds nothing unpersisted *)
  | Nt_flush_misuse
      (** clean flush of a line whose stores this epoch were non-temporal:
          NT stores bypass the cache, the flush writes back nothing *)
  | Redundant_fence  (** nothing pending to drain, nothing stored to order *)
  | Missing_flush
      (** a fence is reached with a line dirtied this epoch that is never
          flushed afterwards, though the program flushes that line elsewhere:
          the persist was probably intended here *)

let kind_to_string = function
  | Duplicate_flush -> "duplicate flush"
  | Unnecessary_flush -> "unnecessary flush"
  | Nt_flush_misuse -> "nt-store flush misuse"
  | Redundant_fence -> "redundant fence"
  | Missing_flush -> "missing flush"

(* Rough per-instruction costs (cycles) for the savings estimate, in line
   with published CLWB/SFENCE microbenchmark numbers. *)
let flush_cycles = 250
let fence_cycles = 30

type finding = {
  l_kind : kind;
  l_pseq : int;  (** persistency-index anchor of the first dynamic instance *)
  l_stack : Pmtrace.Callstack.capture option;
  l_line : int;  (** cache line of the first instance; 0 for fence findings *)
  l_detail : string;
  l_fix : Fix.t option;
  l_cycles : int;  (** estimated cycles saved, summed over dynamic instances *)
  l_events : int;  (** trace events removed by the fix, summed over instances *)
}

type t = {
  findings : finding list;
      (** one per code site (kind + code path), sorted by
          (pseq, kind, line) of the first dynamic instance *)
  events : int;
  epochs : int;  (** fences in the trace *)
  flushes : int;
  fences : int;
  redundant_flushes : int;  (** dynamic instances, not sites *)
  redundant_fences : int;
  missing_flush_spots : int;
  cycles_saved : int;  (** summed over deletable dynamic instances *)
  events_saved : int;
}

let kind_rank = function
  | Duplicate_flush -> 0
  | Unnecessary_flush -> 1
  | Nt_flush_misuse -> 2
  | Redundant_fence -> 3
  | Missing_flush -> 4

let analyze ?(eadr = false) (events : Pmtrace.Event.t list) =
  Telemetry.Collector.span ~cat:"lint" "analyze" @@ fun () ->
  (* pass 1: where is each line flushed? (pseq list, ascending) *)
  let flush_sites = Hashtbl.create 256 in
  let n_events = ref 0 in
  let () =
    let pseq = ref 0 in
    List.iter
      (fun (e : Pmtrace.Event.t) ->
        incr n_events;
        (match e.Pmtrace.Event.op with Pmem.Op.Load _ -> () | _ -> incr pseq);
        match e.Pmtrace.Event.op with
        | Pmem.Op.Flush { line; volatile = false; _ } ->
            let prior = Option.value ~default:[] (Hashtbl.find_opt flush_sites line) in
            Hashtbl.replace flush_sites line (!pseq :: prior)
        | _ -> ())
      events
  in
  Hashtbl.iter (fun line ps -> Hashtbl.replace flush_sites line (List.rev ps)) flush_sites;
  let flushed_after line p =
    match Hashtbl.find_opt flush_sites line with
    | None -> false
    | Some ps -> List.exists (fun q -> q > p) ps
  in
  let ever_flushed line = Hashtbl.mem flush_sites line in
  (* pass 2: the epoch walk. Findings aggregate per code site — the same
     static instruction misbehaving in every epoch is one finding whose
     savings sum over its dynamic instances, matching the granularity of
     the source-level fix it suggests. *)
  let sites : (string, finding) Hashtbl.t = Hashtbl.create 64 in
  (* Deleting an instruction deletes every execution of it, so a delete fix
     is only sound when every dynamic instance of the site was flagged:
     count executions per (shape, code path) and flagged instances per
     delete target, and strip the fix when they disagree. *)
  let site_key shape stack pseq =
    shape ^ "|"
    ^
    match stack with
    | Some c -> Pmtrace.Callstack.capture_to_string c
    | None -> Printf.sprintf "#%d" pseq
  in
  let instance_totals = Hashtbl.create 256 and marked = Hashtbl.create 64 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let redundant_flushes = ref 0
  and redundant_fences = ref 0
  and missing = ref 0
  and flushes = ref 0 in
  let add ?fix ~line ~cycles ~events:ev_saved kind pseq stack detail =
    (match fix with
    | Some { Fix.action = Fix.Delete_flush _; seq; stack = fstack; _ } ->
        bump marked (site_key "F" fstack seq)
    | Some { Fix.action = Fix.Delete_fence; seq; stack = fstack; _ } ->
        bump marked (site_key "N" fstack seq)
    | Some _ | None -> ());
    (match kind with
    | Duplicate_flush | Unnecessary_flush | Nt_flush_misuse -> incr redundant_flushes
    | Redundant_fence -> incr redundant_fences
    | Missing_flush -> incr missing);
    let key =
      Printf.sprintf "%d|%s" (kind_rank kind)
        (match stack with
        | Some c -> Pmtrace.Callstack.capture_to_string c
        | None -> Printf.sprintf "#%d" pseq)
    in
    match Hashtbl.find_opt sites key with
    | Some f ->
        Hashtbl.replace sites key
          { f with l_cycles = f.l_cycles + cycles; l_events = f.l_events + ev_saved }
    | None ->
        Hashtbl.replace sites key
          {
            l_kind = kind;
            l_pseq = pseq;
            l_stack = stack;
            l_line = line;
            l_detail = detail;
            l_fix = fix;
            l_cycles = cycles;
            l_events = ev_saved;
          }
  in
  (* the lifecycle, anchored at call stacks *)
  let walk = Pmtrace.Persist.create ignore in
  List.iter
    (fun (e : Pmtrace.Event.t) ->
      let op = e.Pmtrace.Event.op and stack = e.Pmtrace.Event.stack in
      Pmtrace.Persist.tick walk op;
      let p = Pmtrace.Persist.pseq walk in
      match op with
      | Pmem.Op.Load _ -> ()
      | Pmem.Op.Store { addr; size; nt } ->
          Pmtrace.Persist.store walk stack ~addr ~size ~nt ignore
      | Pmem.Op.Flush { kind; line; volatile; _ } -> (
          let overwritten = Pmtrace.Persist.flush walk stack ~kind ~line ~volatile in
          incr flushes;
          bump instance_totals (site_key "F" stack p);
          let delete rationale =
            { Fix.action = Fix.Delete_flush { line }; seq = p; stack; rationale }
          in
          match (Pmtrace.Persist.waste op, overwritten) with
          | Some Pmtrace.Persist.Volatile_flush, _ ->
              add
                ~fix:(delete "the flushed address is not in the PM pool")
                ~line ~cycles:flush_cycles ~events:1 Unnecessary_flush p stack
                (Printf.sprintf "flush of volatile address (line %d)" line)
          | Some _, _ when Pmtrace.Persist.nt_pending walk line ->
              add
                ~fix:
                  (delete
                     "non-temporal stores bypass the cache; the fence alone persists them")
                ~line ~cycles:flush_cycles ~events:1 Nt_flush_misuse p stack
                (Printf.sprintf "flush of line %d written only non-temporally this epoch" line)
          | Some _, _ ->
              add
                ~fix:(delete "the line holds no unpersisted stores")
                ~line ~cycles:flush_cycles ~events:1 Unnecessary_flush p stack
                (Printf.sprintf "line %d flushed with nothing written since its last flush" line)
          | None, Some first ->
              (* this capture overwrites one of the same epoch *)
              let first_stack, first_p = Option.get first.Pmtrace.Persist.flush in
              (* no fix when both flushes are dynamic instances of the same
                 instruction (a flush in a loop): deleting that source line
                 would delete the live second capture too — the repair is a
                 restructuring this tool cannot express as a trace edit *)
              let same_site =
                match (first_stack, stack) with
                | Some a, Some b ->
                    Pmtrace.Callstack.capture_to_string a = Pmtrace.Callstack.capture_to_string b
                | _ -> false
              in
              let fix =
                if same_site then None
                else
                  Some
                    {
                      Fix.action = Fix.Delete_flush { line };
                      seq = first_p;
                      stack = first_stack;
                      rationale =
                        "a later flush of the same line re-captures it before any fence \
                         drains this one";
                    }
              in
              add ?fix ~line ~cycles:flush_cycles ~events:1 Duplicate_flush first_p first_stack
                (Printf.sprintf
                   "line %d flushed at #%d and again at #%d with no fence between: the first \
                    capture is dead"
                   line first_p p)
          | None, None -> ())
      | Pmem.Op.Fence _ ->
          bump instance_totals (site_key "N" stack p);
          (* missing-flush hot spots: lines stored to this epoch, still dirty
             here, never flushed later — though the program knows how to
             flush them (it does elsewhere). Suppressed under eADR, where
             visible stores are durable without flushes. *)
          let spots = ref [] in
          if not eadr then
            Pmtrace.Persist.stranded walk (fun w ->
                let line = w.Pmtrace.Persist.line in
                if (not (flushed_after line p)) && ever_flushed line then
                  spots := (line, w.Pmtrace.Persist.last_p, w.Pmtrace.Persist.last) :: !spots);
          let spots = List.sort compare !spots in
          (* the spot is anchored at the store that dirtied the line, not at
             the fence: the store is where the flush belongs, its identity
             survives trace rewrites, and a fence synthesized by a fix
             re-observing the same stranded store maps onto the same
             finding instead of minting a new one *)
          List.iter
            (fun (line, sp, sstack) ->
              add
                ~fix:
                  {
                    Fix.action = Fix.Insert_flush { line };
                    seq = sp;
                    stack = sstack;
                    rationale = "flush the line so the next fence persists the stores";
                  }
                ~line ~cycles:0 ~events:0 Missing_flush sp sstack
                (Printf.sprintf
                   "store to line %d at #%d is still dirty at the fence at #%d and the line is \
                    never flushed afterwards, though the program flushes it elsewhere"
                   line sp p))
            spots;
          if Pmtrace.Persist.waste op = Some Pmtrace.Persist.Empty_fence && spots = [] then
            add
              ~fix:
                {
                  Fix.action = Fix.Delete_fence;
                  seq = p;
                  stack;
                  rationale = "no flush or NT store to drain";
                }
              ~line:0 ~cycles:fence_cycles ~events:1 Redundant_fence p stack
              "fence with no pending flushes or NT stores";
          Pmtrace.Persist.fence walk ignore)
    events;
  let deletable (fx : Fix.t) =
    let key shape = site_key shape fx.Fix.stack fx.Fix.seq in
    let sound shape =
      Hashtbl.find_opt marked (key shape) = Hashtbl.find_opt instance_totals (key shape)
    in
    match fx.Fix.action with
    | Fix.Delete_flush _ -> sound "F"
    | Fix.Delete_fence -> sound "N"
    | Fix.Insert_flush _ | Fix.Insert_fence -> true
    (* the transformation actions are synthesized by the optimizer, which
       applies its own per-site soundness rules; lint never emits them *)
    | Fix.Move_flush _ | Fix.Coalesce_flushes _ | Fix.Batch_fences _ | Fix.Convert_to_nt _
    | Fix.Convert_to_clwb _ -> true
  in
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) sites []
    |> List.map (fun f ->
           match f.l_fix with
           | Some fx when not (deletable fx) ->
               (* the instruction does real work in other executions:
                  advisory only *)
               { f with l_fix = None }
           | Some _ | None -> f)
    |> List.sort (fun a b ->
           compare
             (a.l_pseq, kind_rank a.l_kind, a.l_line)
             (b.l_pseq, kind_rank b.l_kind, b.l_line))
  in
  let cycles_saved = List.fold_left (fun acc f -> acc + f.l_cycles) 0 findings in
  let events_saved = List.fold_left (fun acc f -> acc + f.l_events) 0 findings in
  {
    findings;
    events = !n_events;
    epochs = Pmtrace.Persist.epoch walk;
    flushes = !flushes;
    fences = Pmtrace.Persist.epoch walk;
    redundant_flushes = !redundant_flushes;
    redundant_fences = !redundant_fences;
    missing_flush_spots = !missing;
    cycles_saved;
    events_saved;
  }

let pp_finding ppf f =
  Fmt.pf ppf "[lint] %s: %s%s%s" (kind_to_string f.l_kind) f.l_detail
    (match f.l_stack with
    | Some c -> "\n    at " ^ Pmtrace.Callstack.capture_to_string c
    | None -> Printf.sprintf "\n    at instruction #%d" f.l_pseq)
    (match f.l_fix with None -> "" | Some fx -> "\n    fix: " ^ Fix.to_string fx)

let pp ppf t =
  Fmt.pf ppf
    "lint over %d event(s), %d epoch(s): %d redundant flush(es), %d redundant fence(s), %d \
     missing-flush spot(s); est. %d cycle(s)/%d event(s) saved"
    t.events t.epochs t.redundant_flushes t.redundant_fences t.missing_flush_spots
    t.cycles_saved t.events_saved;
  List.iter (fun f -> Fmt.pf ppf "@.%a" pp_finding f) t.findings

(** Ledger encoding of one anti-pattern site. *)
let finding_to_json (f : finding) =
  let open Telemetry.Json in
  Assoc
    [
      ("kind", String (kind_to_string f.l_kind));
      ("pseq", Int f.l_pseq);
      ( "stack",
        match f.l_stack with
        | None -> Null
        | Some c -> String (Pmtrace.Callstack.capture_to_string c) );
      ("line", Int f.l_line);
      ("detail", String f.l_detail);
      ("fix", match f.l_fix with None -> Null | Some fx -> String (Fix.to_string fx));
      ("cycles_saved", Int f.l_cycles);
      ("events_saved", Int f.l_events);
    ]

(** Ledger encoding of the phase: epoch/flush/fence tallies plus every
    finding site. *)
let to_json t =
  let open Telemetry.Json in
  Assoc
    [
      ("events", Int t.events);
      ("epochs", Int t.epochs);
      ("flushes", Int t.flushes);
      ("fences", Int t.fences);
      ("redundant_flushes", Int t.redundant_flushes);
      ("redundant_fences", Int t.redundant_fences);
      ("missing_flush_spots", Int t.missing_flush_spots);
      ("cycles_saved", Int t.cycles_saved);
      ("events_saved", Int t.events_saved);
      ("findings", List (List.map finding_to_json t.findings));
    ]
