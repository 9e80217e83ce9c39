(** Trace analysis (paper section 4.2): a single pass over the PM access
    stream that detects the bug classes fault injection cannot see.

    The five patterns:
    + a store that is never explicitly persisted — a durability bug if its
      address is ever flushed during the execution, otherwise a
      PM-as-transient-data warning;
    + a flush of a volatile address, or of a line with nothing written
      since its last flush — a redundant-flush performance bug;
    + a flush capturing more than one store — a possible performance bug,
      reported as a warning (whether one flush suffices depends on memory
      arrangement);
    + an sfence/mfence with no pending flushes or non-temporal stores — a
      redundant-fence performance bug (an RMW's implicit fence cannot be
      deleted, so it is never one);
    + a fence draining more than one flush/non-temporal store — the persist
      order among them is unconstrained; reported as a warning because
      exploring those orderings is deliberately out of scope.

    Patterns 2 and 4 are {!Pmtrace.Persist.waste}, the one redundancy rule
    the offline analyses share. The durability patterns keep their own
    8-byte slot table: their findings are slot-granular, and the pass runs
    on every verdict, where the window-granular {!Pmtrace.Persist} walk
    would cost more for no finding it could add.

    The analysis is streaming: [feed] consumes events as the instrumented
    run produces them, so the trace need not be stored. Findings carry the
    instruction counter; the engine attaches call stacks afterwards with
    one extra minimally-instrumented execution (paper section 5). *)

type slot_state = Dirty | Captured
(* persisted slots are simply removed from the table *)

type line_state = {
  mutable stores_since_flush : int;
  mutable flush_count : int;
}

type raw = { kind : Report.kind; seq : int; detail : string }

type t = {
  config : Config.t;
  lines : (int, line_state) Hashtbl.t;
  slots : (int, slot_state * int) Hashtbl.t; (* slot -> state, store seq *)
  mutable captured_slots : int list; (* awaiting the next fence *)
  mutable findings : raw list; (* newest first *)
  mutable events : int;
}

let create config =
  {
    config;
    lines = Hashtbl.create 1024;
    slots = Hashtbl.create 4096;
    captured_slots = [];
    findings = [];
    events = 0;
  }

let report t kind seq detail = t.findings <- { kind; seq; detail } :: t.findings

let line_state t line =
  match Hashtbl.find_opt t.lines line with
  | Some ls -> ls
  | None ->
      let ls = { stores_since_flush = 0; flush_count = 0 } in
      Hashtbl.replace t.lines line ls;
      ls

let feed t (event : Pmtrace.Event.t) =
  t.events <- t.events + 1;
  let seq = event.Pmtrace.Event.seq in
  match event.Pmtrace.Event.op with
  | Pmem.Op.Load _ -> ()
  | Pmem.Op.Store { addr; size; nt } ->
      List.iter
        (fun slot ->
          if nt then begin
            (* non-temporal: persists at the next fence without a flush *)
            Hashtbl.replace t.slots slot (Captured, seq);
            t.captured_slots <- slot :: t.captured_slots
          end
          else Hashtbl.replace t.slots slot (Dirty, seq))
        (Pmem.Addr.slots_spanned ~addr ~size);
      if not nt then
        List.iter
          (fun line ->
            let ls = line_state t line in
            ls.stores_since_flush <- ls.stores_since_flush + 1)
          (Pmem.Addr.lines_spanned ~addr ~size)
  | Pmem.Op.Flush { kind; line; _ } as op -> (
      match Pmtrace.Persist.waste op with
      | Some Pmtrace.Persist.Volatile_flush ->
          report t Report.Redundant_flush seq
            (Printf.sprintf "flush of volatile address (line %d)" line)
      | waste ->
          let ls = line_state t line in
          ls.flush_count <- ls.flush_count + 1;
          (match waste with
          | Some _ ->
              report t Report.Redundant_flush seq
                (Printf.sprintf "line %d flushed with nothing written since its last flush" line)
          | None ->
              if ls.stores_since_flush > 1 then
                report t Report.Multi_store_flush_warning seq
                  (Printf.sprintf "one flush of line %d covers %d stores" line
                     ls.stores_since_flush));
          (* clflush is strongly ordered: the line's unpersisted slots persist
             right here. clflushopt/clwb capture its dirty slots, which
             persist at the next fence. *)
          let lo = Pmem.Addr.line_base line / Pmem.Addr.atomic_size in
          for slot = lo to lo + (Pmem.Addr.line_size / Pmem.Addr.atomic_size) - 1 do
            match (kind, Hashtbl.find_opt t.slots slot) with
            | Pmem.Op.Clflush, Some _ -> Hashtbl.remove t.slots slot
            | (Pmem.Op.Clflushopt | Pmem.Op.Clwb), Some (Dirty, sseq) ->
                Hashtbl.replace t.slots slot (Captured, sseq);
                t.captured_slots <- slot :: t.captured_slots
            | _, (Some (Captured, _) | None) -> ()
          done;
          ls.stores_since_flush <- 0)
  | Pmem.Op.Fence { pending_flushes; pending_nt; _ } as op ->
      if Pmtrace.Persist.waste op = Some Pmtrace.Persist.Empty_fence then
        report t Report.Redundant_fence seq "fence with no pending flushes or NT stores"
      else if pending_flushes + pending_nt > 1 then
        report t Report.Unordered_flushes_warning seq
          (Printf.sprintf
             "fence orders %d flushes and %d NT stores; their persist order is \
              unconstrained"
             pending_flushes pending_nt);
      List.iter
        (fun slot ->
          match Hashtbl.find_opt t.slots slot with
          | Some (Captured, _) -> Hashtbl.remove t.slots slot (* persisted *)
          | Some (Dirty, _) | None -> ())
        t.captured_slots;
      t.captured_slots <- []

(** End-of-trace pass: classify the stores that never became durable.
    Under eADR (section 4.3) globally visible stores are durable without
    flushes, so neither arm of pattern 1 applies. *)
let finish t =
  if not t.config.Config.eadr then
    (* in store order (slot breaks ties), so the detail a site keeps does
       not depend on the table's bucket layout *)
    Hashtbl.fold (fun slot (state, seq) acc -> (seq, slot, state) :: acc) t.slots []
    |> List.sort compare
    |> List.iter (fun (seq, slot, state) ->
           let line = slot * Pmem.Addr.atomic_size / Pmem.Addr.line_size in
           match state with
           | Captured ->
               report t Report.Durability_bug seq
                 (Printf.sprintf "flush of slot %d was never fenced" slot)
           | Dirty ->
               let ever_flushed =
                 match Hashtbl.find_opt t.lines line with
                 | Some ls -> ls.flush_count > 0
                 | None -> false
               in
               if ever_flushed then
                 report t Report.Durability_bug seq
                   (Printf.sprintf
                      "store to slot %d never persisted (line %d is flushed elsewhere)" slot line)
               else
                 report t Report.Transient_data_warning seq
                   (Printf.sprintf
                      "slot %d written but its line is never flushed: PM used for transient \
                       data?"
                      slot));
  (* Deduplicate by (kind, seq): distinct slots of one cache line flushed by
     the same instruction otherwise surface as several copies of the same
     finding. Keep the first chronological occurrence so downstream stack
     resolution anchors stay stable. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (r : raw) ->
      let key = (r.kind, r.seq) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev t.findings)

let event_count t = t.events
