(* Known answers, scored the way the coverage experiment scores the seeded
   bug list: a verdict is right or wrong against the bug that was enabled
   (or the absence of one), never against an earlier run's report. *)

type answer =
  | Clean  (** no seeded bug: no correctness finding allowed *)
  | Seeded_correctness of string  (** bug id: some correctness finding required *)
  | Seeded_performance of string * Bugreg.taxonomy
      (** bug id and class: more findings of that class than the clean run
          of the same input *)

(* Report kinds mapped onto the seeded taxonomy's performance classes. *)
let kind_class (k : Mumak.Report.kind) : Bugreg.taxonomy option =
  match k with
  | Mumak.Report.Unrecoverable_state | Mumak.Report.Recovery_crash -> None
  | Mumak.Report.Durability_bug | Mumak.Report.Dirty_overwrite -> Some Bugreg.Durability
  | Mumak.Report.Redundant_flush -> Some Bugreg.Redundant_flush
  | Mumak.Report.Redundant_fence -> Some Bugreg.Redundant_fence
  | Mumak.Report.Transient_data_warning -> Some Bugreg.Transient_data
  | Mumak.Report.Missing_flush_warning -> Some Bugreg.Durability
  | Mumak.Report.Multi_store_flush_warning | Mumak.Report.Unordered_flushes_warning
  | Mumak.Report.Ordering_violation | Mumak.Report.Atomicity_violation
  | Mumak.Report.Missing_fence_warning -> None

let count_class report taxonomy =
  List.length
    (List.filter
       (fun f -> kind_class f.Mumak.Report.kind = Some taxonomy)
       (Mumak.Report.findings report))

let answer_of_bug (b : Bugreg.t) =
  if Bugreg.is_correctness b.Bugreg.taxonomy then Seeded_correctness b.Bugreg.id
  else Seeded_performance (b.Bugreg.id, b.Bugreg.taxonomy)

(** [score answer ~baseline report]: [baseline] is the clean run of the
    same input, needed only for a seeded performance bug; without it that
    verdict scores as a miss. *)
let score answer ~baseline report =
  match answer with
  | Clean -> Mumak.Report.correctness_bugs report = []
  | Seeded_correctness _ -> Mumak.Report.correctness_bugs report <> []
  | Seeded_performance (_, taxonomy) -> (
      match baseline with
      | None -> false
      | Some base -> count_class report taxonomy > count_class base taxonomy)

(** The seeded ordering bugs whose inconsistent states violate program
    order, so a program-prefix crash image cannot expose them (EXPERIMENTS.md,
    section 6.2). They count as misses in the accuracy like any other; the
    printed report labels them. *)
let designed_misses =
  [ "hm_atomic_link_before_persist"; "wort_leaf_unflushed"; "cceh_value_after_key" ]

let expected_miss = function
  | Seeded_correctness id | Seeded_performance (id, _) -> List.mem id designed_misses
  | Clean -> false
