(* The benchmark's workloads: the inputs are generated here from the seed,
   and the program receives only the built targets. *)

type verdict = {
  label : string;
  target : Mumak.Target.t;
  bugs : string list;  (** seeded bug ids enabled while the verdict runs *)
  enhanced_recovery : bool;
      (** Level Hashing's counter-checking recovery, which the coverage
          experiment's headline score uses *)
  answer : Known.answer;
  baseline : string option;
      (** label of the clean verdict of the same input, scored earlier in
          the same pass (seeded performance bugs only) *)
  ops : int;
  keys : int;
}

type t = {
  config : Mumak.Config.t;
  verdicts : verdict list;
  ledger : bool;  (** append every result to the run ledger *)
  limit_s : float;  (** per-verdict time limit; a slower verdict is an error *)
}

let names = [ "detect"; "reexecute"; "analyses" ]

(* The CLI's default input. *)
let cli_ops = 600
let cli_keys = 200

(* The coverage experiment's input. *)
let cov_ops = 250
let cov_keys = 80

(* hashmap_atomic needs the 1.6 allocator semantics: at 1.12 it raises
   Device.Out_of_bounds by design (Pmalloc.Version.supports_hashmap_atomic). *)
let version_for name =
  if String.equal name "hashmap_atomic" then Pmalloc.Version.V1_6 else Pmalloc.Version.V1_12

let clean ?(enhanced_recovery = false) ~ops ~keys label target =
  {
    label;
    target;
    bugs = [];
    enhanced_recovery;
    answer = Known.Clean;
    baseline = None;
    ops;
    keys;
  }

(* The 15 clean targets at the CLI's default input. *)
let clean_suite ~seed =
  let workload = Workload.standard ~ops:cli_ops ~key_range:cli_keys ~seed in
  let apps =
    List.map
      (fun (module A : Pmapps.Kv_intf.S) ->
        ( A.name,
          Targets.of_app (module A) ~version:(version_for A.name) ~workload () ))
      Pmapps.Registry.apps
  in
  let others =
    [
      ("montage.hashtable", Targets.of_montage ~variant:`Buffered ~workload ());
      ("montage.lf_hashtable", Targets.of_montage ~variant:`Lockfree ~workload ());
      ("pmemkv.cmap", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Cmap ~workload ());
      ("pmemkv.stree", Targets.of_pmemkv ~engine:Kvstores.Pmemkv.Stree ~workload ());
      ("redis", Targets.of_redis ~workload ());
      ("rocksdb", Targets.of_rocksdb ~workload ());
    ]
  in
  List.map
    (fun (name, target) -> clean ~ops:cli_ops ~keys:cli_keys ("clean/" ^ name) target)
    (apps @ others)

(* The target a seeded component's bugs are exercised on, at the coverage
   input (the coverage experiment's own choice of target per component). *)
let coverage_target ~seed component =
  let workload = Workload.standard ~ops:cov_ops ~key_range:cov_keys ~seed in
  match component with
  | "pmalloc" ->
      (* the library bugs need large grouped transactions to fire *)
      Targets.of_app (module Pmapps.Btree) ~version:Pmalloc.Version.V1_12
        ~tx_mode:(Targets.Grouped 64) ~workload ()
  | "montage" -> Targets.of_montage ~variant:`Buffered ~workload ()
  | app ->
      Targets.of_app (Option.get (Pmapps.Registry.find app)) ~version:(version_for app) ~workload ()

let seeded_bugs = Pmapps.Registry.all_bugs @ Pmalloc.Bugs.all @ Montage.Mt_alloc.bugs

(* Per component: its clean run first, then each of its bugs enabled alone
   on the same target, scored against that clean run. *)
let seeded_suite ~seed =
  let components = List.sort_uniq compare (List.map (fun b -> b.Bugreg.component) seeded_bugs) in
  List.concat_map
    (fun component ->
      let target = coverage_target ~seed component in
      let base = "component/" ^ component in
      clean ~enhanced_recovery:true ~ops:cov_ops ~keys:cov_keys base target
      :: List.filter_map
           (fun (b : Bugreg.t) ->
             if String.equal b.Bugreg.component component then
               Some
                 {
                   label = "seeded/" ^ b.Bugreg.id;
                   target;
                   bugs = [ b.Bugreg.id ];
                   enhanced_recovery = true;
                   answer = Known.answer_of_bug b;
                   baseline = Some base;
                   ops = cov_ops;
                   keys = cov_keys;
                 }
             else None)
           seeded_bugs)
    components

(* One small Level Hashing input for the optional-analysis stack: absint
   dominates it, with a 2.7 GB heap, and the verification layers (lint,
   verify_fix, opt) run on it too. Redis, where verification dominates,
   costs 9-26 s a verdict at small inputs depending on the seed: too
   unsteady for a run of a few passes. *)
let analyses_inputs ~seed =
  let ops = 20 and keys = 10 in
  [
    clean ~ops ~keys "analyses/level_hash"
      (Targets.of_app (module Pmapps.Level_hash) ~version:Pmalloc.Version.V1_12
         ~workload:(Workload.standard ~ops ~key_range:keys ~seed)
         ());
  ]

(* Every optional analysis on, except the ones that change what is
   injected (prune), its order (prioritize) or only rankings (fit_cost). *)
let analyses_config =
  {
    Mumak.Config.optimizing with
    verify_fixes = true;
    static = true;
    prune = false;
    prioritize = false;
    fit_cost = false;
    strategy = Mumak.Config.Replay;
    jobs = 1;
  }

let make name ~seed =
  let seed = Int64.of_int seed in
  match name with
  | "detect" ->
      {
        config = Mumak.Config.default;
        verdicts = clean_suite ~seed @ seeded_suite ~seed;
        ledger = true;
        limit_s = 30.;
      }
  | "reexecute" ->
      {
        config = Mumak.Config.faithful;
        verdicts = clean_suite ~seed;
        ledger = false;
        limit_s = 60.;
      }
  | "analyses" ->
      {
        config = analyses_config;
        verdicts = analyses_inputs ~seed;
        ledger = false;
        limit_s = 120.;
      }
  | _ -> invalid_arg ("Workloads.make: unknown workload " ^ name)
