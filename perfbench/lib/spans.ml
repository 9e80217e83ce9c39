(* In-memory span recorder for the traced pass. The benchmark wraps each
   call into a layer's public function in [with_span]; nothing inside the
   program is instrumented. Spans are kept in memory and written out once,
   when the run ends. *)

type span = {
  id : int;
  name : string;
  verdict : int;  (** all spans of one verdict share this id *)
  parent : int;  (** id of the enclosing span; -1 at the root *)
  start_ns : int;
  stop_ns : int;
  alloc_bytes : float;  (** bytes allocated between start and stop *)
}

let enabled = ref false
let verdict = ref 0
let next_id = ref 0
let open_ids : int list ref = ref []
let recorded : span list ref = ref []

let reset () =
  next_id := 0;
  open_ids := [];
  recorded := []

let spans () = List.rev !recorded

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let alloc0 = Gc.allocated_bytes () in
    let start_ns = Telemetry.Clock.now_ns () in
    let close () =
      let stop_ns = Telemetry.Clock.now_ns () in
      open_ids := List.tl !open_ids;
      recorded :=
        {
          id;
          name;
          verdict = !verdict;
          parent;
          start_ns;
          stop_ns;
          alloc_bytes = Gc.allocated_bytes () -. alloc0;
        }
        :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration_s s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(* The part of [lo, hi) that a set of intervals covers, each clipped to
   it, overlaps counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) clipped
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

type self = { s_span : span; self_s : float; self_alloc : float }

(** Each span's self time: its duration minus the part of its interval
    its child spans cover; self allocation likewise subtracts the
    children's allocation. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let cov =
        covered ~lo:s.start_ns ~hi:s.stop_ns (List.map (fun k -> (k.start_ns, k.stop_ns)) kids)
      in
      let kid_alloc = List.fold_left (fun acc k -> acc +. k.alloc_bytes) 0. kids in
      {
        s_span = s;
        self_s = float_of_int (s.stop_ns - s.start_ns - cov) /. 1e9;
        self_alloc = Float.max 0. (s.alloc_bytes -. kid_alloc);
      })
    spans

type layer = { calls : int; self_total_s : float; alloc_total : float; durations : float list }

(** Per-name totals over the self times: call count, summed self seconds,
    summed self allocation and every span's full duration. *)
let by_layer selves =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun x ->
      let name = x.s_span.name in
      let prev =
        Option.value (Hashtbl.find_opt tbl name)
          ~default:{ calls = 0; self_total_s = 0.; alloc_total = 0.; durations = [] }
      in
      Hashtbl.replace tbl name
        {
          calls = prev.calls + 1;
          self_total_s = prev.self_total_s +. x.self_s;
          alloc_total = prev.alloc_total +. x.self_alloc;
          durations = duration_s x.s_span :: prev.durations;
        })
    selves;
  tbl

let to_json s =
  Telemetry.Json.Assoc
    [
      ("id", Int s.id);
      ("name", String s.name);
      ("verdict", Int s.verdict);
      ("parent", Int s.parent);
      ("start_ns", Int s.start_ns);
      ("stop_ns", Int s.stop_ns);
      ("alloc_bytes", Float s.alloc_bytes);
    ]

(** One JSON object per line. *)
let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Telemetry.Json.to_string (to_json s));
          output_char oc '\n')
        spans)
