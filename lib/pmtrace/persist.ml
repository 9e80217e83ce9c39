(* The cache-line persistency lifecycle as one walk over recorded events;
   see persist.mli. *)

type waste = Volatile_flush | Clean_flush | Empty_fence

let waste = function
  | Pmem.Op.Flush { volatile = true; _ } -> Some Volatile_flush
  | Pmem.Op.Flush { dirty = false; _ } -> Some Clean_flush
  | Pmem.Op.Fence
      { kind = Pmem.Op.Sfence | Pmem.Op.Mfence; pending_flushes = 0; pending_nt = 0 } ->
      Some Empty_fence
  | Pmem.Op.Flush _ | Pmem.Op.Fence _ | Pmem.Op.Store _ | Pmem.Op.Load _ -> None

type ('a, 'd) window = {
  line : int;
  nt : bool;
  first : 'a;
  first_p : int;
  mutable last : 'a;
  mutable last_p : int;
  mutable count : int;
  mutable flush : ('a * int) option;
  mutable persisted : bool;
  mutable last_epoch : int;
  data : 'd;
}

(* Per-line state beyond the open window, made on the line's first
   non-volatile flush or NT store. Epoch stamps stand in for clearing
   every line at a fence. *)
type ('a, 'd) line = {
  mutable flushes : int;
  mutable capture : ('a, 'd) window option;  (* valid in [capture_epoch] *)
  mutable capture_epoch : int;
  mutable nt_epoch : int;  (* epoch of the newest NT store *)
}

type ('a, 'd) t = {
  fresh : unit -> 'd;
  mutable pseq : int;
  mutable epoch : int;
  open_ : (int, ('a, 'd) window) Hashtbl.t;  (* line -> open cached window *)
  lines : (int, ('a, 'd) line) Hashtbl.t;
  mutable unfenced : ('a, 'd) window list;  (* newest first *)
  mutable stored : ('a, 'd) window list;  (* cached windows stored to this epoch *)
}

let create fresh =
  {
    fresh;
    pseq = 0;
    epoch = 0;
    open_ = Hashtbl.create 256;
    lines = Hashtbl.create 256;
    unfenced = [];
    stored = [];
  }

let tick t = function Pmem.Op.Load _ -> () | _ -> t.pseq <- t.pseq + 1
let pseq t = t.pseq
let epoch t = t.epoch

let line_state t line =
  match Hashtbl.find_opt t.lines line with
  | Some l -> l
  | None ->
      let l = { flushes = 0; capture = None; capture_epoch = -1; nt_epoch = -1 } in
      Hashtbl.replace t.lines line l;
      l

let new_window t ~nt line a =
  {
    line;
    nt;
    first = a;
    first_p = t.pseq;
    last = a;
    last_p = t.pseq;
    count = 0;
    flush = None;
    persisted = false;
    last_epoch = -1;
    data = t.fresh ();
  }

let store t a ~addr ~size ~nt f =
  for line = Pmem.Addr.line_of addr to Pmem.Addr.line_of (addr + size - 1) do
    let w =
      if nt then begin
        (* buffered until the next fence, beside the cached copy *)
        let w = new_window t ~nt line a in
        (line_state t line).nt_epoch <- t.epoch;
        t.unfenced <- w :: t.unfenced;
        w
      end
      else
        match Hashtbl.find_opt t.open_ line with
        | Some w -> w
        | None ->
            let w = new_window t ~nt line a in
            Hashtbl.replace t.open_ line w;
            w
    in
    w.last <- a;
    w.last_p <- t.pseq;
    w.count <- w.count + 1;
    if (not nt) && w.last_epoch <> t.epoch then t.stored <- w :: t.stored;
    w.last_epoch <- t.epoch;
    f w
  done

let flush t a ~kind ~line ~volatile =
  if volatile then None
  else begin
    let l = line_state t line in
    l.flushes <- l.flushes + 1;
    let prior = if l.capture_epoch = t.epoch then l.capture else None in
    let overwritten =
      match Hashtbl.find_opt t.open_ line with
      | None -> None
      | Some w ->
          Hashtbl.remove t.open_ line;
          w.flush <- Some (a, t.pseq);
          t.unfenced <- w :: t.unfenced;
          l.capture <- Some w;
          l.capture_epoch <- t.epoch;
          prior
    in
    if kind = Pmem.Op.Clflush then begin
      (* strongly ordered: the line is durable here, whatever awaited a
         fence, and no later capture can overwrite one of its captures *)
      l.capture <- None;
      List.iter (fun w -> if w.line = line then w.persisted <- true) t.unfenced
    end;
    overwritten
  end

let fence t f =
  List.iter f (List.rev t.unfenced);
  t.unfenced <- [];
  t.stored <- [];
  t.epoch <- t.epoch + 1

let dirty t line = Hashtbl.mem t.open_ line

let nt_pending t line =
  match Hashtbl.find_opt t.lines line with Some l -> l.nt_epoch = t.epoch | None -> false

let flushes t line =
  match Hashtbl.find_opt t.lines line with Some l -> l.flushes | None -> 0

let stranded t f = List.iter (fun w -> if w.flush = None then f w) t.stored
let unfenced t = List.rev t.unfenced
let fold_open t f acc = Hashtbl.fold (fun _ w acc -> f w acc) t.open_ acc
