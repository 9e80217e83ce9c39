(* Metric values and the result line. *)

type t = { name : string; value : float; unit_ : string }

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

(** Names start with a letter or a digit and hold at most 64 letters,
    digits, [_], [.] and [-]. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let make name value unit_ =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  { name; value; unit_ }

(** The benchmark's last output line. *)
let result_line ~correct ~attempted ~failed metrics =
  let open Telemetry.Json in
  to_string
    (Assoc
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Assoc
             (List.map
                (fun m -> (m.name, Assoc [ ("value", Float m.value); ("unit", String m.unit_) ]))
                metrics) );
       ])
