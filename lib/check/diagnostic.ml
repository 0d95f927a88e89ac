(* Structured analyzer verdicts; see diagnostic.mli. *)

type severity = Error | Warning

type location =
  | Matrix_cell of { row : int; col : int }
  | Matrix_row of { row : int }
  | Adjacent_pair of { row : int; col : int }
  | Column_triple of { col : int; mid : int }
  | Source_line of { file : string; line : int }
  | Whole

type t = {
  rule : string;
  severity : severity;
  location : location;
  message : string;
  witness : (string * string) list;
}

let make severity ?(witness = []) ~rule location message =
  { rule; severity; location; message; witness }

let error ?witness ~rule location message = make Error ?witness ~rule location message
let warning ?witness ~rule location message = make Warning ?witness ~rule location message

let rats kvs = List.map (fun (k, v) -> (k, Rat.to_string v)) kvs

let location_to_json = function
  | Matrix_cell { row; col } ->
    Obs.Json.Obj [ ("kind", Obs.Json.Str "cell"); ("row", Obs.Json.Int row); ("col", Obs.Json.Int col) ]
  | Matrix_row { row } -> Obs.Json.Obj [ ("kind", Obs.Json.Str "row"); ("row", Obs.Json.Int row) ]
  | Adjacent_pair { row; col } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "adjacent-pair"); ("row", Obs.Json.Int row); ("col", Obs.Json.Int col) ]
  | Column_triple { col; mid } ->
    Obs.Json.Obj [ ("kind", Obs.Json.Str "column-triple"); ("col", Obs.Json.Int col); ("mid", Obs.Json.Int mid) ]
  | Source_line { file; line } ->
    Obs.Json.Obj [ ("kind", Obs.Json.Str "source"); ("file", Obs.Json.Str file); ("line", Obs.Json.Int line) ]
  | Whole -> Obs.Json.Obj [ ("kind", Obs.Json.Str "whole") ]

let to_json d =
  Obs.Json.Obj
    [
      ("rule", Obs.Json.Str d.rule);
      ("severity", Obs.Json.Str (match d.severity with Error -> "error" | Warning -> "warning"));
      ("location", location_to_json d.location);
      ("message", Obs.Json.Str d.message);
      ("witness", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Str v)) d.witness));
    ]

let pp_location fmt = function
  | Matrix_cell { row; col } -> Format.fprintf fmt "(%d,%d)" row col
  | Matrix_row { row } -> Format.fprintf fmt "row %d" row
  | Adjacent_pair { row; col } -> Format.fprintf fmt "rows %d/%d col %d" row (row + 1) col
  | Column_triple { col; mid } -> Format.fprintf fmt "col %d rows %d..%d" col (mid - 1) (mid + 1)
  | Source_line { file; line } -> Format.fprintf fmt "%s:%d" file line
  | Whole -> Format.pp_print_string fmt "whole"

let pp fmt d =
  Format.fprintf fmt "%s %s @@ %a: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.rule pp_location d.location d.message;
  match d.witness with
  | [] -> ()
  | w ->
    Format.fprintf fmt " [%s]"
      (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) w))
