(* Accepted-findings baseline; see baseline.mli. *)

module D = Check.Diagnostic
module J = Obs.Json

type entry = { brule : string; bfile : string; bsymbol : string; allowed : int }
type t = entry list

let empty = []
let entries t = t

let file_of = function D.Source_line { file; _ } -> file | _ -> ""

let symbol_of (d : D.t) =
  Option.value ~default:"" (List.assoc_opt "symbol" d.D.witness)

let key_of (d : D.t) = (d.D.rule, file_of d.D.location, symbol_of d)
let entry_key e = (e.brule, e.bfile, e.bsymbol)
let compare_entry a b = compare (entry_key a) (entry_key b)

let error_counts diags =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (d : D.t) ->
      if d.D.severity = D.Error then begin
        let k = key_of d in
        Hashtbl.replace counts k
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
      end)
    diags;
  counts

let of_diagnostics diags =
  (* analysis: order-insensitive — the fold feeds an immediate sort. *)
  Hashtbl.fold
    (fun (brule, bfile, bsymbol) allowed acc ->
      { brule; bfile; bsymbol; allowed } :: acc)
    (error_counts diags) []
  |> List.sort compare_entry

let to_json t =
  J.Obj
    [
      ("version", J.Int 1);
      ( "entries",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("rule", J.Str e.brule);
                   ("file", J.Str e.bfile);
                   ("symbol", J.Str e.bsymbol);
                   ("allowed", J.Int e.allowed);
                 ])
             (List.sort compare_entry t)) );
    ]

let of_json json =
  let open J in
  let* entries = list_field ~ctx:"baseline" "entries" json in
  let ctx = "baseline entry" in
  let* entries =
    map_result
      (fun o ->
        let* brule = str_field ~ctx "rule" o in
        let* bfile = str_field ~ctx "file" o in
        let* bsymbol = str_field ~ctx "symbol" o in
        let* allowed = int_field ~ctx "allowed" o in
        if allowed > 0 then Ok { brule; bfile; bsymbol; allowed }
        else Error "baseline entry: \"allowed\" must be positive")
      entries
  in
  Ok (List.sort compare_entry entries)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Result.bind (J.of_string src) of_json

let save path t =
  let oc = open_out_bin path in
  let fmt = Format.formatter_of_out_channel oc in
  Format.fprintf fmt "%a@." J.pp (to_json t);
  close_out oc

let apply t diags =
  let counts = error_counts diags in
  let allowance = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace allowance (entry_key e) e.allowed) t;
  let suppressed = ref 0 in
  let kept =
    List.filter_map
      (fun (d : D.t) ->
        if d.D.severity <> D.Error then Some d
        else
          let k = key_of d in
          match Hashtbl.find_opt allowance k with
          | None -> Some d
          | Some a ->
            let n = Option.value ~default:0 (Hashtbl.find_opt counts k) in
            if n <= a then begin
              incr suppressed;
              None
            end
            else
              Some
                {
                  d with
                  D.witness =
                    d.D.witness @ [ ("baseline_allowed", string_of_int a) ];
                })
      diags
  in
  let stale =
    List.filter_map
      (fun e ->
        if Hashtbl.mem counts (entry_key e) then None
        else
          Some
            (D.warning ~rule:"analysis/stale-baseline"
               ~witness:
                 [
                   ("rule", e.brule);
                   ("symbol", e.bsymbol);
                   ("allowed", string_of_int e.allowed);
                 ]
               (D.Source_line { file = e.bfile; line = 0 })
               (Printf.sprintf
                  "baseline entry matches nothing: the %s findings for `%s` in \
                   %s are gone — run `make analyze-baseline` to ratchet the \
                   baseline down"
                  e.brule e.bsymbol e.bfile)))
      (List.sort compare_entry t)
  in
  (kept, !suppressed, stale)
