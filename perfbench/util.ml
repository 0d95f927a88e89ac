(* Clock, order statistics and file-system helpers. *)

let now () = Int64.to_float (Obs.Clock.monotonic ()) /. 1e9
let ms_since t0 = (now () -. t0) *. 1000.

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]; [0.] on no samples. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean of positive samples; [0.] on none. Over a fixed set
   of unequal costs it moves with every member, where the median jumps
   between neighbours far apart. *)
let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Samples strictly beyond the [p]-th percentile's rank. *)
let beyond xs p =
  let n = List.length xs in
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A JSON number for the result line: finite, with all its digits. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_str s = "\"" ^ Obs.Json.escape s ^ "\""
