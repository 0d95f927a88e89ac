(* perfbench — the repository benchmark's load generator.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 --server DPSERVED --work DIR --results DIR
                 [--rev REV] [--src-digest D] [--tiny]

   Spawns dpserved, drives workload W for S seconds, checks every
   answer, and prints each metric by name and unit; the last line of
   stdout is the JSON result. With --trace 1 it then replays the same
   inputs in process and reports the per-layer metrics instead. Normally
   launched through perfbench/run.py, which builds it first. *)

module J = Obs.Json

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE --work DIR \
     --results DIR [--rev REV] [--src-digest D] [--tiny]";
  exit 2

let () =
  let args = Hashtbl.create 16 in
  let tiny = ref false in
  let rec parse = function
    | "--tiny" :: rest ->
      tiny := true;
      parse rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace args k v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt args k) in
  let workload = arg "--workload" in
  let seed = int_of_string (arg "--seed") in
  let seconds = float_of_string (arg "--seconds") in
  let trace = arg "--trace" = "1" in
  let results = arg "--results" in
  let drive =
    match List.assoc_opt workload Load.workloads with
    | Some d -> d
    | None ->
      Printf.eprintf "perfbench: unknown workload %s (known: %s)\n" workload
        (String.concat ", " (List.map fst Load.workloads));
      exit 2
  in
  let env =
    {
      Load.exe = arg "--server";
      work = Filename.concat (arg "--work") workload;
      size = (if !tiny then Gen.Tiny else Gen.Full);
      seed;
      seconds;
    }
  in
  Util.rm_rf env.Load.work;
  Util.mkdir_p env.Load.work;
  Util.mkdir_p results;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let host =
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("server_domains", J.Int (Engine.Pool.recommended_domains ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("git_rev", J.Str (opt "--rev" "none"));
      ("src_digest", J.Str (opt "--src-digest" "none"));
    ]
  in
  let run = drive env in
  let metrics, gate, extra =
    if not trace then (run.Load.metrics, run.Load.gate, [])
    else
      let layers, errors, spans, replayed, compiles =
        Replay.run ~work:env.Load.work ~budget:(2. *. seconds) run
      in
      let spans_file = Filename.concat results (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed) in
      Util.write_file spans_file spans;
      ( layers,
        run.Load.gate @ errors,
        [
          ("replayed_ops", J.Int replayed);
          ("replayed_compiles", J.Int compiles);
          ("spans_file", J.Str spans_file);
        ] )
  in
  let failed = Load.failed run.Load.failures in
  let correct = gate = [] in
  let attempted = run.Load.attempted in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds (if trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  host %-16s %s\n" k (J.to_string v)) host;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.4f %s\n" name v unit) metrics;
  Printf.printf "  attempted %d  ok %d  failed %d  fail_share %.6f\n" attempted (attempted - failed) failed
    (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted);
  List.iter (fun (k, v) -> Printf.printf "    failed.%s %d\n" k v) run.Load.failures;
  Printf.printf "  correctness gate: %s\n" (if correct then "pass" else "FAIL");
  List.iteri (fun i m -> if i < 20 then Printf.printf "    %s\n" m) gate;
  let metrics_json =
    "{"
    ^ String.concat ","
        (List.map
           (fun (name, v, unit) ->
             Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Util.json_str name) (Util.num v) (Util.json_str unit))
           metrics)
    ^ "}"
  in
  let record =
    J.Obj
      ([
         ("schema", J.Str "perfbench/result-v1");
         ("workload", J.Str workload);
         ("seed", J.Int seed);
         ("seconds", J.Str (Util.num seconds));
         ("trace", J.Int (if trace then 1 else 0));
         ("tiny", J.Bool !tiny);
         ("host", J.Obj host);
         ("correct", J.Bool correct);
         ("gate_errors", J.List (List.map (fun m -> J.Str m) gate));
         ("attempted", J.Int attempted);
         ("ok", J.Int (attempted - failed));
         ("failed", J.Int failed);
         ("failures", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) run.Load.failures));
       ]
      @ run.Load.facts @ extra)
  in
  (* The results file keeps floats as strings: the repo's JSON dialect
     is integer-only; the metric block is spliced in verbatim. *)
  let text = J.to_string record in
  let text = String.sub text 0 (String.length text - 1) ^ ",\"metrics\":" ^ metrics_json ^ "}\n" in
  Util.write_file
    (Filename.concat results (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0)))
    text;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct attempted failed
    metrics_json;
  exit (if correct then 0 else 1)
