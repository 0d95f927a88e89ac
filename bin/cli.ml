(* Command-line pieces shared by dpopt and dplint: the exact-rational
   argument converter and the --trace / --metrics observability term. *)

open Cmdliner

let rat_conv =
  let parse s =
    match Rat.of_string_opt s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "not a rational: %S (use p/q or decimals)" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Rat.to_string r))

(* --trace / --metrics: install an ambient Obs recorder for the whole
   command and dump it on exit. *)
let obs_term =
  let trace =
    let doc =
      "Record spans and counters and write a Chrome trace-event file on exit \
       (load it in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print counters and histograms to stderr on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let setup trace metrics =
    if trace <> None || metrics then begin
      let r = Obs.create () in
      Obs.set_current (Some r);
      at_exit (fun () ->
        Obs.set_current None;
        (match trace with
         | Some file -> Obs.write_chrome_trace r file
         | None -> ());
        if metrics then prerr_string (Obs.render_text r))
    end
  in
  Term.(const setup $ trace $ metrics)
