(* The traced run: replay a workload's generated inputs in process,
   through each layer's public functions, timing every call with spans
   that live in this file only.

   Where one public call contains another layer's public call —
   [Compiled.compile] ⊃ [Serve.serve] ⊃ the LP solves — the inner calls
   are also run and timed on the same input, and each outer call's self
   time is its span minus the inner ones. LP, bit-size and linear-algebra
   counts come from the ambient [Obs] recorder, read around each call. *)

module R = Engine.Request
module S = Minimax.Serve

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = { name : string; start_ns : int64; end_ns : int64; id : int; parent : int; req : string }

type recorder = {
  traced : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable req : string;
  sums : (string, float list) Hashtbl.t;  (** name → durations, ms *)
}

let recorder traced =
  { traced; spans = []; next_id = 0; open_ids = []; req = ""; sums = Hashtbl.create 64 }

(* Run [f] under a span named [name]; answer its result and duration
   in ms. Untraced, the call runs bare and its duration reads 0. *)
let span r name f =
  if not r.traced then (f (), 0.)
  else begin
    r.next_id <- r.next_id + 1;
    let id = r.next_id in
    let parent = match r.open_ids with p :: _ -> p | [] -> 0 in
    r.open_ids <- id :: r.open_ids;
    let t0 = Obs.Clock.monotonic () in
    let close () =
      let t1 = Obs.Clock.monotonic () in
      r.open_ids <- List.tl r.open_ids;
      r.spans <- { name; start_ns = t0; end_ns = t1; id; parent; req = r.req } :: r.spans;
      let ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
      Hashtbl.replace r.sums name (ms :: Option.value ~default:[] (Hashtbl.find_opt r.sums name));
      ms
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
      ignore (close ());
      raise e
  end

let timed r name f = fst (span r name f)
let note r name v = Hashtbl.replace r.sums name (v :: Option.value ~default:[] (Hashtbl.find_opt r.sums name))
let values r name = Option.value ~default:[] (Hashtbl.find_opt r.sums name)
let mean r name = Util.mean (values r name)
let total r name = List.fold_left ( +. ) 0. (values r name)

let spans_to_jsonl r =
  String.concat ""
    (List.rev_map
       (fun s ->
         Printf.sprintf "{\"name\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld,\"id\":%d,\"parent\":%d,\"req\":%s}\n"
           (Util.json_str s.name) s.start_ns s.end_ns s.id s.parent (Util.json_str s.req))
       r.spans)

(* ------------------------------------------------------------------ *)
(* LP counters                                                          *)
(* ------------------------------------------------------------------ *)

let lp_counters =
  [
    "lp.solves";
    "simplex.phase1.pivots";
    "simplex.phase2.pivots";
    "simplex.pivots";
    "lp.refactor";
    "lp.warm.hits";
    "lp.warm.misses";
    "simplex.narrow_steps";
    "simplex.degenerate_ties";
  ]

(* Run [f] and add the LP counters it moved to the recorder's sums. *)
let counting r f =
  let before = List.map Obs.counter_value lp_counters in
  let v = f () in
  List.iter2
    (fun name b -> if r.traced then note r ("#" ^ name) (float_of_int (Obs.counter_value name - b)))
    lp_counters before;
  v

(* ------------------------------------------------------------------ *)
(* Serving queries                                                      *)
(* ------------------------------------------------------------------ *)

(* One compile, broken down layer by layer. *)
let compile_breakdown r store ~key (req : R.t) =
  let consumer = R.consumer req and alpha = req.R.alpha and n = req.R.n in
  let geometric, geo_ms = span r "mech.geometric" (fun () -> Mech.Geometric.matrix ~n ~alpha) in
  let _, tailored_ms =
    span r "core.tailored" (fun () ->
        counting r (fun () -> Minimax.Optimal_mechanism.solve_budgeted ~alpha consumer))
  in
  let _, interaction_ms =
    span r "core.interaction" (fun () ->
        counting r (fun () ->
            Minimax.Optimal_interaction.solve_budgeted ~deployed:geometric consumer))
  in
  let served, serve_ms = span r "core.serve" (fun () -> S.serve ~alpha consumer) in
  let rung = served.S.provenance.S.rung in
  let derivable = rung <> S.Tailored in
  let _, certify_ms =
    span r "check.certify" (fun () ->
        let m = Mech.Mechanism.matrix served.S.mechanism in
        [ Check.Invariants.row_stochastic m; Check.Invariants.alpha_dp ~alpha m ]
        @ if derivable then [ Check.Invariants.derivability ~alpha m ] else [])
  in
  let _, sampler_ms =
    span r "engine.sampler_build" (fun () -> Engine.Compiled.sampler_of_mechanism served.S.mechanism)
  in
  let compiled, compile_ms =
    span r "engine.compile" (fun () -> Engine.Compiled.compile ~alpha ~key consumer)
  in
  ignore (span r "store.write" (fun () -> Store.write store compiled));
  ignore (span r "store.load" (fun () -> Store.load store ~key));
  ignore (span r "engine.of_served" (fun () -> Engine.Compiled.of_served ~key ~alpha served));
  if r.traced then begin
    (* What ran inside Serve.serve: the tailored LP and its certificate,
       plus G(n,α) and the interaction LP when it descended a rung. *)
    let inside = tailored_ms +. certify_ms +. if derivable then geo_ms +. interaction_ms else 0. in
    note r "core.serve_self" (serve_ms -. inside);
    note r "engine.compile_self" (compile_ms -. serve_ms -. certify_ms -. sampler_ms);
    note r ("rung." ^ S.rung_to_string rung) 1.;
    note r ("compile_ms:" ^ key) compile_ms
  end;
  (compiled, compile_ms)

type progress = { ops : int; elapsed : float; marks : float array }

(* Replay [ops] (served queries, in send order) until [limit] ops or
   [budget] seconds. [marks.(i)] is the elapsed time after op [i]. *)
let replay_queries r ~dir ~budget ~limit (ops : Load.sent list) =
  Util.rm_rf dir;
  let store =
    match Store.open_dir dir with
    | Ok s -> s
    | Error e -> failwith ("perfbench: replay store: " ^ Store.error_to_string e)
  in
  let seeders = Hashtbl.create 4 in
  let seeder conn =
    match Hashtbl.find_opt seeders conn with
    | Some s -> s
    | None ->
      let s = Engine.Seeder.create () in
      Hashtbl.replace seeders conn s;
      s
  in
  let marks = ref [] in
  let t0 = Util.now () in
  let n = ref 0 in
  Engine.with_engine ~domains:1 ~cache_capacity:4096 (fun eng ->
      let rec go = function
        | (s : Load.sent) :: rest when !n < limit && Util.now () -. t0 < budget ->
          if s.Load.reply = `Ok then begin
            r.req <- s.Load.id;
            let line = Gen.line ~id:s.Load.id s.Load.q in
            ignore (timed r "server.parse" (fun () -> R.of_line line));
            let req = s.Load.q.Gen.req in
            let key = R.canonical_key req in
            (* The in-process cost of this job: its compile, when it is
               the first of its key, plus run_jobs. *)
            let compiled, compile_ms =
              match Engine.artifact eng req with
              | Some c -> (c, 0.)
              | None ->
                let c, ms = compile_breakdown r store ~key req in
                Engine.preload eng [ c ];
                (c, ms)
            in
            let stream = Engine.Seeder.stream (seeder s.Load.conn) ~seed:s.Load.q.Gen.seed in
            let draw_stream = Prob.Rng.copy stream in
            let results, run_ms =
              span r "engine.run_jobs" (fun () ->
                  Engine.run_jobs eng [| { Engine.request = req; stream; budget = None; trace = None } |])
            in
            let count = req.R.count in
            let _, draw_ms =
              span r "engine.draws" (fun () ->
                  Engine.Compiled.draws compiled.Engine.Compiled.sampler ~input:req.R.input ~count
                    draw_stream)
            in
            ignore
              (timed r (Printf.sprintf "server.render.count%d" count) (fun () ->
                   match results.(0) with
                   | Ok resp -> Server.Response.to_line (Server.Response.of_engine ~id:s.Load.id resp)
                   | Error e -> Server.Response.to_line (Server.Response.of_job_error ~id:s.Load.id e)));
            if r.traced then begin
              note r (if count = 1 then "draw_ns.count1" else "draw_ns.alias")
                (draw_ms *. 1e6 /. float_of_int count);
              note r "wire_us" ((s.Load.lat_ms -. compile_ms -. run_ms) *. 1000.)
            end
          end;
          incr n;
          marks := (Util.now () -. t0) :: !marks;
          go rest
        | _ -> ()
      in
      go ops);
  { ops = !n; elapsed = Util.now () -. t0; marks = Array.of_list (List.rev !marks) }

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

(* dpserved's default seed: the session draws are a function of it. *)
let server_seed = 42

let replay_sessions r ~budget ~limit ~errors groups (epochs : Load.epoch list) =
  let t =
    match Session.create ~seed:server_seed () with
    | Ok t -> t
    | Error m -> failwith ("perfbench: session replay: " ^ m)
  in
  List.iter
    (fun g ->
      List.iter
        (fun (sub, level) ->
          match Session.subscribe t ~sub ~n:g.Gen.n ~input:g.Gen.input ~level () with
          | Ok _ -> ()
          | Error m -> failwith ("perfbench: session replay subscribe: " ^ m))
        g.Gen.subs)
    groups;
  let plans = Hashtbl.create 8 in
  let marks = ref [] in
  let t0 = Util.now () in
  let n_done = ref 0 in
  List.iter
    (fun (e : Load.epoch) ->
      if !n_done < limit && Util.now () -. t0 < budget then begin
        let g = List.nth groups e.Load.e_group in
        let n = g.Gen.n and input = g.Gen.input in
        let levels = List.map snd g.Gen.subs in
        let plan, plan_checks =
          match Hashtbl.find_opt plans e.Load.e_group with
          | Some p -> p
          | None ->
            let p =
              timed r "session.plan" (fun () ->
                  let plan = Minimax.Multi_level.make_plan ~n ~levels in
                  (plan, Session.Certificate.plan_checks plan))
            in
            Hashtbl.replace plans e.Load.e_group p;
            p
        in
        match timed r (Printf.sprintf "session.release.n%d" n) (fun () -> Session.release t ~n ~input) with
        | Error _ -> errors := Printf.sprintf "replayed release at n=%d refused" n :: !errors
        | Ok rel ->
          let group = Session.group_key ~n ~input in
          let epoch = rel.Session.r_epoch in
          let stream = Session.epoch_stream ~seed:server_seed ~group ~epoch in
          let values =
            timed r "session.draw" (fun () -> Minimax.Multi_level.release plan ~true_result:input stream)
          in
          ignore
            (timed r "session.mint" (fun () ->
                 Session.Certificate.mint ~plan ~plan_checks ~group ~epoch ~values));
          if values <> rel.Session.r_values then
            errors := Printf.sprintf "epoch %d of %s: draw differs from Session.release" epoch group :: !errors;
          incr n_done;
          marks := (Util.now () -. t0) :: !marks
      end)
    epochs;
  { ops = !n_done; elapsed = Util.now () -. t0; marks = Array.of_list (List.rev !marks) }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

let hist rec_ name f = match Obs.histogram rec_ name with Some h -> f h | None -> 0.

(* Every per-layer metric, in BENCHMARK.json order: name, value, unit. *)
let layer_metrics r obs ~(run : Load.run) ~ops ~overhead =
  let wire name = Option.value ~default:0. (List.assoc_opt name run.Load.wire) in
  let compiles = List.length (values r "engine.compile") in
  let per_compile name = if compiles = 0 then 0. else total r ("#" ^ name) /. float_of_int compiles in
  let pivots = total r "#simplex.pivots" in
  let lp_ms = total r "core.tailored" +. total r "core.interaction" in
  let share rung =
    if compiles = 0 then 0. else total r ("rung." ^ rung) /. float_of_int compiles
  in
  let warm = total r "#lp.warm.hits" and cold = total r "#lp.warm.misses" in
  let e2e name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) run.Load.metrics in
  let cold_compile_max =
    match run.Load.input with
    | Load.Queries ops ->
      List.fold_left
        (fun m (s : Load.sent) ->
          if s.Load.cls = "cold" then Float.max m (mean r ("compile_ms:" ^ Gen.key s.Load.q)) else m)
        0. ops
    | Load.Sessions _ -> 0.
  in
  let release n = mean r (Printf.sprintf "session.release.n%d" n) in
  let per_op c = if ops = 0 then 0. else float_of_int c /. float_of_int ops in
  [
    ("server.parse_us", mean r "server.parse" *. 1000., "us");
    ("server.render_us.count1", mean r "server.render.count1" *. 1000., "us");
    ("server.render_us.count64", mean r "server.render.count64" *. 1000., "us");
    ("server.render_us.count4096", mean r "server.render.count4096" *. 1000., "us");
    ("server.wire_us_p50", Util.median (values r "wire_us"), "us");
    ("server.outstanding_max", wire "server.outstanding_max", "count");
    ("server.rejected", wire "server.rejected", "count");
    ("engine.cache_hit_ratio", wire "engine.cache_hit_ratio", "ratio");
    ("engine.run_jobs_us", mean r "engine.run_jobs" *. 1000., "us");
    ("engine.compile_ms", mean r "engine.compile", "ms");
    ("engine.compile_self_ms", mean r "engine.compile_self", "ms");
    ("engine.sampler_build_ms", mean r "engine.sampler_build", "ms");
    ("engine.draw_ns.count1", mean r "draw_ns.count1", "ns");
    ("engine.draw_ns.alias", mean r "draw_ns.alias", "ns");
    ("engine.of_served_ms", mean r "engine.of_served", "ms");
    ("core.serve_ms", mean r "core.serve", "ms");
    ("core.serve_self_ms", mean r "core.serve_self", "ms");
    ("core.tailored_ms", mean r "core.tailored", "ms");
    ("core.interaction_ms", mean r "core.interaction", "ms");
    ("core.rung_share.tailored", share "tailored", "ratio");
    ("core.rung_share.remap", share "geometric+remap", "ratio");
    ("core.rung_share.raw", share "geometric", "ratio");
    ("lp.solves", per_compile "lp.solves", "count");
    ("lp.pivots.phase1", per_compile "simplex.phase1.pivots", "count");
    ("lp.pivots.phase2", per_compile "simplex.phase2.pivots", "count");
    ("lp.refactor", per_compile "lp.refactor", "count");
    ("lp.warm_hit_ratio", (if warm +. cold = 0. then 0. else warm /. (warm +. cold)), "ratio");
    ("lp.narrow_steps", per_compile "simplex.narrow_steps", "count");
    ("lp.degenerate_ties", per_compile "simplex.degenerate_ties", "count");
    ("lp.ms_per_pivot", (if pivots = 0. then 0. else lp_ms /. pivots), "ms");
    ("rat.pivot_bits_mean", hist obs "simplex.pivot_bits" Obs.Histogram.mean, "bits");
    ("rat.pivot_bits_max", hist obs "simplex.pivot_bits" (fun h -> float_of_int (Obs.Histogram.max h)), "bits");
    ("rat.objective_bits_max", hist obs "lp.objective_bits" (fun h -> float_of_int (Obs.Histogram.max h)), "bits");
    ("check.certify_ms", mean r "check.certify", "ms");
    ("store.write_ms", mean r "store.write", "ms");
    ("store.load_ms", mean r "store.load", "ms");
    ("store.hit_ratio", wire "store.hit_ratio", "ratio");
    ("mech.geometric_ms", mean r "mech.geometric", "ms");
    ("session.plan_ms", mean r "session.plan", "ms");
    ("session.draw_ms", mean r "session.draw", "ms");
    ("session.mint_ms", mean r "session.mint", "ms");
    ("session.release_ms.n8", release 8, "ms");
    ("session.release_ms.n16", release 16, "ms");
    ("session.release_ms.n24", release 24, "ms");
    ("session.release_ms.n32", release 32, "ms");
    ("linalg.inversions", per_op (Obs.counter obs "matrix.inversions"), "count");
    ("linalg.muls", per_op (Obs.counter obs "matrix.muls"), "count");
    ("linalg.inverse_bits_max", hist obs "matrix.inverse_bits" (fun h -> float_of_int (Obs.Histogram.max h)), "bits");
    ("gen.lateness_ms_p99", wire "gen.lateness_ms_p99", "ms");
    ( "gen.hot_tail_over_cold_compile",
      (match e2e "latency_ms_tail" with
      | Some tail when cold_compile_max > 0. -> tail /. cold_compile_max
      | _ -> 0.),
      "ratio" );
    ("trace.overhead_ratio", overhead, "ratio");
  ]

(* The traced replay, then the same prefix untraced for the overhead
   ratio. Answers the per-layer metrics, replay errors and the spans. *)
let run ~work ~budget (run : Load.run) =
  let obs = Obs.create () in
  let traced = recorder true in
  let errors = ref [] in
  let replay r ~limit ~budget ~errors =
    match run.Load.input with
    | Load.Queries ops -> replay_queries r ~dir:(Filename.concat work "replay-store") ~budget ~limit ops
    | Load.Sessions { groups; epochs } -> replay_sessions r ~budget ~limit ~errors groups epochs
  in
  Obs.set_current (Some obs);
  let p = Fun.protect ~finally:(fun () -> Obs.set_current None) (fun () -> replay traced ~limit:max_int ~budget ~errors) in
  (* The untraced prefix: the ops the traced replay finished in its
     first quarter (at least one). *)
  let prefix =
    let k = ref 0 in
    Array.iteri (fun i t -> if t <= p.elapsed /. 4. then k := i + 1) p.marks;
    max 1 (min !k p.ops)
  in
  let overhead =
    if p.ops = 0 then 1.
    else
      let bare = replay (recorder false) ~limit:prefix ~budget:infinity ~errors:(ref []) in
      p.marks.(prefix - 1) /. Float.max 1e-9 bare.elapsed
  in
  ( layer_metrics traced obs ~run ~ops:p.ops ~overhead,
    List.rev !errors,
    spans_to_jsonl traced,
    p.ops,
    List.length (values traced "engine.compile") )
