(* The load generator: set-up, the three workloads, and the
   correctness gate. One process, one thread; every socket is driven
   from one select loop. *)

module R = Engine.Request
module J = Obs.Json

type env = {
  exe : string;  (** the dpserved binary *)
  work : string;  (** scratch directory for stores and logs *)
  size : Gen.size;
  seed : int;
  seconds : float;
}

(* One query sent on the wire. *)
type sent = {
  id : string;
  conn : int;
  q : Gen.query;
  cls : string;  (** the size class it reports under *)
  due : float;  (** when it was due; the send time in a closed loop *)
  mutable lat_ms : float;  (** due → reply *)
  mutable reply : [ `Pending | `Ok | `Failed of string ];
  mutable digest : string;  (** MD5 of the reply line *)
}

(* One session epoch: the release reply and the pushes it caused. *)
type epoch = {
  e_group : int;  (** index into the workload's groups *)
  e_n : int;
  e_first : bool;  (** the group's first release: builds its plan *)
  e_lat_ms : float;
  e_reply : string;
  e_pushes : string list;
}

type trace_input =
  | Queries of sent list
  | Sessions of { groups : Gen.group list; epochs : epoch list }

type run = {
  metrics : (string * float * string) list;  (** end-to-end: name, value, unit *)
  attempted : int;
  failures : (string * int) list;  (** by kind; every kind listed *)
  gate : string list;  (** correctness failures; empty means the gate passed *)
  facts : (string * J.t) list;  (** extra results-file fields *)
  wire : (string * float) list;  (** per-layer numbers only the wire run sees *)
  input : trace_input;
}

let fresh_dir env name =
  let d = Filename.concat env.work name in
  Util.rm_rf d;
  Util.mkdir_p d;
  d

let spawn env args = Proc.spawn ~exe:env.exe ~log:(Filename.concat env.work "dpserved.log") args

(* Set-up ends when the server answers an op=stats round trip. *)
let ready s = ignore (Proc.stats s.Proc.port)

let new_sent ~id ~conn ~cls ~due q =
  { id; conn; q; cls; due; lat_ms = 0.; reply = `Pending; digest = "" }

let record s line =
  s.lat_ms <- (Util.now () -. s.due) *. 1000.;
  s.digest <- Digest.string line;
  s.reply <- Proc.classify line

(* Failure accounting over every attempted operation. *)
let tally replies =
  let count r = List.length (List.filter (( = ) r) replies) in
  let failures =
    List.map
      (fun k -> (k, count (`Failed k) + if k = "no_response" then count `Pending else 0))
      Proc.fail_kinds
  in
  (List.length replies, failures)

let failed failures = List.fold_left (fun acc (_, k) -> acc + k) 0 failures

(* ------------------------------------------------------------------ *)
(* Loops                                                                *)
(* ------------------------------------------------------------------ *)

let grace = 60.

(* Closed loop: one query outstanding per connection, the next sent as
   soon as its reply lands (replies are matched by id); [next c now] answers connection [c]'s next query,
   or [None] once it is done. Gives up on replies still missing at
   [hard]. Returns every query sent, in send order. *)
let closed_loop conns ~hard ~next =
  let pending = Hashtbl.create 16 in
  let log = ref [] in
  let issue c =
    match next c (Util.now ()) with
    | None -> ()
    | Some s ->
      Proc.send conns.(c) (Gen.line ~id:s.id s.q);
      Hashtbl.replace pending s.id s;
      log := s :: !log
  in
  Array.iteri (fun c _ -> issue c) conns;
  while Hashtbl.length pending > 0 && Util.now () < hard do
    let ready = Proc.readable (Array.to_list conns) (Float.min 0.5 (hard -. Util.now ())) in
    Array.iteri
      (fun c conn ->
        if List.memq conn ready then begin
          Proc.fill conn;
          while not (Queue.is_empty conn.Proc.lines) do
            let line = Queue.pop conn.Proc.lines in
            match Option.bind (Proc.id_of line) (Hashtbl.find_opt pending) with
            | Some s ->
              record s line;
              Hashtbl.remove pending s.id;
              issue c
            | None -> ()
          done;
          if conn.Proc.closed then
            Hashtbl.filter_map_inplace (fun _ s -> if s.conn = c then None else Some s) pending
        end)
      conns
  done;
  List.rev !log

let lat ops = List.map (fun s -> s.lat_ms) (List.filter (fun s -> s.reply = `Ok) ops)
let lat_cls cls ops = lat (List.filter (fun s -> s.cls = cls) ops)

(* ------------------------------------------------------------------ *)
(* The correctness gate for serving queries                             *)
(* ------------------------------------------------------------------ *)

(* Replay each connection's admitted queries in process through
   [Engine.run_jobs], drawing from that connection's [Engine.Seeder]
   streams, and compare every rendered line byte for byte (by digest)
   with what the wire delivered. The replay engine reads the run's own
   store, whose every entry re-certifies through the full invariant
   wall on load; so the replay pays verification, not compilation.
   Then check each served consumer's loss against Theorem 1: the
   consumer's optimal interaction with G(n,α). *)
let gate_queries ~store_dir ops =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match Store.open_dir ~readonly:true store_dir with
  | Error e -> err "cannot open the run's store: %s" (Store.error_to_string e)
  | Ok store ->
    Engine.with_engine ~domains:1 ~cache_capacity:4096 ~tier:(Store.tier store) (fun eng ->
        let conns = List.sort_uniq compare (List.map (fun s -> s.conn) ops) in
        let losses = Hashtbl.create 64 in
        List.iter
          (fun conn ->
            let admitted =
              Array.of_list
                (List.filter
                   (fun s -> s.conn = conn && (s.reply = `Ok || s.reply = `Failed "uncertified"))
                   ops)
            in
            let seeder = Engine.Seeder.create () in
            let chunk = 128 in
            for c = 0 to (Array.length admitted - 1) / chunk do
              let batch = Array.sub admitted (c * chunk) (min chunk (Array.length admitted - (c * chunk))) in
              let jobs =
                Array.map
                  (fun s ->
                    {
                      Engine.request = s.q.Gen.req;
                      stream = Engine.Seeder.stream seeder ~seed:s.q.Gen.seed;
                      budget = None;
                      trace = None;
                    })
                  batch
              in
              Array.iteri
                (fun i result ->
                  let s = batch.(i) in
                  let resp =
                    match result with
                    | Ok r ->
                      Hashtbl.replace losses r.Engine.key (s.q.Gen.req, r.Engine.loss);
                      Server.Response.of_engine ~id:s.id r
                    | Error e -> Server.Response.of_job_error ~id:s.id e
                  in
                  if Digest.string (Server.Response.to_line resp) <> s.digest then
                    err "conn %d, %s: wire bytes differ from the in-process replay" conn s.id)
                (Engine.run_jobs eng jobs)
            done)
          conns;
        Hashtbl.iter
          (fun key (req, loss) ->
            let deployed = Mech.Geometric.matrix ~n:req.R.n ~alpha:req.R.alpha in
            let thm1 = Minimax.Optimal_interaction.solve ~deployed (R.consumer req) in
            if not (Rat.equal thm1.Minimax.Optimal_interaction.loss loss) then
              err "%s: served loss %s, Theorem 1 gives %s" key (Rat.to_string loss)
                (Rat.to_string thm1.Minimax.Optimal_interaction.loss))
          losses));
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* Stop the server after reading its op=stats counters and peak
   memory; answer the server-side per-layer numbers. *)
let finish server conns =
  let stats = Proc.stats server.Proc.port in
  let peak = Proc.peak_rss_mb server in
  List.iter Proc.close conns;
  Proc.stop server;
  let rejected =
    List.fold_left ( + ) 0
      (List.map (fun k -> Proc.stats_int stats [ "rejected"; k ]) [ "protocol"; "overloaded"; "deadline" ])
  in
  let ratio section =
    let h = Proc.stats_int stats [ section; "hits" ] and m = Proc.stats_int stats [ section; "misses" ] in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  ( peak,
    [
      ("server.rejected", float_of_int rejected);
      ("engine.cache_hit_ratio", ratio "cache");
      ("store.hit_ratio", ratio "store");
    ],
    match stats with Some s -> [ ("server_stats", s) ] | None -> [] )

(* Every end-to-end metric, in the order BENCHMARK.json lists them.
   [classes] are the three size classes' latencies (small, mid, large),
   summarised by [band] (the median unless given); [cold] the
   latencies of the run's fixed set of requests that had to compile or
   plan, summarised by their geometric mean. *)
let assemble ?(band = Util.median) ~setup ~replies ~lats ~pct ~classes ~cold ~elapsed ~peak () =
  let attempted, failures = tally replies in
  let ok = attempted - failed failures in
  let c1, c2, c3 = classes in
  let metrics =
    [
      ("setup_s", Util.median setup, "s");
      ("latency_ms_p50", Util.median lats, "ms");
      ("latency_ms_tail", Util.percentile lats pct, "ms");
      ("latency_ms_small", band c1, "ms");
      ("latency_ms_mid", band c2, "ms");
      ("latency_ms_large", band c3, "ms");
      ("cold_latency_ms", Util.geomean cold, "ms");
      ("throughput_rps", float_of_int ok /. elapsed, "1/s");
      ("ok_share", (if attempted = 0 then 0. else float_of_int ok /. float_of_int attempted), "share");
      ("peak_rss_mb", peak, "MB");
    ]
  in
  let facts =
    [
      ("tail_percentile", J.Str (Printf.sprintf "p%g" pct));
      ("latency_samples", J.Int (List.length lats));
      ("tail_samples_beyond", J.Int (Util.beyond lats pct));
      ("setup_repeats", J.Int (List.length setup));
      ("cold_samples", J.Int (List.length cold));
    ]
  in
  (attempted, failures, metrics, facts)

(* ---- cold-sweep ---- *)

(* A fresh server on an empty store, with its first-request paths
   faulted in on a side connection (its own seeder; a consumer outside
   the catalog). Answers the server and its spawn-to-ready time. *)
let cold_server env dir =
  let t0 = Util.now () in
  let s = spawn env [ "-p"; "0"; "--store"; dir ] in
  ready s;
  let t = Util.now () -. t0 in
  let side = Proc.connect s.Proc.port in
  Proc.send side
    (Gen.line ~id:"warmup"
       { Gen.req = Gen.make ~n:2 ~alpha:"1/2" ~loss:R.Absolute ~side:R.Full (); seed = 0 });
  ignore (Proc.recv side);
  Proc.close side;
  (s, t)

(* Rounds over the cold catalog, each on a fresh server and store, until
   the deadline; the first round always runs to the end, and a server
   restart between rounds is not timed. *)
let cold_sweep env =
  let earlier =
    List.init 24 (fun i ->
        let s, t = cold_server env (fresh_dir env (Printf.sprintf "setup%d" i)) in
        Proc.stop s;
        t)
  in
  let store0 = fresh_dir env "store0" in
  let server0, t = cold_server env store0 in
  let setup = t :: earlier in
  let k = ref 0 in
  let deadline = Util.now () +. env.seconds in
  let rec rounds i server store measured peak acc =
    let pending = ref (Gen.cold_round ~seed:env.seed ~round:i env.size) in
    let next _ now =
      match !pending with
      | (cls, req) :: rest when i = 0 || now < deadline ->
        pending := rest;
        incr k;
        Some (new_sent ~id:(Printf.sprintf "c%d" !k) ~conn:0 ~cls ~due:now { Gen.req; seed = env.seed })
      | _ -> None
    in
    let conn = Proc.connect server.Proc.port in
    let t0 = Util.now () in
    let ops = closed_loop [| conn |] ~hard:(t0 +. 120.) ~next in
    let measured = measured +. (Util.now () -. t0) in
    let p, wire, stats = finish server [ conn ] in
    let acc = (store, ops, wire, stats) :: acc in
    if Util.now () < deadline then
      let store = fresh_dir env (Printf.sprintf "store%d" (i + 1)) in
      let server, _ = cold_server env store in
      rounds (i + 1) server store measured (Float.max peak p) acc
    else (measured, Float.max peak p, List.rev acc)
  in
  let measured, peak, done_rounds = rounds 0 server0 store0 0. 0. [] in
  let ops = List.concat_map (fun (_, o, _, _) -> o) done_rounds in
  (* Size bands of the whole catalog (n ≤ 7, n = 8–9, n ≥ 10), each the
     geometric mean of its 20 to 40 compiles: the same consumers every
     seed, whose costs are spread too far apart for a steady median. *)
  let band lo hi = lat (List.filter (fun s -> s.q.Gen.req.R.n >= lo && s.q.Gen.req.R.n <= hi) ops) in
  let classes =
    match Gen.fixed_sizes env.size with
    | [ a; b; _ ] -> (band 0 (a - 1), band a (b - 1), band b max_int)
    | _ -> ([], [], [])
  in
  let attempted, failures, metrics, facts =
    assemble ~band:Util.geomean ~setup ~replies:(List.map (fun s -> s.reply) ops) ~lats:(lat ops) ~pct:85. ~classes
      ~cold:(lat_cls "sweep" ops) ~elapsed:measured ~peak ()
  in
  let ops0, wire, stats =
    match done_rounds with (_, o, w, st) :: _ -> (o, w, st) | [] -> ([], [], [])
  in
  {
    metrics;
    attempted;
    failures;
    gate = List.concat_map (fun (store, o, _, _) -> gate_queries ~store_dir:store o) done_rounds;
    facts =
      facts @ stats
      @ [
          ("size_classes", J.Str "catalog consumers at n <= 7 / 8-9 / >= 10");
          ("rounds", J.Int (List.length done_rounds));
          ( "median_ms_by_n",
            J.Obj
              (List.filter_map
                 (fun n ->
                   match lat (List.filter (fun s -> s.q.Gen.req.R.n = n) ops) with
                   | [] -> None
                   | l ->
                     Some
                       ( string_of_int n,
                         J.Obj
                           [ ("median_ms", J.Str (Util.num (Util.median l))); ("samples", J.Int (List.length l)) ]
                       ))
                 (List.init 13 Fun.id)) );
        ];
    wire = wire @ [ ("server.outstanding_max", 1.); ("gen.lateness_ms_p99", 0.) ];
    input = Queries ops0;
  }

(* ---- hot-under-compile ---- *)

(* Compile the warm set into a fresh store through the wire, restart
   the server on that store with --preload, and wait until it answers.
   Done three times; the last server is handed back running, with each
   repeat's set-up time. *)
let hot_setup env =
  let warm = Gen.warm_set env.size in
  let once i =
    let t0 = Util.now () in
    let dir = fresh_dir env (Printf.sprintf "store%d" i) in
    let s1 = spawn env [ "-p"; "0"; "--store"; dir ] in
    let c = Proc.connect s1.Proc.port in
    List.iteri
      (fun j req ->
        Proc.send c (Gen.line ~id:(Printf.sprintf "w%d" j) { Gen.req; seed = env.seed });
        match Proc.recv c with
        | Some l when Proc.classify l = `Ok -> ()
        | Some l -> failwith ("perfbench: set-up compile refused: " ^ l)
        | None -> failwith "perfbench: server closed during set-up")
      warm;
    Proc.close c;
    Proc.stop s1;
    let s2 = spawn env [ "-p"; "0"; "--store"; dir; "--preload" ] in
    ready s2;
    (s2, dir, Util.now () -. t0)
  in
  let rec go i acc =
    let s, dir, t = once i in
    if i = 2 then (s, dir, t :: acc)
    else begin
      Proc.stop s;
      go (i + 1) (t :: acc)
    end
  in
  go 0 []

(* Hot keys by size, cut so each band draws about a third of the
   traffic (60 to 80 requests in a run), where the 4096 count alone
   would give a median of some 20. *)
let size_band n = if n <= 5 then "small" else if n <= 7 then "mid" else "large"

let hot_under_compile env =
  let server, store, setup = hot_setup env in
  let a = Proc.connect server.Proc.port and b = Proc.connect server.Proc.port in
  (* Far below the runner's capacity, so a compile's worth of hot
     arrivals stays under the admission queue bound of 64 even when the
     host runs compiles three times slower (0.9 s × 20). At 40/s the
     server held each reply until the next request arrived, so every
     unstalled latency read one inter-arrival gap; at 20/s replies are
     not held and the unstalled latencies are service times. *)
  let rate = match env.size with Gen.Full -> 20. | Gen.Tiny -> 10. in
  let hot = Gen.hot_stream ~seed:env.seed ~size:env.size in
  let colds = Gen.cold_set ~seed:env.seed env.size in
  let t0 = Util.now () +. 0.05 in
  let deadline = t0 +. env.seconds in
  (* Cold compiles are spread evenly over the run, each sent half an
     arrival gap before a hot request falls due: every compile then meets
     the hot stream at the same phase, so the hot latencies stalled
     behind it are the same set in every run, up to the compile's own
     time. *)
  let spacing = env.seconds *. rate /. float_of_int (List.length colds) in
  let cold_due =
    ref
      (List.mapi
         (fun j q -> (t0 +. ((Float.floor ((float_of_int j +. 0.5) *. spacing) +. 0.5) /. rate), q))
         colds)
  in
  let hot_sent = ref 0 in
  let pending = Hashtbl.create 128 in
  let log = ref [] and lateness = ref [] in
  let outstanding_max = ref 0 in
  let send conn s =
    let now = Util.now () in
    Proc.send conn (Gen.line ~id:s.id s.q);
    lateness := ((now -. s.due) *. 1000.) :: !lateness;
    Hashtbl.replace pending s.id s;
    outstanding_max := max !outstanding_max (Hashtbl.length pending);
    log := s :: !log
  in
  let hard = deadline +. grace in
  let rec loop () =
    let now = Util.now () in
    let hot_due = t0 +. (float_of_int !hot_sent /. rate) in
    let more_hot = hot_due < deadline in
    let next_due =
      Float.min
        (if more_hot then hot_due else infinity)
        (match !cold_due with (d, _) :: _ -> d | [] -> infinity)
    in
    if (next_due < infinity || Hashtbl.length pending > 0) && now < hard then begin
      List.iter
        (fun conn ->
          Proc.fill conn;
          while not (Queue.is_empty conn.Proc.lines) do
            let line = Queue.pop conn.Proc.lines in
            match Option.bind (Proc.id_of line) (Hashtbl.find_opt pending) with
            | Some s ->
              record s line;
              Hashtbl.remove pending s.id
            | None -> ()
          done)
        (Proc.readable [ a; b ] (Float.min 0.5 (Float.min (next_due -. now) (hard -. now))));
      let now = Util.now () in
      let rec send_hot () =
        let due = t0 +. (float_of_int !hot_sent /. rate) in
        if due <= now && due < deadline then begin
          let q = hot () in
          send a
            (new_sent ~id:(Printf.sprintf "a%d" !hot_sent) ~conn:0 ~cls:(size_band q.Gen.req.R.n) ~due q);
          incr hot_sent;
          send_hot ()
        end
      in
      send_hot ();
      (match !cold_due with
      | (due, q) :: rest when due <= now ->
        cold_due := rest;
        send b (new_sent ~id:(Printf.sprintf "b%d" (List.length rest)) ~conn:1 ~cls:"cold" ~due q)
      | _ -> ());
      loop ()
    end
  in
  loop ();
  let ops = List.rev !log in
  let peak, wire, stats = finish server [ a; b ] in
  let hot_ops = List.filter (fun s -> s.conn = 0) ops in
  let cold_ops = List.filter (fun s -> s.conn = 1) ops in
  (* A hot request is stalled when it fell due while a cold compile was
     on the wire. The size bands are medians of unstalled requests:
     cache-hit service time by size, which the band's stalled requests
     would otherwise push towards the edge of the median. *)
  let inside c h = h.due >= c.due && h.due < c.due +. (c.lat_ms /. 1000.) in
  let unstalled = List.filter (fun h -> not (List.exists (fun c -> inside c h) cold_ops)) hot_ops in
  (* From the first due time to the last reply: the offered rate, less
     whatever the last requests still waited for. *)
  let last = List.fold_left (fun acc s -> Float.max acc (s.due +. (s.lat_ms /. 1000.))) t0 ops in
  let attempted, failures, metrics, facts =
    assemble ~setup ~replies:(List.map (fun s -> s.reply) ops) ~lats:(lat hot_ops) ~pct:95.
      ~classes:(lat_cls "small" unstalled, lat_cls "mid" unstalled, lat_cls "large" unstalled)
      ~cold:(lat cold_ops) ~elapsed:(last -. t0) ~peak ()
  in
  (* Each cold compile's window on the wire, beside the worst hot
     latency among hot requests due inside it: the hot tail is the
     compile it queued behind. *)
  let windows =
    List.map
      (fun c ->
        let during = List.filter (inside c) hot_ops in
        J.Obj
          [
            ("key", J.Str (Gen.key c.q));
            ("cold_ms", J.Str (Util.num c.lat_ms));
            ("hot_due_inside", J.Int (List.length during));
            ("hot_max_ms_inside", J.Str (Util.num (List.fold_left (fun m h -> Float.max m h.lat_ms) 0. during)));
          ])
      cold_ops
  in
  {
    metrics;
    attempted;
    failures;
    gate = gate_queries ~store_dir:store ops;
    facts =
      facts @ stats
      @ [
          ("size_classes", J.Str "unstalled hot keys at n <= 5 / 6-7 / 8-10");
          ("unstalled_samples", J.Int (List.length unstalled));
          ("hot_rate_rps", J.Str (Util.num rate));
          ("cold_windows", J.List windows);
        ];
    wire =
      wire
      @ [
          ("server.outstanding_max", float_of_int !outstanding_max);
          ("gen.lateness_ms_p99", Util.percentile !lateness 99.);
        ];
    input = Queries ops;
  }

(* ---- session-ladder ---- *)

let starts_with_status st line = String.starts_with ~prefix:(Proc.status_prefix ^ st ^ "\"") line

(* Check every epoch: the certificate replays from its own JSON, and
   every push carries the rung the release drew at its level (and the
   release's own certificate). *)
let gate_sessions groups epochs =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let member k j = Option.value ~default:J.Null (J.member k j) in
  List.iteri
    (fun i e ->
      match J.of_string e.e_reply with
      | Error m -> err "epoch %d: unparsable release reply (%s)" i m
      | Ok reply -> (
        let release = member "release" reply in
        let cert_json = member "certificate" release in
        (match Session.Certificate.of_json cert_json with
        | Error m -> err "epoch %d: certificate does not parse: %s" i m
        | Ok cert -> (
          match Session.Certificate.replay cert with
          | Ok () -> ()
          | Error rule -> err "epoch %d: certificate replay failed at %s" i rule));
        let strs = function J.List l -> List.filter_map J.to_str_opt l | _ -> [] in
        let ints = function J.List l -> List.filter_map J.to_int_opt l | _ -> [] in
        let levels = List.map Rat.of_string (strs (member "levels" release)) in
        let values = ints (member "values" release) in
        let group = List.nth groups e.e_group in
        if List.length e.e_pushes <> List.length group.Gen.subs then
          err "epoch %d: %d pushes for %d subscribers" i (List.length e.e_pushes)
            (List.length group.Gen.subs);
        List.iter
          (fun p ->
            match J.of_string p with
            | Error m -> err "epoch %d: unparsable push (%s)" i m
            | Ok push -> (
              let level = Option.map Rat.of_string (J.to_str_opt (member "alpha" push)) in
              let idx =
                Option.bind level (fun l ->
                    List.find_index (fun x -> Rat.equal x l) levels)
              in
              match (idx, J.to_int_opt (member "value" push)) with
              | Some ix, Some v when List.nth values ix = v ->
                if J.to_string (member "certificate" push) <> J.to_string cert_json then
                  err "epoch %d: push certificate differs from the release's" i
              | _ -> err "epoch %d: pushed rung differs from the release's value at its level" i))
          e.e_pushes))
    epochs;
  List.rev !errors

let session_ladder env =
  let groups = Gen.groups ~seed:env.seed env.size in
  let once () =
    let t0 = Util.now () in
    let s = spawn env [ "-p"; "0" ] in
    let a = Proc.connect s.Proc.port in
    List.iter
      (fun g ->
        List.iter
          (fun (sub, level) ->
            Proc.send a
              (R.session_to_line ~id:sub
                 (R.Subscribe { sub; n = g.Gen.n; input = g.Gen.input; level; budget = None }));
            match Proc.recv a with
            | Some l when starts_with_status "subscribed" l -> ()
            | _ -> failwith "perfbench: subscribe refused during set-up")
          g.Gen.subs)
      groups;
    (s, a, Util.now () -. t0)
  in
  let rec go i acc =
    let s, a, t = once () in
    if i = 24 then (s, a, t :: acc)
    else begin
      Proc.close a;
      Proc.stop s;
      go (i + 1) (t :: acc)
    end
  in
  let server, a, setup = go 0 [] in
  let b = Proc.connect server.Proc.port in
  let cycle = Array.of_list Gen.release_cycle in
  let planned = Hashtbl.create 8 in
  let deadline = Util.now () +. env.seconds in
  let epochs = ref [] and replies = ref [] in
  let i = ref 0 in
  (* One whole cycle always runs, so every group releases. *)
  while Util.now () < deadline || !i < Array.length cycle do
    let gi = cycle.(!i mod Array.length cycle) in
    let g = List.nth groups gi in
    let n = g.Gen.n in
    let t = Util.now () in
    Proc.send b
      (R.session_to_line ~id:(Printf.sprintf "e%d" !i) (R.Release { n; input = g.Gen.input }));
    let reply = Proc.recv b in
    let pushes =
      match reply with
      | Some r when starts_with_status "released" r -> List.filter_map (fun _ -> Proc.recv a) g.Gen.subs
      | _ -> []
    in
    let lat_ms = Util.ms_since t in
    (match reply with
    | Some r when starts_with_status "released" r ->
      replies := `Ok :: !replies;
      epochs :=
        {
          e_group = gi;
          e_n = n;
          e_first = not (Hashtbl.mem planned gi);
          e_lat_ms = lat_ms;
          e_reply = r;
          e_pushes = pushes;
        }
        :: !epochs;
      Hashtbl.replace planned gi ()
    | Some r -> replies := Proc.classify r :: !replies
    | None -> replies := `Failed "no_response" :: !replies);
    incr i
  done;
  let elapsed = Util.now () -. (deadline -. env.seconds) in
  let epochs = List.rev !epochs in
  let peak, wire, stats = finish server [ a; b ] in
  let lats_of f = List.map (fun e -> e.e_lat_ms) (List.filter f epochs) in
  let warm = lats_of (fun e -> not e.e_first) in
  let by n = lats_of (fun e -> (not e.e_first) && e.e_n = n) in
  let classes =
    match Gen.group_sizes env.size with
    | [ s; m; _; l ] -> (by s, by m, by l)
    | _ -> ([], [], [])
  in
  let attempted, failures, metrics, facts =
    assemble ~setup ~replies:(List.rev !replies) ~lats:warm ~pct:95. ~classes
      ~cold:(lats_of (fun e -> e.e_first)) ~elapsed ~peak ()
  in
  {
    metrics;
    attempted;
    failures;
    gate = gate_sessions groups epochs;
    facts = facts @ stats @ [ ("size_classes", J.Str "release at n = 8 / 16 / 32") ];
    wire = wire @ [ ("server.outstanding_max", 1.); ("gen.lateness_ms_p99", 0.) ];
    input = Sessions { groups; epochs };
  }

let workloads =
  [
    ("cold-sweep", cold_sweep);
    ("hot-under-compile", hot_under_compile);
    ("session-ladder", session_ladder);
  ]
