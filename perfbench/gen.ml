(* Workload inputs: a pure function of the workload seed.

   Everything the server receives is generated here — request lines,
   their order, and the schedules that pace them. The same seed gives
   the same inputs on every host, so two runs of the benchmark differ
   only in the code under test. *)

module R = Engine.Request

type size = Full | Tiny

(* A serving query as it goes on the wire: the request payload plus the
   [seed=] envelope field that selects its sample stream. *)
type query = { req : R.t; seed : int }

let line ~id q = R.to_line ~id ~seed:q.seed q.req
let key q = R.canonical_key q.req

let rat = Rat.of_string

let make ?(input = 0) ?(count = 1) ~n ~alpha ~loss ~side () =
  match R.make ~input ~count ~n ~alpha:(rat alpha) ~loss ~side () with
  | Ok r -> r
  | Error msg -> invalid_arg (Printf.sprintf "perfbench: bad generated request: %s" msg)

let rng ~seed ~salt = Prob.Rng.of_int ((seed * 1_000_003) + salt)

(* [weighted g [|(w, x); ...|]] draws [x] with probability ∝ [w]. *)
let weighted g pairs =
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 pairs in
  let r = Prob.Rng.int g total in
  let rec go i acc =
    let w, x = pairs.(i) in
    if r < acc + w || i = Array.length pairs - 1 then x else go (i + 1) (acc + w)
  in
  go 0 0

(* Fisher–Yates, in place. *)
let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prob.Rng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* cold-sweep                                                           *)
(* ------------------------------------------------------------------ *)

(* The fixed consumer mix, wide side information included, repeated at
   every size of [fixed_sizes] (which also bound the size bands). *)
let fixed_sizes = function Full -> [ 8; 10; 12 ] | Tiny -> [ 4; 5; 6 ]

let fixed_mix size =
  List.concat_map
    (fun n ->
      [
        make ~n ~alpha:"1/2" ~loss:Zero_one ~side:Full ();
        make ~n ~alpha:"1/2" ~loss:Absolute ~side:(Interval (0, 3)) ();
        make ~n ~alpha:"1/2" ~loss:Squared ~side:(At_most 3) ();
      ])
    (fixed_sizes size)

(* The cold catalog: the fixed mix plus a stratified sweep of distinct
   consumers over n ∈ 6…12 (weighted to small n), the six loss families,
   three side-information shapes and three α values. Every run compiles
   the whole catalog, so every seed pays the same work; the seed picks
   the order and the inputs. *)
let cold_catalog size =
  let per_n =
    match size with
    | Full -> [ (6, 18); (7, 15); (8, 12); (9, 9); (10, 7); (11, 5); (12, 3) ]
    | Tiny -> [ (3, 6); (4, 5); (5, 4) ]
  in
  let losses : R.loss_spec array =
    [| Absolute; Squared; Zero_one; Deadzone 1; Capped 2; Asymmetric (Rat.of_int 1, Rat.of_int 2) |]
  in
  let alphas = [| "1/2"; "1/3"; "2/3" |] in
  let sweep =
    List.concat_map
      (fun (n, k) ->
        List.init k (fun i ->
            (* Shapes are contiguous and at most three results wide:
               compile cost grows steeply with the side-information set,
               and the fixed mix carries the wide shapes. *)
            let w = 1 + (i mod 2) in
            let side : R.side_spec =
              match i / 6 mod 3 with
              | 0 -> Interval ((n / 2) - 1, (n / 2) - 1 + w)
              | 1 -> At_most w
              | _ -> At_least (n - w)
            in
            ( "sweep",
              make ~n ~alpha:alphas.((i + n) mod 3) ~loss:losses.(i mod 6) ~side () )))
      per_n
  in
  let fixed = List.map (fun r -> ("fixed", r)) (fixed_mix size) in
  let seen = Hashtbl.create 128 in
  List.filter
    (fun (_, r) ->
      let k = R.canonical_key r in
      let fresh = not (Hashtbl.mem seen k) in
      Hashtbl.replace seen k ();
      fresh)
    (fixed @ sweep)

(* One pass over the catalog for [round]: a seed-permuted order, with
   uniform inputs. *)
let cold_round ~seed ~round size =
  let a = Array.of_list (cold_catalog size) in
  let g = rng ~seed ~salt:(100 + round) in
  shuffle g a;
  Array.to_list
    (Array.map
       (fun (cls, r) ->
         ( cls,
           make ~input:(Prob.Rng.int g (r.R.n + 1)) ~n:r.R.n ~alpha:(Rat.to_string r.R.alpha)
             ~loss:r.R.loss ~side:r.R.side () ))
       a)

(* ------------------------------------------------------------------ *)
(* hot-under-compile                                                    *)
(* ------------------------------------------------------------------ *)

(* The warm set: compiled into a fresh store during set-up, then
   preloaded. Fixed, so set-up does the same work for every seed. *)
let warm_set size =
  let spec =
    match size with
    | Full ->
      [
        (4, "1/2", R.Absolute, R.Full);
        (4, "1/3", R.Squared, R.Full);
        (5, "1/2", R.Zero_one, R.Full);
        (5, "2/3", R.Capped 2, R.Full);
        (6, "1/2", R.Absolute, R.Full);
        (6, "1/3", R.Deadzone 1, R.Interval (1, 4));
        (6, "3/4", R.Asymmetric (Rat.of_int 1, Rat.of_int 2), R.Full);
        (7, "1/2", R.Squared, R.At_most 4);
        (7, "2/5", R.Zero_one, R.Full);
        (8, "1/2", R.Absolute, R.Interval (0, 3));
        (8, "1/3", R.Capped 3, R.At_least 5);
        (8, "2/3", R.Squared, R.Interval (2, 5));
        (9, "1/2", R.Zero_one, R.Full);
        (9, "1/3", R.Absolute, R.At_most 2);
        (10, "1/2", R.Squared, R.Interval (3, 5));
        (10, "2/3", R.Absolute, R.Interval (0, 2));
      ]
    | Tiny ->
      [
        (3, "1/2", R.Absolute, R.Full);
        (3, "1/3", R.Squared, R.Full);
        (4, "1/2", R.Zero_one, R.Full);
        (4, "2/3", R.Capped 2, R.Interval (0, 2));
      ]
  in
  List.map (fun (n, alpha, loss, side) -> make ~n ~alpha ~loss ~side ()) spec

(* Zipf popularity (s = 1.1) over the warm set in a fixed rank order
   (so every seed offers the same work mix); counts 1 / 64 / 4096 at
   60 / 30 / 10 percent; uniform inputs. The seed drives the draws. *)
let hot_stream ~seed ~size =
  let warm = Array.of_list (warm_set size) in
  let k = Array.length warm in
  (* Rank r serves warm-set entry (5r mod k): popular keys spread over
     all sizes rather than the smallest n first. *)
  let weights =
    Array.init k (fun r -> (int_of_float (1e6 /. (float_of_int (r + 1) ** 1.1)), 5 * r mod k))
  in
  let g = rng ~seed ~salt:10 in
  fun () ->
    let base = warm.(weighted g weights) in
    let count = weighted g [| (60, 1); (30, 64); (10, 4096) |] in
    let input = Prob.Rng.int g (base.R.n + 1) in
    {
      req =
        make ~input ~count ~n:base.R.n ~alpha:(Rat.to_string base.R.alpha) ~loss:base.R.loss
          ~side:base.R.side ();
      seed;
    }

(* The cold compiles sent beside the hot stream: a fixed set (distinct
   from the warm set) of nine consumers at n 9–11 of like cost, 0.17–0.29 s
   each to compile on the host the benchmark was introduced on, so the
   hot tail is set by all of them rather than by one slow outlier. They
   go in a fixed order, so every run pays the same compile work and the
   LP solver's warm starts between compiles of one shape fall the same
   way; the seed picks only their inputs. Together they stall the runner
   for about a fifth of a run — a third on a host half again as slow,
   which with the tenth of hot requests that draw 4096 samples still
   leaves the hot median a median of unstalled requests. *)
let cold_set ~seed size =
  let spec =
    match size with
    | Full ->
      [
        (9, "1/2", R.Asymmetric (Rat.of_int 1, Rat.of_int 2), R.Full);
        (10, "1/2", R.Absolute, R.Interval (0, 4));
        (10, "1/2", R.Zero_one, R.Full);
        (11, "1/2", R.Zero_one, R.At_least 9);
        (9, "2/3", R.Capped 2, R.Full);
        (10, "1/3", R.Squared, R.At_most 4);
        (10, "1/3", R.Zero_one, R.Full);
        (10, "3/5", R.Absolute, R.Interval (0, 4));
        (10, "1/2", R.Capped 2, R.At_most 4);
      ]
    | Tiny -> [ (5, "1/2", R.Absolute, R.Full); (5, "1/3", R.Zero_one, R.Full) ]
  in
  let g = rng ~seed ~salt:3 in
  List.map
    (fun (n, alpha, loss, side) -> { req = make ~input:(Prob.Rng.int g (n + 1)) ~n ~alpha ~loss ~side (); seed })
    spec

(* ------------------------------------------------------------------ *)
(* session-ladder                                                       *)
(* ------------------------------------------------------------------ *)

type group = {
  n : int;
  input : int;
  subs : (string * Rat.t) list;  (** subscriber name, privacy level *)
}

let group_sizes = function Full -> [ 8; 16; 24; 32 ] | Tiny -> [ 3; 4; 5; 6 ]

(* Two groups per size, with fixed ladders — four levels up to n=16,
   three beyond — so every seed pays the same cascade work; the seed
   picks each group's true input (distinct within a size). Two groups a
   size give each run eight first epochs, the ones that build a plan. *)
let groups ~seed size =
  let g = rng ~seed ~salt:4 in
  List.concat_map
    (fun n ->
      let levels =
        if n <= 16 || size = Tiny then [ "1/4"; "1/3"; "1/2"; "2/3" ] else [ "1/3"; "1/2"; "2/3" ]
      in
      let a = Prob.Rng.int g (n + 1) in
      let b = (a + 1 + Prob.Rng.int g n) mod (n + 1) in
      List.mapi
        (fun copy input ->
          {
            n;
            input;
            subs = List.mapi (fun i l -> (Printf.sprintf "s%d_%d_%d" n copy i, rat l)) levels;
          })
        [ a; b ])
    (group_sizes size)

(* The release schedule, cycled, as indices into [groups]: sizes follow
   8, 16, 8, 16, 24, 16, 32 (alternating the two groups of each size), so
   the median lands inside the middle size class and the tail inside the
   largest. *)
let release_cycle = [ 0; 2; 1; 3; 4; 2; 6; 1; 3; 0; 2; 5; 3; 7 ]
