(* Store chaos harness (`dune build @store-chaos`, or `make
   store-chaos`; @chaos depends on it).

   The persistence contract under attack: whatever happens to the
   store — tripped reads, tripped writes, tripped verification, torn
   writes, bit flips, foreign files, frames from the future, a writer
   killed mid-write — the engine serves bytes that are identical to a
   storeless run's, and every injury is visible as the right typed
   refusal in the store counters rather than as a crash or a wrong
   sample.

   Every scenario runs the same request batch three ways:

   - a storeless baseline (the reference bytes);
   - a cold run over an empty store (populates entries, must match);
   - a warm run over the (possibly sabotaged) store (must match).

   Deterministic throughout: fixed seed, exact hit counts, corruption
   applied byte-for-byte at fixed offsets. *)

let q = Rat.of_ints

module F = Resilience.Fault
module En = Engine
module Rq = Engine.Request
module St = Store

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" label
  end

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let requests =
  let mk input count n alpha loss =
    match Rq.make ~input ~count ~n ~alpha ~loss ~side:Rq.Full () with
    | Ok r -> r
    | Error m -> failwith ("store-chaos request: " ^ m)
  in
  [| mk 1 40 4 (q 1 2) Rq.Absolute; mk 2 30 5 (q 1 3) Rq.Zero_one |]

let with_dir f =
  let dir = Filename.temp_file "dpstore-chaos" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let open_store dir =
  match St.open_dir dir with
  | Ok s -> s
  | Error e -> failwith ("store-chaos open_dir: " ^ St.error_to_string e)

let samples rs = Array.map (fun (r : En.response) -> r.En.samples) rs

(* One engine lifetime over [tier]: run the batch, return (samples,
   responses). A fresh engine per call keeps the memory cache cold so
   the store tier actually answers the warm runs. *)
let run ?plan ?tier () =
  En.with_engine ~domains:1 ?tier (fun e ->
      let go () = En.run_batch ~seed:7 e requests in
      let rs = match plan with None -> go () | Some p -> F.with_plan p go in
      (samples rs, rs))

let baseline = fst (run ())

(* Populate [dir] with a clean cold run and assert it matched. *)
let populate label dir =
  let s = open_store dir in
  let got, _ = run ~tier:(St.tier s) () in
  check (label ^ ": cold run byte-identical to storeless baseline") (got = baseline);
  check (label ^ ": cold run persisted every entry")
    ((St.stats s).St.writes = Array.length requests);
  s

(* A warm run over [dir] after [sabotage] ran against the populated
   store; asserts byte identity and lets the scenario inspect the
   warm store's counters. *)
let warm_after label ?plan ~sabotage inspect =
  with_dir (fun dir ->
      let cold = populate label dir in
      sabotage cold dir;
      let s = open_store dir in
      let got, rs = match plan with
        | None -> run ~tier:(St.tier s) ()
        | Some p -> run ~plan:p ~tier:(St.tier s) ()
      in
      check (label ^ ": warm run byte-identical to storeless baseline") (got = baseline);
      inspect s rs)

let entry_paths s =
  match St.keys s with
  | Ok ks -> List.map (fun k -> St.entry_path s ~key:k) ks
  | Error e -> failwith ("store-chaos keys: " ^ St.error_to_string e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let store_hits rs =
  Array.fold_left (fun n (r : En.response) -> if r.En.store_hit then n + 1 else n) 0 rs

(* ------------------------------------------------------------------ *)
(* Scenarios                                                          *)
(* ------------------------------------------------------------------ *)

(* 1. No sabotage: the warm restart serves every request from disk. *)
let clean_warm_restart () =
  warm_after "clean warm restart"
    ~sabotage:(fun _ _ -> ())
    (fun s rs ->
      check "clean warm restart: every request was a store hit"
        (store_hits rs = Array.length requests);
      check "clean warm restart: no compiles written back" ((St.stats s).St.writes = 0))

(* 2/3/4. Fault-site trips: read, write and verify each degrade to the
   storeless path without surfacing. *)
let read_trip () =
  List.iter
    (fun (label, hits, expect_min_trips) ->
      let p = F.plan [ { F.site = "store.read"; hits; action = F.Trip } ] in
      warm_after label ~plan:p
        ~sabotage:(fun _ _ -> ())
        (fun s _ ->
          check (label ^ ": trip fired") (F.trips p >= expect_min_trips);
          check (label ^ ": tripped probes counted corrupt")
            ((St.stats s).St.corrupt >= expect_min_trips)))
    [
      ("store.read trip, first probe", 1, 1);
      ("store.read trip, every probe", 0, Array.length requests);
    ]

let write_trip () =
  with_dir (fun dir ->
      let s = open_store dir in
      let p = F.plan [ { F.site = "store.write"; hits = 0; action = F.Trip } ] in
      let got, _ = run ~plan:p ~tier:(St.tier s) () in
      check "store.write trip: cold run byte-identical to storeless baseline"
        (got = baseline);
      check "store.write trip: nothing persisted" (entry_paths s = []);
      check "store.write trip: no write counted" ((St.stats s).St.writes = 0))

let verify_trip () =
  let p = F.plan [ { F.site = "store.verify"; hits = 0; action = F.Trip } ] in
  warm_after "store.verify trip" ~plan:p
    ~sabotage:(fun _ _ -> ())
    (fun s _ ->
      check "store.verify trip: every refusal counted"
        ((St.stats s).St.corrupt = Array.length requests);
      check "store.verify trip: recompiles healed the store"
        ((St.stats s).St.writes = Array.length requests))

(* 4b. A failed certificate on replay: the first store load's
   [serve.certify] audit trips, so that entry is refused as
   uncertified, counted corrupt and recompiled (the recompile's own
   audits pass), and the write-back heals it. *)
let certify_trip () =
  let p = F.plan [ { F.site = "serve.certify"; hits = 1; action = F.Trip } ] in
  warm_after "serve.certify trip" ~plan:p
    ~sabotage:(fun _ _ -> ())
    (fun s rs ->
      check "serve.certify trip: exactly one trip" (F.trips p = 1);
      check "serve.certify trip: exactly one refusal" ((St.stats s).St.corrupt = 1);
      check "serve.certify trip: the other entry still hit" (store_hits rs = 1);
      check "serve.certify trip: write-back healed the entry" ((St.stats s).St.writes = 1))

(* 5. Torn write: an entry truncated mid-frame reads as Corrupt, the
   request recompiles, and the write-back heals the entry. *)
let torn_write () =
  warm_after "torn write"
    ~sabotage:(fun cold _ ->
      let path = List.hd (entry_paths cold) in
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes / 2)))
    (fun s rs ->
      check "torn write: exactly one refusal" ((St.stats s).St.corrupt = 1);
      check "torn write: the intact entry still hit" (store_hits rs = 1);
      check "torn write: write-back healed the torn entry" ((St.stats s).St.writes = 1))

(* 6. Bit flip: one flipped payload byte breaks the checksum; same
   degrade-and-heal shape as a torn write. *)
let bit_flip () =
  warm_after "bit flip"
    ~sabotage:(fun cold _ ->
      let path = List.hd (entry_paths cold) in
      let bytes = Bytes.of_string (read_file path) in
      let i = Bytes.length bytes / 2 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      write_file path (Bytes.to_string bytes))
    (fun s rs ->
      check "bit flip: exactly one refusal" ((St.stats s).St.corrupt = 1);
      check "bit flip: the intact entry still hit" (store_hits rs = 1);
      check "bit flip: write-back healed the flipped entry" ((St.stats s).St.writes = 1))

(* 7. Foreign file: a non-dpstore file squatting on an entry path is
   refused (Bad_magic under the hood) and overwritten by the heal. *)
let foreign_file () =
  warm_after "foreign file"
    ~sabotage:(fun cold _ -> write_file (List.hd (entry_paths cold)) "NOPE: not a frame\n")
    (fun s rs ->
      check "foreign file: exactly one refusal" ((St.stats s).St.corrupt = 1);
      check "foreign file: the intact entry still hit" (store_hits rs = 1);
      check "foreign file: write-back reclaimed the path" ((St.stats s).St.writes = 1))

(* 8. Frame from the future: bump the version field (and nothing
   else); the entry must refuse as stale BEFORE any checksum logic
   can call it corrupt, then heal. *)
let future_version () =
  warm_after "future version"
    ~sabotage:(fun cold _ ->
      let path = List.hd (entry_paths cold) in
      let bytes = Bytes.of_string (read_file path) in
      (* Version lives at offset 4, u32 big-endian, after "DPST". *)
      Bytes.set bytes 7 (Char.chr (St.format_version + 1));
      write_file path (Bytes.to_string bytes))
    (fun s rs ->
      check "future version: exactly one refusal" ((St.stats s).St.corrupt = 1);
      check "future version: the intact entry still hit" (store_hits rs = 1);
      check "future version: write-back re-framed the entry" ((St.stats s).St.writes = 1))

(* 9. Mid-write kill: a writer that died between temp-file creation
   and rename leaves only a temp file; reopening sweeps it and no
   half-entry is ever visible to a probe. *)
let mid_write_kill () =
  warm_after "mid-write kill"
    ~sabotage:(fun _ dir ->
      write_file (Filename.concat dir "deadbeef.dpa.tmp.9999" ) "half a frame")
    (fun s rs ->
      check "mid-write kill: stale temp swept on reopen"
        (not (Sys.file_exists (Filename.concat (St.dir s) "deadbeef.dpa.tmp.9999")));
      check "mid-write kill: entries unharmed" (store_hits rs = Array.length requests);
      check "mid-write kill: no refusals" ((St.stats s).St.corrupt = 0))

(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("clean-warm-restart", clean_warm_restart);
    ("read-trip", read_trip);
    ("write-trip", write_trip);
    ("verify-trip", verify_trip);
    ("certify-trip", certify_trip);
    ("torn-write", torn_write);
    ("bit-flip", bit_flip);
    ("foreign-file", foreign_file);
    ("future-version", future_version);
    ("mid-write-kill", mid_write_kill);
  ]

let () =
  List.iter (fun (_, f) -> f ()) scenarios;
  if !failures > 0 then begin
    Printf.printf "store-chaos: %d failure(s) across %d scenarios\n" !failures
      (List.length scenarios);
    exit 1
  end;
  Printf.printf
    "store-chaos: clean (%d scenarios, every run byte-identical to the storeless \
     baseline)\n"
    (List.length scenarios)
