(* The persistent artifact store; see store.mli. *)

module Frame = Frame
module J = Obs.Json
module S = Minimax.Serve
module I = Check.Invariants
module F = Resilience.Fault
module Request = Engine.Request
module Compiled = Engine.Compiled

type error =
  | Corrupt of string
  | Bad_magic
  | Stale_version of { got : int }
  | Uncertified of { rule : string }
  | Io of string

let error_to_string = function
  | Corrupt msg -> "corrupt: " ^ msg
  | Bad_magic -> "bad magic (not a dpstore frame)"
  | Stale_version { got } -> Printf.sprintf "stale format version %d" got
  | Uncertified { rule } -> Printf.sprintf "uncertified: %s failed on replay" rule
  | Io msg -> "io: " ^ msg

type t = {
  dir : string;
  readonly : bool;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable writes : int;
}

let entry_suffix = ".dpa"
let format_version = Frame.format_version

let dir t = t.dir
let readonly t = t.readonly

(* The framing itself (magic, version, payload length, payload, MD5
   trailer; atomic temp-file writes) lives in {!Frame}, shared with
   the session ledger checkpoints. The store only maps its errors. *)
let of_frame_error = function
  | Frame.Corrupt m -> Corrupt m
  | Frame.Bad_magic -> Bad_magic
  | Frame.Stale_version { got } -> Stale_version { got }
  | Frame.Io m -> Io m

let payload_of_frame raw = Result.map_error of_frame_error (Frame.decode raw)

(* ------------------------------------------------------------------ *)
(* Payload JSON                                                        *)
(* ------------------------------------------------------------------ *)

(* Every field is written and read back through the codec of the
   module that owns its type ([Serve] for provenance, [Invariants] for
   certificates); the store adds only the envelope and the matrix.
   Decoding errors are strings, prefixed with the context word
   "payload", and surface as [Corrupt]. *)
let ( let* ) = J.( let* )
let ctx = "payload"
let corrupt r = Result.map_error (fun m -> Corrupt m) r

(* The canonical key is itself a [k=v;...] record over the canonical
   consumer spellings, so the payload's request fields come from
   parsing it — the only representation a [Compiled.t] carries. *)
let request_of_key key =
  let fields = String.split_on_char ';' key in
  let lookup name =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i when String.sub f 0 i = name ->
          Some (String.sub f (i + 1) (String.length f - i - 1))
        | _ -> None)
      fields
  in
  match (lookup "n", lookup "a", lookup "l", lookup "s") with
  | Some n, Some a, Some l, Some s -> (
    match (int_of_string_opt n, Rat.of_string_opt a) with
    | Some n, Some alpha -> (
      match (Request.loss_spec_of_string l, Request.side_spec_of_string s) with
      | Ok loss, Ok side -> (
        match Request.make ~n ~alpha ~loss ~side () with
        | Ok req ->
          if String.equal (Request.canonical_key req) key then Ok req
          else Error (Corrupt "key is not canonical")
        | Error m -> Error (Corrupt ("key names an invalid request: " ^ m)))
      | Error m, _ | _, Error m -> Error (Corrupt ("unparseable key spec: " ^ m)))
    | _ -> Error (Corrupt "unparseable key numerics"))
  | _ -> Error (Corrupt "key missing fields")

let matrix_to_json m =
  J.List
    (Array.to_list
       (Array.map (fun row -> J.List (Array.to_list (Array.map J.rat row))) m))

let payload_of_artifact (c : Compiled.t) =
  let served = c.Compiled.served in
  J.to_string
    (J.Obj
       [
         ("format", J.Str "dpstore");
         ("key", J.Str c.Compiled.key);
         ("loss", J.rat served.S.loss);
         ("provenance", S.provenance_to_json served.S.provenance);
         ("matrix", matrix_to_json (Mech.Mechanism.matrix served.S.mechanism));
         ("certificates", J.List (List.map I.certificate_to_json served.S.certificates));
       ])

(* --- decoding ----------------------------------------------------- *)

let matrix_of_json json =
  let open J in
  let* rows = list_field ~ctx "matrix" json in
  let* rows =
    map_result
      (function
        | List cells ->
          let* cells =
            map_result
              (fun c ->
                match Option.bind (to_str_opt c) Rat.of_string_opt with
                | Some r -> Ok r
                | None -> Error "matrix cell is not a rational")
              cells
          in
          Ok (Array.of_list cells)
        | _ -> Error "matrix row is not a list")
      rows
  in
  Ok (Array.of_list rows)

(* ------------------------------------------------------------------ *)
(* Verify-on-load: trust the math, not the file                        *)
(* ------------------------------------------------------------------ *)

(* A well-framed payload earns the right to be served by replaying the
   whole audit: the key must be canonical and reproduce the filename,
   the matrix must re-certify through [Compiled.of_served] (which runs
   [Check.Invariants] afresh), the stored certificates must equal the
   freshly earned ones, and the stored loss must equal the minimax
   loss recomputed from the consumer the key names — all exact in ℚ,
   so equality is equality. *)
let verify_payload ~expect_key payload =
  match J.of_string payload with
  | Error m -> Error (Corrupt ("unparseable payload: " ^ m))
  | Ok json -> (
    let* fmt = corrupt (J.str_field ~ctx "format" json) in
    let* () = if fmt = "dpstore" then Ok () else Error (Corrupt "not a dpstore payload") in
    let* key = corrupt (J.str_field ~ctx "key" json) in
    let* () =
      match expect_key with
      | Some k when not (String.equal k key) ->
        Error (Corrupt "entry key does not match its filename")
      | _ -> Ok ()
    in
    let* req = request_of_key key in
    let* loss = corrupt (J.rat_field ~ctx "loss" json) in
    let* prov = corrupt (J.field ~ctx "provenance" json) in
    let* provenance = corrupt (S.provenance_of_json ~ctx prov) in
    let* matrix = corrupt (matrix_of_json json) in
    let* certs = corrupt (J.list_field ~ctx "certificates" json) in
    let* certificates = corrupt (J.map_result (I.certificate_of_json ~ctx) certs) in
    match F.trip "store.verify" with
    | exception F.Injected { site = "store.verify"; _ } ->
      Error (Uncertified { rule = "injected" })
    | () -> (
      match Mech.Mechanism.make matrix with
      | exception Mech.Mechanism.Not_stochastic _ ->
        Error (Uncertified { rule = "row-stochastic" })
      | mechanism -> (
        let served = { S.mechanism; loss; provenance; certificates } in
        match Compiled.of_served ~key ~alpha:req.Request.alpha served with
        | exception Compiled.Uncertified { rule; _ } -> Error (Uncertified { rule })
        | c ->
          if c.Compiled.served.S.certificates <> certificates then
            Error (Corrupt "stored certificates disagree with replayed ones")
          else
            let recomputed =
              Minimax.Consumer.minimax_loss (Request.consumer req) mechanism
            in
            if not (Rat.equal recomputed loss) then
              Error (Uncertified { rule = "minimax-loss" })
            else Ok (key, c))))

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)
(* ------------------------------------------------------------------ *)

let basename_of_key key = Digest.to_hex (Digest.string key) ^ entry_suffix
let entry_path t ~key = Filename.concat t.dir (basename_of_key key)

let sweep_temps dirname =
  match Sys.readdir dirname with
  | exception Sys_error m -> Error (Io ("sweep: " ^ m))
  | names ->
    Array.iter
      (fun name ->
        if Frame.is_temp name then
          try Sys.remove (Filename.concat dirname name)
          with Sys_error _ -> () (* racing sweeper already won *))
      names;
    Ok ()

let validate_dir ~readonly dirname =
  if Sys.file_exists dirname then
    if Sys.is_directory dirname then Ok () else Error (Io (dirname ^ " is not a directory"))
  else if readonly then Error (Io (dirname ^ " does not exist (read-only store)"))
  else
    match Unix.mkdir dirname 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io ("mkdir " ^ dirname ^ ": " ^ Unix.error_message e))

let open_dir ?(readonly = false) dirname =
  let* () = validate_dir ~readonly dirname in
  let* () = if readonly then Ok () else sweep_temps dirname in
  Ok
    {
      dir = dirname;
      readonly;
      mu = Mutex.create ();
      hits = 0;
      misses = 0;
      corrupt = 0;
      writes = 0;
    }

let reopen t =
  Mutex.protect t.mu (fun () ->
      let* () = validate_dir ~readonly:t.readonly t.dir in
      if t.readonly then Ok () else sweep_temps t.dir)

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let read_frame path =
  match F.trip "store.read" with
  | exception F.Injected { site = "store.read"; _ } ->
    Error (Io "injected fault at store.read")
  | () -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | raw -> Ok raw
    | exception Sys_error m -> Error (Io ("read: " ^ m)))

(* Load one entry file through frame check + verify. [expect_key] is
   the probe's key (None when walking the directory), and the payload
   key must reproduce the filename either way. *)
let load_file ~expect_key path =
  let* raw = read_frame path in
  let* payload = payload_of_frame raw in
  let* (key, c) = verify_payload ~expect_key payload in
  if not (String.equal (basename_of_key key) (Filename.basename path)) then
    Error (Corrupt "entry key does not match its filename")
  else Ok (key, c)

let count_hit t =
  Obs.incr "store.hits";
  t.hits <- t.hits + 1

let count_miss t =
  Obs.incr "store.misses";
  t.misses <- t.misses + 1

let count_corrupt t =
  Obs.incr "store.corrupt";
  t.corrupt <- t.corrupt + 1

let load t ~key =
  Mutex.protect t.mu (fun () ->
      let path = entry_path t ~key in
      if not (Sys.file_exists path) then begin
        count_miss t;
        Ok None
      end
      else
        match load_file ~expect_key:(Some key) path with
        | Ok (_, c) ->
          count_hit t;
          Ok (Some c)
        | Error e ->
          count_corrupt t;
          Error e)

let write t (c : Compiled.t) =
  Mutex.protect t.mu (fun () ->
      if t.readonly then Error (Io "store is read-only")
      else if c.Compiled.served.S.provenance.S.attempts <> [] then
        (* A degraded release records this process's budget pressure,
           not a property of the consumer; persisting it would let one
           starved process poison every future warm boot. *)
        Ok ()
      else
        match F.trip "store.write" with
        | exception F.Injected { site = "store.write"; _ } ->
          Error (Io "injected fault at store.write")
        | () -> (
          let path = entry_path t ~key:c.Compiled.key in
          match Frame.write ~path ~payload:(payload_of_artifact c) with
          | Error e -> Error (of_frame_error e)
          | Ok () ->
            Obs.incr "store.writes";
            t.writes <- t.writes + 1;
            Ok ()))

let entry_names dirname =
  match Sys.readdir dirname with
  | exception Sys_error m -> Error (Io ("readdir: " ^ m))
  | names ->
    let entries =
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n entry_suffix)
      |> List.sort String.compare
    in
    Ok entries

let keys t =
  Mutex.protect t.mu (fun () ->
      let* names = entry_names t.dir in
      let keys =
        List.filter_map
          (fun name ->
            let path = Filename.concat t.dir name in
            match
              let* raw = read_frame path in
              let* payload = payload_of_frame raw in
              match J.of_string payload with
              | Error m -> Error (Corrupt ("unparseable payload: " ^ m))
              | Ok json -> corrupt (J.str_field ~ctx "key" json)
            with
            | Ok key -> Some key
            | Error _ -> None)
          names
      in
      Ok (List.sort String.compare keys))

let load_all t =
  Mutex.protect t.mu (fun () ->
      match entry_names t.dir with
      | Error e -> ([], [ (t.dir, e) ])
      | Ok names ->
        let loaded, refused =
          List.fold_left
            (fun (loaded, refused) name ->
              let path = Filename.concat t.dir name in
              match load_file ~expect_key:None path with
              | Ok (key, c) ->
                count_hit t;
                ((key, c) :: loaded, refused)
              | Error e ->
                count_corrupt t;
                (loaded, (name, e) :: refused))
            ([], []) names
        in
        let loaded =
          List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) loaded
        in
        (List.map snd loaded, List.rev refused))

(* ------------------------------------------------------------------ *)
(* Accounting and engine integration                                   *)
(* ------------------------------------------------------------------ *)

type stats = { hits : int; misses : int; corrupt : int; writes : int }

let stats t =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; misses = t.misses; corrupt = t.corrupt; writes = t.writes })

(* The store as the engine's second tier. Both callbacks are total by
   construction — every typed error is swallowed into a miss (probe)
   or dropped (store) after being counted — which is exactly the
   contract [Engine.tier] documents. *)
let tier t =
  {
    Engine.probe =
      (fun req ->
        let t0 = Obs.now_ns () in
        let key = Request.canonical_key req in
        let result =
          match load t ~key with Ok c -> c | Error _ -> None
        in
        Obs.observe_latency_ns "store.probe.latency" (Int64.sub (Obs.now_ns ()) t0);
        result);
    store = (fun c -> match write t c with Ok () -> () | Error _ -> ());
  }
