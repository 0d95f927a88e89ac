(* The server under test as a child process, and the generator's
   connections to it. *)

type server = { pid : int; port : int; out : in_channel }

let prefix = "dpserved: listening on "

(* Spawn [exe args] with stdout piped back and stderr appended to
   [log]; return once it prints its listening line. *)
let spawn ~exe ~log args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null out_w err in
  Unix.close out_w;
  Unix.close err;
  Unix.close null;
  let out = Unix.in_channel_of_descr out_r in
  let rec wait_listening () =
    match In_channel.input_line out with
    | None ->
      ignore (Unix.waitpid [] pid);
      failwith (Printf.sprintf "dpserved exited before listening (see %s)" log)
    | Some l when String.starts_with ~prefix l ->
      let addr = String.sub l (String.length prefix) (String.length l - String.length prefix) in
      int_of_string (List.nth (String.split_on_char ':' addr) 1)
    | Some _ -> wait_listening ()
  in
  let port = wait_listening () in
  { pid; port; out }

(* The server's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  match Util.read_file path with
  | exception Sys_error _ -> 0.
  | text ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' text)

(* SIGTERM (the server drains and exits), then wait; SIGKILL if it
   has not exited after 20 s. Callers close their connections first:
   a draining server serves open connections until the peer closes. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr s.out

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
  mutable closed : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create (); closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    Unix.close c.fd
  end

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* One read: move every complete line into the queue. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> c.closed <- true
  | k ->
    let start = ref 0 in
    for i = 0 to k - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.partial c.chunk !start (i - !start);
        Queue.push (Buffer.contents c.partial) c.lines;
        Buffer.clear c.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.partial c.chunk !start (k - !start)

(* Connections with data ready within [timeout] seconds. *)
let readable conns timeout =
  let fds = List.filter_map (fun c -> if c.closed then None else Some c.fd) conns in
  match Unix.select fds [] [] (Float.max 0. timeout) with
  | r, _, _ -> List.filter (fun c -> List.memq c.fd r) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Block until the next line (or [None] once the peer closed). *)
let rec recv c =
  if not (Queue.is_empty c.lines) then Some (Queue.pop c.lines)
  else if c.closed then None
  else begin
    ignore (readable [ c ] 60.);
    fill c;
    recv c
  end

(* One [op=stats] round trip on a fresh connection. *)
let stats port =
  let c = connect port in
  send c "v=1 op=stats";
  let reply = recv c in
  close c;
  match Option.map Obs.Json.of_string reply with
  | Some (Ok j) -> Obs.Json.member "stats" j
  | Some (Error _) | None -> None

(* [stats_int s ["rejected"; "overloaded"]] reads one counter. *)
let stats_int stats path =
  let rec go j = function
    | [] -> Obs.Json.to_int_opt j
    | k :: rest -> Option.bind (Obs.Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0 (Option.bind stats (fun s -> go s path))

(* ------------------------------------------------------------------ *)
(* Response lines                                                       *)
(* ------------------------------------------------------------------ *)

(* The failure kinds the benchmark accounts for. *)
let fail_kinds = [ "overloaded"; "deadline_exceeded"; "uncertified"; "protocol"; "no_response" ]

(* The echoed [id], read without a full parse: the generator stays out
   of the server's way while timing. *)
let id_of line =
  let tag = "\"id\":\"" in
  let tl = String.length tag in
  let rec find i =
    if i + tl > String.length line then None
    else if String.sub line i tl = tag then
      match String.index_from_opt line (i + tl) '"' with
      | Some j -> Some (String.sub line (i + tl) (j - i - tl))
      | None -> None
    else find (i + 1)
  in
  find 0

let status_prefix = "{\"v\":1,\"status\":\""

(* [`Ok] for a served line, [`Failed kind] for a typed refusal. *)
let classify line =
  let sp = String.length status_prefix in
  if String.length line > sp + 2 && String.sub line sp 2 = "ok" then `Ok
  else if String.length line > sp + 8 && String.sub line sp 8 = "degraded" then `Ok
  else
    match Obs.Json.of_string line with
    | Ok j -> (
      match Option.bind (Obs.Json.member "error" j) (Obs.Json.member "kind") with
      | Some (Obs.Json.Str ("overloaded" | "deadline_exceeded" | "uncertified" as k)) ->
        `Failed k
      | _ -> `Failed "protocol")
    | Error _ -> `Failed "protocol"
