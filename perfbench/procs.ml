(* Server processes under test: spawned as children, ready when their
   socket accepts, sampled through /proc, and stopped with the wire
   protocol's shutdown (a kill only if that fails). *)

module Client = Toss_server.Client
module P = Toss_server.Protocol

type t = { pid : int; name : string; addr : string }

let live : t list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let spawn ~toss ~log ~name ~addr args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process toss (Array.of_list (toss :: args)) null fd fd
  in
  Unix.close fd;
  Unix.close null;
  let p = { pid; name; addr } in
  live := p :: !live;
  p

let reap p = live := List.filter (fun q -> q.pid <> p.pid) !live

(* Ready when the socket exists and accepts a connection that answers a
   ping; gives up after [timeout] seconds or when the child has died. *)
let wait_ready ?(timeout = 30.) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | pid, _ when pid = p.pid ->
        reap p;
        Error (Printf.sprintf "%s exited before it was ready" p.name)
    | _ ->
        let answered =
          Sys.file_exists p.addr
          &&
          match Client.connect ~retry_ms:0 p.addr with
          | Error _ -> false
          | Ok c ->
              let r = Client.call c P.Ping in
              Client.close c;
              Result.is_ok r
        in
        if answered then Ok ()
        else if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "%s not ready after %.0f s" p.name timeout)
        else begin
          Thread.delay 0.01;
          go ()
        end
  in
  go ()

(* CPU seconds (user + system) of a live process, from /proc/PID/stat;
   the kernel reports them in ticks of 1/100 s. *)
let cpu_s p =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" p.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the command name is parenthesized and may contain spaces *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string f.(11) +. float_of_string f.(12) |> fun ticks -> ticks /. 100.

(* Peak resident set (VmHWM) in MiB, from /proc/PID/status. *)
let rss_peak_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let wait_exit ~timeout p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | pid, _ when pid = p.pid -> true
    | _ when Unix.gettimeofday () > deadline -> false
    | _ ->
        Thread.delay 0.01;
        go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  reap p

(* Sends [shutdown] to [front] (a router cascades it to its shards) and
   waits for every process in [all] to exit; [Error] names the ones that
   had to be killed. *)
let shutdown ~front all =
  (match Client.connect ~retry_ms:0 front.addr with
  | Ok c ->
      ignore (Client.call c P.Shutdown);
      Client.close c
  | Error _ -> ());
  let stuck = List.filter (fun p -> not (wait_exit ~timeout:10. p)) all in
  List.iter kill stuck;
  List.iter reap all;
  if stuck = [] then Ok ()
  else
    Error
      (Printf.sprintf "killed after shutdown timed out: %s"
         (String.concat ", " (List.map (fun p -> p.name) stuck)))

let kill_all () = List.iter kill !live
