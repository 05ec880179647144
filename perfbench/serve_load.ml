(* The serve-socket workload's server child and closed-loop clients.

   The server is a child [whynot_server --unix] with its default config,
   listening on a socket in the run's private temporary directory; its
   stdout and stderr go to a file there.  Every child is reaped on every
   exit path: normally after a [shutdown] request, otherwise by SIGKILL
   from [reap] (also registered [at_exit]). *)

open Nested

type child = { pid : int; sock : string; mutable reaped : bool }

let children : child list ref = ref []

let reap c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    c.reaped <- true
  end

let () = at_exit (fun () -> List.iter reap !children)

(* Non-blocking liveness check; a child found dead is reaped by it. *)
let alive c =
  (not c.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> true
  | _ ->
    c.reaped <- true;
    false
  | exception Unix.Unix_error _ ->
    c.reaped <- true;
    false

let spawn ~exe ~dir =
  let sock = Filename.concat dir "whynot.sock" in
  let log =
    Unix.openfile
      (Filename.concat dir "server.stderr")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* checkpoint and spill scratch default to TMPDIR: keep it in the run's
     directory too *)
  let env =
    Array.append
      [| "TMPDIR=" ^ dir |]
      (Array.of_list
         (List.filter
            (fun s -> not (String.starts_with ~prefix:"TMPDIR=" s))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () ->
        Unix.create_process_env exe [| exe; "--unix"; sock |] env null log log)
  in
  let c = { pid; sock; reaped = false } in
  children := c :: !children;
  c

(* --- connections ---------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request line out, one response line back.  Raises on a dropped
   connection, and [Failure] on a response line that is not JSON. *)
let roundtrip c (req : Json.json) : Json.json =
  output_string c.oc (Json.to_line req);
  output_char c.oc '\n';
  flush c.oc;
  let line = input_line c.ic in
  try Json.of_string line
  with Json.Parse_error m -> failwith ("unparsable response: " ^ m)

let member name = function
  | Json.J_object fields -> List.assoc_opt name fields
  | _ -> None

let is_ok resp = member "ok" resp = Some (Json.J_bool true)

let path names j =
  List.fold_left (fun acc n -> Option.bind acc (member n)) (Some j) names

let number = function
  | Some (Json.J_float f) -> f
  | Some (Json.J_int i) -> float_of_int i
  | _ -> 0.0

let wait_ready c =
  let deadline = Stats.now_ms () +. 30_000.0 in
  let rec go () =
    if not (alive c) then failwith "whynot_server exited during start-up"
    else
      match connect c.sock with
      | conn -> conn
      | exception Unix.Unix_error _ when Stats.now_ms () < deadline ->
        Thread.delay 0.005;
        go ()
  in
  go ()

let register_req ~scale ~seed ~refresh =
  Json.J_object
    [
      ("op", Json.J_string "register");
      ("dataset", Json.J_string "D1");
      ("scale", Json.J_int scale);
      ("seed", Json.J_int seed);
      ("refresh", Json.J_bool refresh);
    ]

let explain_req ~scale ~seed pattern =
  Json.J_object
    [
      ("op", Json.J_string "explain");
      ("dataset", Json.J_string "D1");
      ("scale", Json.J_int scale);
      ("seed", Json.J_int seed);
      ("whynot", Json.J_string pattern);
    ]

let stats c = roundtrip c (Json.J_object [ ("op", Json.J_string "stats") ])

(* Graceful stop, then reap; SIGKILL if it has not exited within 10 s. *)
let shutdown child conn =
  (try ignore (roundtrip conn (Json.J_object [ ("op", Json.J_string "shutdown") ]))
   with End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _ -> ());
  close conn;
  let deadline = Stats.now_ms () +. 10_000.0 in
  while alive child && Stats.now_ms () < deadline do
    Thread.delay 0.01
  done;
  reap child

(* One set-up: start a server, wait for its socket, register the
   dataset.  Returns the server, its connection, and the set-up's start
   and milliseconds taken. *)
let setup ~exe ~dir ~scale ~seed =
  let t0 = Stats.now_ms () in
  let child = spawn ~exe ~dir in
  let conn = wait_ready child in
  let resp = roundtrip conn (register_req ~scale ~seed ~refresh:false) in
  let s = (t0, Stats.now_ms () -. t0) in
  if not (is_ok resp) then begin
    shutdown child conn;
    failwith ("register failed: " ^ Json.to_line resp)
  end;
  (child, conn, s)

(* Set-ups timed under {!Stats.repeat}; each server is stopped again,
   then, when [calibrate], the host's speed is sampled on every core. *)
let setup_round ~exe ~dir ~scale ~seed ~budget_s ~calibrate =
  Stats.repeat ~min_reps:3 ~budget_s (fun _ ->
      let child, conn, s = setup ~exe ~dir ~scale ~seed in
      shutdown child conn;
      if calibrate then Calib.each_cpu ();
      s)

(* --- the closed loop ------------------------------------------------------ *)

type explain_done = {
  title : string;
  sent_ms : float;  (** when the request was written *)
  rtt_ms : float;
  result : Json.json;  (** the response's [result] payload *)
  second_half : bool;
}

type load = {
  mutable ops : int;  (** operations issued, explains and writes *)
  mutable explains_sent : int;
  mutable failed : int;  (** failures seen on the wire *)
  mutable explains : explain_done list;
  mutable writes_ms : (float * float) list;  (** (sent, round trip) *)
  mutable spans : Obs.Span.t list;
  lock : Mutex.t;
}

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* [clients] connections in a closed loop for [seconds].  Operation k
   (counted over all connections) is a refreshing [register] when
   k mod [write_every] = write_every - 1, else an explain of the next
   title of [titles] (cycled), so no pattern repeats before the whole
   list was used.  Requests that start in the second half of the window
   are spanned when [traced] — the first half is the untraced baseline
   for the tracing overhead.  A dropped connection is retried every
   20 ms, each failed attempt counting as a failed request, so a dead
   server turns the rest of the window into failures.

   When [calibrate], the calling thread pauses the load once every
   [calib_every_ms]: new requests wait until the ones in flight are
   answered, then the host's speed is sampled on every core while the
   server is idle.  Returns the load, the window's seconds, and the
   intervals (start, stop) in which requests were in flight. *)
let calib_every_ms = 1500.0

let run ~sock ~scale ~seed ~titles ~pattern_of ~clients ~seconds ~write_every
    ~traced ~calibrate =
  let st =
    {
      ops = 0;
      explains_sent = 0;
      failed = 0;
      explains = [];
      writes_ms = [];
      spans = [];
      lock = Mutex.create ();
    }
  in
  let t_start = Stats.now_ms () in
  let half = t_start +. (seconds *. 500.0) in
  let deadline = t_start +. (seconds *. 1000.0) in
  let paused = ref false and in_flight = ref 0 in
  let resumed = Condition.create () in
  let enter () =
    locked st (fun () ->
        while !paused do
          Condition.wait resumed st.lock
        done;
        incr in_flight)
  in
  let leave () =
    locked st (fun () ->
        decr in_flight;
        Condition.broadcast resumed)
  in
  let fail () = locked st (fun () -> st.failed <- st.failed + 1) in
  let fail_unsent () =
    locked st (fun () ->
        st.ops <- st.ops + 1;
        st.failed <- st.failed + 1)
  in
  let next () =
    locked st (fun () ->
        let k = st.ops in
        st.ops <- k + 1;
        if k mod write_every = write_every - 1 then (k, None)
        else begin
          let e = st.explains_sent in
          st.explains_sent <- e + 1;
          (k, Some titles.(e mod Array.length titles))
        end)
  in
  let client () =
    let conn = ref None in
    while Stats.now_ms () < deadline do
      (match !conn with
      | None -> (
        try conn := Some (connect sock) with Unix.Unix_error _ -> ())
      | Some _ -> ());
      match !conn with
      | None ->
        fail_unsent ();
        Thread.delay 0.02
      | Some c -> (
        enter ();
        Fun.protect ~finally:leave @@ fun () ->
        let k, op = next () in
        let req =
          match op with
          | None -> register_req ~scale ~seed ~refresh:true
          | Some title -> explain_req ~scale ~seed (pattern_of title)
        in
        let t0 = Stats.now_ms () in
        let second_half = t0 >= half in
        let sp =
          if traced && second_half then begin
            let sp = Obs.Span.start "serve.request" in
            Obs.Span.set_int sp "request_id" k;
            Obs.Span.set_string sp "op"
              (if op = None then "register" else "explain");
            Some sp
          end
          else None
        in
        match roundtrip c req with
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _)
          ->
          Option.iter Obs.Span.finish sp;
          close c;
          conn := None;
          fail ()
        | resp -> (
          let rtt = Stats.now_ms () -. t0 in
          Option.iter
            (fun sp ->
              Obs.Span.finish sp;
              Obs.Span.set_float sp "rtt_ms" rtt;
              Option.iter
                (fun r ->
                  Obs.Span.set_float sp "server_total_ms"
                    (number (member "total_ms" r));
                  match member "phases_ms" r with
                  | Some (Json.J_object phases) ->
                    List.iter
                      (fun (p, v) ->
                        Obs.Span.set_float sp ("server_" ^ p ^ "_ms")
                          (number (Some v)))
                      phases
                  | _ -> ())
                (member "result" resp);
              Option.iter
                (function
                  | Json.J_string d -> Obs.Span.set_string sp "cache" d
                  | _ -> ())
                (member "cache" resp);
              locked st (fun () -> st.spans <- sp :: st.spans))
            sp;
          match (op, member "result" resp) with
          | Some title, Some result
            when is_ok resp && member "type" resp = Some (Json.J_string "explained")
            ->
            locked st (fun () ->
                st.explains <-
                  { title; sent_ms = t0; rtt_ms = rtt; result; second_half }
                  :: st.explains)
          | None, _
            when is_ok resp
                 && member "fresh" resp = Some (Json.J_bool true) ->
            locked st (fun () -> st.writes_ms <- (t0, rtt) :: st.writes_ms)
          | _ -> fail ()))
    done;
    Option.iter close !conn
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  let busy = ref [] and from = ref t_start in
  if calibrate then
    while Stats.now_ms () +. calib_every_ms < deadline do
      Thread.delay (calib_every_ms /. 1000.0);
      locked st (fun () ->
          paused := true;
          while !in_flight > 0 do
            Condition.wait resumed st.lock
          done);
      let idle = Stats.now_ms () in
      Calib.each_cpu ();
      busy := (!from, idle) :: !busy;
      from := Stats.now_ms ();
      locked st (fun () ->
          paused := false;
          Condition.broadcast resumed)
    done;
  List.iter Thread.join threads;
  let t_end = Stats.now_ms () in
  (st, (t_end -. t_start) /. 1000.0, List.rev ((!from, t_end) :: !busy))
