(* Host-speed calibration of the end-to-end times.

   The benchmark runs on a few cores of a shared host.  Load that other
   tenants put on a core's hardware siblings slows memory-bound code on
   that core by up to ~1.7x, for seconds to minutes at a time.  The
   explain pipeline is memory-bound: a tpch-sas explain allocates
   ~250 MB and runs a dozen major GC cycles.  A fixed job that works the
   same way — [inserts] insertions into an immutable [Map], allocating
   ~20 MB and keeping ~1.5 MB live — slows in step with it when it runs
   on the same core: in 4 s windows of an explain loop, the middle half
   of their ratios lay within 3%.  The job does not track when it runs
   on another core, and jobs that stay out of the OCaml heap (a
   sequential Bigarray sum, a pointer chase) track only partly.

   So the benchmark runs the job on the cores doing the work, all through
   its window, and reports every end-to-end duration [d] measured at time
   [t] as [d * nominal_ms / local t].  [local t] is the job's median time
   on each core within [window_ms] of [t], averaged over the cores.  That
   scales every duration to one host speed: the speed at which the job
   takes [nominal_ms].  The job is the benchmark's own code, so a change
   to the program cannot move it. *)

external set_cpus : int array -> bool = "perfbench_set_cpus"
external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"

module Int_map = Map.Make (Int)

let inserts = 30_000

(* A round figure inside the range of the job's median per run (13–20 ms)
   on the 2-vCPU Xeon host the benchmark was tuned on.  It only sets the
   scale in which corrected times read. *)
let nominal_ms = 16.0

let window_ms = 2000.0

let job () =
  let m = ref Int_map.empty in
  for i = 0 to inserts - 1 do
    m := Int_map.add (i * 7919 mod 100_003) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m))

(* [cpu] is the core the job was pinned to, or -1 for wherever the
   calling thread ran. *)
type sample = { at_ms : float; cpu : int; job_ms : float }

let samples : sample list ref = ref []

let run cpu =
  let t0 = Stats.now_ms () in
  job ();
  let t1 = Stats.now_ms () in
  samples := { at_ms = (t0 +. t1) /. 2.0; cpu; job_ms = t1 -. t0 } :: !samples

(* One job on the calling thread's current core: for work that runs on
   that thread. *)
let here () = run (-1)

(* One job pinned to each core the process may use, the calling thread's
   affinity restored after: for work spread over the cores, such as the
   server child's.  Falls back to {!here} where pinning is refused. *)
let each_cpu () =
  let cpus = allowed_cpus () in
  if Array.length cpus = 0 then here ()
  else begin
    Array.iter (fun c -> if set_cpus [| c |] then run c else here ()) cpus;
    ignore (set_cpus cpus)
  end

let median l = Stats.median l

(* [nominal_ms / local t]; 1 before any job has run.  Without a job
   within [window_ms] of [t], every job of the run counts. *)
let scale_at t =
  let near =
    List.filter (fun s -> Float.abs (s.at_ms -. t) <= window_ms) !samples
  in
  let near = if near = [] then !samples else near in
  if near = [] then 1.0
  else begin
    let cpus = List.sort_uniq compare (List.map (fun s -> s.cpu) near) in
    let per_cpu =
      List.map
        (fun c ->
          median
            (List.filter_map
               (fun s -> if s.cpu = c then Some s.job_ms else None)
               near))
        cpus
    in
    let local =
      List.fold_left ( +. ) 0.0 per_cpu /. float_of_int (List.length per_cpu)
    in
    nominal_ms /. local
  end

(* A duration [d] ms that ended [d] ms after [t0], corrected. *)
let correct ~t0 d = d *. scale_at (t0 +. (d /. 2.0))

(* Corrected length of the intervals [(start, stop)], in ms. *)
let corrected_span intervals =
  List.fold_left (fun acc (a, b) -> acc +. correct ~t0:a (b -. a)) 0.0 intervals

let count () = List.length !samples
let median_job_ms () = median (List.map (fun s -> s.job_ms) !samples)
