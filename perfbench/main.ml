(* The repository benchmark: one named workload, one seed, one run.

     main.exe --workload dblp-explain --seed 0 --seconds 10 --trace 0

   Prints the workload's end-to-end metrics (--trace 0) or its
   per-layer metrics from a separate outside-in traced run (--trace 1),
   checks every answer, and ends its standard output with one JSON line
   {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
   builds this program and the server from source and runs it; NOTES.md
   records why each workload was chosen. *)

open Nested

let workloads = [ "dblp-explain"; "tpch-sas"; "serve-socket" ]

(* --- command line --------------------------------------------------------- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace = ref 0
let scale_override = ref 0
let corrupt_reference = ref false
let server_exe = ref "_build/default/bin/whynot_server.exe"
let out_dir = ref ".perfbench"
let write_pins = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads);
    ("--seed", Arg.Set_int seed, "N  workload seed (data and pattern draws)");
    ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end run, or the traced per-layer run");
    ("--scale", Arg.Set_int scale_override, "N  override every data scale (self-test)");
    ( "--corrupt-reference",
      Arg.Set corrupt_reference,
      " corrupt one reference answer (self-test: a wrong answer must count)" );
    ("--server", Arg.Set_string server_exe, "PATH  whynot_server executable");
    ("--out", Arg.Set_string out_dir, "DIR  reports, traces and the server's scratch");
    ( "--write-pins",
      Arg.Set_string write_pins,
      "FILE  compute the seed-0 answers at the benchmark scales into FILE, then exit" );
  ]

(* --- scenarios ------------------------------------------------------------ *)

(* The Fig. 11 top point: Q3's own alternatives widened with the paper's
   lineitem-date and order-priority families, 2×3×2 = 12 SAs. *)
let widened_q3 (inst : Scenarios.Scenario.instance) =
  inst.Scenarios.Scenario.alternatives
  @ [
      ( "nested_orders",
        [
          [ "o_lineitems"; "l_commitdate" ];
          [ "o_lineitems"; "l_shipdate" ];
          [ "o_lineitems"; "l_receiptdate" ];
        ] );
      ("nested_orders", [ [ "o_shippriority" ]; [ "o_orderpriority" ] ]);
    ]

let scale_of s = if !scale_override > 0 then !scale_override else s

(* (scenario, scale, alternatives) per in-process workload, in the order
   the closed loop alternates them. *)
let in_process_questions = function
  | "dblp-explain" ->
    let plain i = i.Scenarios.Scenario.alternatives in
    [ ("D1", scale_of 128, plain); ("D4", scale_of 128, plain) ]
  | "tpch-sas" -> [ ("Q3", scale_of 8, widened_q3) ]
  | w -> invalid_arg w

let serve_scale () = scale_of 32

(* Data is generated the way the server's catalog generates it, so the
   in-process instance of a ⟨scenario, scale, seed⟩ is the served one. *)
let register catalog ?(refresh = false) name scale =
  match Serve.Catalog.register catalog ~seed:!seed ~refresh ~name ~scale () with
  | Ok (entry, _) -> entry.Serve.Catalog.instance
  | Error e -> failwith e

type question = {
  label : string;  (** scenario\@scale — the key of its pin *)
  gold : int list list option;
  alternatives : Whynot.Alternatives.alternatives;
  question : Whynot.Question.t;
}

let question_of catalog (name, scale, alts) =
  let inst = register catalog name scale in
  {
    label = Fmt.str "%s@%d" name scale;
    gold = inst.Scenarios.Scenario.gold;
    alternatives = alts inst;
    question = inst.Scenarios.Scenario.question;
  }

let explain q =
  Answer.of_explanations
    (Whynot.Pipeline.explain ~alternatives:q.alternatives q.question)
      .Whynot.Pipeline.explanations

let served_question catalog =
  question_of catalog
    ("D1", serve_scale (), fun i -> i.Scenarios.Scenario.alternatives)

(* The served D1 pattern for one title of the generated inproceedings. *)
let pattern_of title =
  Whynot.Nip_syntax.to_string
    Whynot.Nip.(tup [ ("author", any); ("title", str title) ])

let prepare q =
  Whynot.Pipeline.prepare ~alternatives:q.alternatives
    ~db:q.question.Whynot.Question.db q.question.Whynot.Question.query

(* A served pattern's answer, computed in-process from a prepared run. *)
let explain_title h title =
  Answer.of_explanations
    (Whynot.Pipeline.explain_with h
       (Whynot.Nip_syntax.of_string (pattern_of title)))
      .Whynot.Pipeline.explanations

let titles (q : Whynot.Question.t) =
  let rel = Relation.Db.find_exn "inproceedings" q.Whynot.Question.db in
  List.filter_map
    (fun t ->
      match Option.bind (Value.field "title" t) (Value.field "text") with
      | Some (Value.String s) -> Some s
      | _ -> None)
    (Relation.tuples rel)

(* Every title once, in a seed-determined order. *)
let shuffled_titles q =
  let a = Array.of_list (List.sort_uniq compare (titles q)) in
  let rng = Random.State.make [| !seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- answer checks ------------------------------------------------------- *)

let problems : string list ref = ref []
let problem fmt = Fmt.kstr (fun m -> problems := m :: !problems) fmt

let pins_file = "perfbench/expected_seed0.json"

(* Pins are checked at seed 0 only: they were generated there. *)
let pins =
  lazy
    (if !seed <> 0 then None
     else if not (Sys.file_exists pins_file) then begin
       problem "%s is missing" pins_file;
       None
     end
     else
       Some
         (Json.of_string
            (In_channel.with_open_text pins_file In_channel.input_all)))

let pinned key =
  match Lazy.force pins with
  | Some (Json.J_object fields) -> List.assoc_opt key fields
  | _ -> None

(* The reference answer of an in-process question, checked for its gold
   explanation and, at seed 0, against the pinned list. *)
let reference q =
  let rows = explain q in
  Option.iter
    (List.iter (fun g ->
         if not (Answer.has_gold g rows) then
           problem "%s: gold {%a} missing from %a" q.label
             Fmt.(list ~sep:comma int) g Answer.pp rows))
    q.gold;
  Option.iter
    (fun pin ->
      if Answer.of_json pin <> rows then
        problem "%s: answer %a differs from the pinned %a" q.label Answer.pp
          rows Answer.pp (Answer.of_json pin))
    (pinned q.label);
  rows

let served_pins_key scale = Fmt.str "D1@%d/titles" scale

let check_served_pins scale (refs : (string, Answer.row list) Hashtbl.t) =
  match pinned (served_pins_key scale) with
  | None -> ()
  | Some pin ->
    let lists =
      match Answer.field "lists" pin with
      | Json.J_array l -> Array.of_list (List.map Answer.of_json l)
      | _ -> [||]
    in
    let by_title =
      match Answer.field "by_title" pin with Json.J_object l -> l | _ -> []
    in
    Hashtbl.iter
      (fun title rows ->
        match List.assoc_opt title by_title with
        | Some (Json.J_int i) when i < Array.length lists && lists.(i) = rows ->
          ()
        | _ ->
          problem "D1@%d %S: answer %a differs from its pin" scale title
            Answer.pp rows)
      refs

(* --- output -------------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) m_name unit_ value = { m_name; value; unit_; samples }

(* Which end-to-end metric each per-layer metric should move, and where. *)
let moves = function
  | "exec.run_ms" | "exec.alloc_mb" | "exec.result_rows" ->
    "latency_p50_ms on dblp-explain; latency_p90_ms on serve-socket \
     (paid after a refresh)"
  | "alternatives.enumerate_ms" | "alternatives.sas" | "backtrace.run_ms" ->
    "latency_p50_ms on tpch-sas (12 SAs)"
  | "tracing.run_ms" | "tracing.alloc_mb" | "tracing.rows" ->
    "latency_p50_ms, throughput_per_s on tpch-sas; barely dblp-explain"
  | "msr.from_trace_ms" | "msr.failure_sets_ms" | "msr.alloc_mb"
  | "msr.nonsurviving_root_rows" | "msr.candidates" ->
    "latency_p50_ms, throughput_per_s on dblp-explain; latency_p50_ms on serve-socket"
  | n when String.starts_with ~prefix:"serve." n ->
    "latency_p50_ms, latency_p90_ms, throughput_per_s on serve-socket"
  | "trace.overhead_per_s" -> "none: untraced minus traced explains/s"
  | "trace.uncovered_share" -> "none: explain time outside every layer span"
  | _ -> "none: answer errors"

let provenance ~scales =
  let env k = Option.value (Sys.getenv_opt k) ~default:"unknown" in
  Json.J_object
    [
      ("git_commit", Json.J_string (env "PERFBENCH_COMMIT"));
      ("source_digest", Json.J_string (env "PERFBENCH_SOURCE_DIGEST"));
      ("nproc", Json.J_int (Domain.recommended_domain_count ()));
      ("ocaml", Json.J_string Sys.ocaml_version);
      ("workload", Json.J_string !workload);
      ("seed", Json.J_int !seed);
      ("scales", Json.J_object (List.map (fun (n, s) -> (n, Json.J_int s)) scales));
      ("run_seconds", Json.J_float !seconds);
      ("trace", Json.J_int !trace);
    ]

let metrics_json ~samples ms =
  Json.J_object
    (List.map
       (fun m ->
         ( m.m_name,
           Json.J_object
             ([ ("value", Json.J_float m.value); ("unit", Json.J_string m.unit_) ]
             @ if samples then [ ("samples", Json.J_int m.samples) ] else []) ))
       ms)

(* [wall] are the end-to-end times as measured on the wall clock, before
   host correction: printed and kept in the report file, but not part of
   the result line. *)
let report ?(wall = []) ~scales ~attempted ~failed (ms : metric list) =
  let wall = List.map (fun m -> { m with m_name = "wall." ^ m.m_name }) wall in
  let correct = failed = 0 && !problems = [] in
  List.iter (fun p -> Fmt.pr "PROBLEM %s@." p) (List.rev !problems);
  Fmt.pr "@.%-28s %14s %-6s %8s  %s@." "metric" "value" "unit" "samples"
    (if !trace = 1 then "should move" else "");
  List.iter
    (fun m ->
      Fmt.pr "%-28s %14.4f %-6s %8d  %s@." m.m_name m.value m.unit_ m.samples
        (if !trace = 1 then moves m.m_name else ""))
    (ms @ wall);
  let error_rate = float_of_int failed /. float_of_int (max 1 attempted) in
  if not (List.exists (fun m -> m.m_name = "error_rate") ms) then
    Fmt.pr "%-28s %14.4f %-6s %8d@." "error_rate" error_rate "ratio" attempted;
  let prov = provenance ~scales in
  let full =
    Json.J_object
      [
        ("provenance", prov);
        ("correct", Json.J_bool correct);
        ("attempted", Json.J_int attempted);
        ("failed", Json.J_int failed);
        ("error_rate", Json.J_float error_rate);
        ("problems", Json.J_array (List.map (fun p -> Json.J_string p) !problems));
        ("metrics", metrics_json ~samples:true (ms @ wall));
        ( "calibration",
          Json.J_object
            [
              ("nominal_ms", Json.J_float Calib.nominal_ms);
              ("jobs", Json.J_int (Calib.count ()));
              ("median_job_ms", Json.J_float (Calib.median_job_ms ()));
            ] );
      ]
  in
  let path =
    Filename.concat !out_dir
      (Fmt.str "%s-seed%d-trace%d.report.json" !workload !seed !trace)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string full);
      output_char oc '\n');
  Fmt.pr "provenance %s@.report %s@." (Json.to_line prov) path;
  print_endline
    (Json.to_line
       (Json.J_object
          [
            ("correct", Json.J_bool correct);
            ("attempted", Json.J_int attempted);
            ("failed", Json.J_int failed);
            ("metrics", metrics_json ~samples:false ms);
          ]))

let write_trace roots =
  let path =
    Filename.concat !out_dir (Fmt.str "%s-seed%d.trace.json" !workload !seed)
  in
  Obs.Trace_event.write_file path roots;
  Fmt.pr "trace %s (%d root spans)@." path (List.length roots)

let latency_metrics ?(warn = true) lat =
  let n = List.length lat in
  if warn && Stats.beyond 0.9 lat < 10 then
    Fmt.pr "WARNING only %d latency samples: fewer than 10 lie beyond p90@." n;
  [
    metric ~samples:n "latency_p50_ms" "ms" (Stats.median lat);
    metric ~samples:n "latency_p90_ms" "ms" (Stats.percentile 0.9 lat);
  ]

(* Layers a workload does not pass through report 0. *)
let serve_zeros =
  List.map
    (fun n ->
      let unit_ = if String.ends_with ~suffix:"_ms" n then "ms" else "ratio" in
      metric ~samples:0 n unit_ 0.0)
    [
      "serve.server_ms";
      "serve.unattributed_ms";
      "serve.sched_wait_ms";
      "serve.handle_hit_ratio";
      "serve.cache_hit_ratio";
    ]

let layer_metrics (runs : Layers.run list) =
  List.map
    (fun (n, v, u) -> metric ~samples:(List.length runs) n u v)
    (Layers.metrics runs)

let traced_roots (runs : Layers.run list) =
  List.concat_map (fun (r : Layers.run) -> r.Layers.root :: r.Layers.probes) runs

let error_rate ~attempted ~failed =
  metric ~samples:attempted "error_rate" "ratio"
    (float_of_int failed /. float_of_int (max 1 attempted))

(* Untraced minus traced explains per second, over the two halves. *)
let overhead ~first ~second =
  let half_s = !seconds /. 2.0 in
  metric ~samples:(first + second) "trace.overhead_per_s" "1/s"
    ((float_of_int first -. float_of_int second) /. half_s)

(* --- in-process workloads ------------------------------------------------- *)

(* Set-up is short and the host's speed drifts over seconds, so set-up
   is timed in two rounds, before and after the measured window. *)
let setup_budget_s = 0.5

(* One operation in [write_every] is a write, spread over the window. *)
let in_process_write_every = 4

(* End-to-end runs time host-corrected durations (see calib.ml): one
   calibration job at least every [calib_every_ms] of the window, on the
   cores doing the work.  Traced runs are not corrected. *)
let calibrated () = !trace = 0
let calib_every_ms = 500.0

(* The end-to-end time metrics from (start, ms) samples, corrected or
   as measured on the wall clock.  [throughput] is passed in: its base
   differs by workload. *)
let times_metrics ~correct ~lat ~writes ~setups ~throughput =
  let ms samples =
    List.map
      (fun (t0, d) -> if correct then Calib.correct ~t0 d else d)
      samples
  in
  latency_metrics ~warn:correct (ms lat)
  @ [
      metric ~samples:(List.length lat) "throughput_per_s" "1/s" throughput;
      metric ~samples:(List.length writes) "write_latency_p50_ms" "ms"
        (Stats.median (ms writes));
      metric ~samples:(List.length setups) "setup_s" "s"
        (Stats.median (ms setups) /. 1000.0);
    ]

let in_process () =
  let specs = in_process_questions !workload in
  (* set-up = data generation, into a fresh catalog each time *)
  let catalog = ref (Serve.Catalog.create ()) in
  let setup_round () =
    Stats.repeat ~min_reps:3 ~budget_s:setup_budget_s (fun _ ->
        catalog := Serve.Catalog.create ();
        let t0 = Stats.now_ms () in
        List.iter (fun (n, s, _) -> ignore (register !catalog n s)) specs;
        let d = Stats.now_ms () -. t0 in
        if calibrated () then Calib.here ();
        (t0, d))
  in
  let setups = setup_round () in
  let catalog = !catalog in
  let qs = Array.of_list (List.map (question_of catalog) specs) in
  (* the reference run of each question doubles as its warm-up *)
  let refs = Array.map reference qs in
  if !corrupt_reference then refs.(0) <- Answer.corrupt refs.(0);
  let attempted = ref 0 and failed = ref 0 in
  let fail () =
    incr attempted;
    incr failed
  in
  let t_start = Stats.now_ms () in
  let half = t_start +. (!seconds *. 500.0) in
  let deadline = t_start +. (!seconds *. 1000.0) in
  (* (start, ms) of every correct explain and every write *)
  let lat = ref [] and writes = ref [] in
  let last_calib = ref neg_infinity in
  let calibrate () =
    if calibrated () && Stats.now_ms () -. !last_calib >= calib_every_ms then begin
      Calib.here ();
      last_calib := Stats.now_ms ()
    end
  in
  calibrate ();
  let done_first = ref 0 and done_second = ref 0 in
  let runs = ref [] in
  let k = ref 0 and e = ref 0 in
  while Stats.now_ms () < deadline do
    if !k mod in_process_write_every = in_process_write_every - 1 then begin
      (* the in-process write: a refreshing catalog registration of the
         workload's first dataset, the path a served [register] with
         "refresh": true takes *)
      let n, s, _ = List.hd specs in
      let t0 = Stats.now_ms () in
      match register catalog ~refresh:true n s with
      | _ ->
        incr attempted;
        writes := (t0, Stats.now_ms () -. t0) :: !writes
      | exception ex ->
        problem "write %s: %s" n (Printexc.to_string ex);
        fail ()
    end
    else begin
      let i = !e mod Array.length qs in
      let q = qs.(i) in
      let traced = !trace = 1 && Stats.now_ms () >= half in
      let t0 = Stats.now_ms () in
      let rows =
        try
          if traced then begin
            let r =
              Layers.explain ~rid:!k ~alternatives:q.alternatives q.question
            in
            runs := r :: !runs;
            Some (Answer.of_explanations r.Layers.ranked)
          end
          else Some (explain q)
        with ex ->
          problem "%s: %s" q.label (Printexc.to_string ex);
          None
      in
      let ms = Stats.now_ms () -. t0 in
      (match rows with
      | Some rows when rows = refs.(i) ->
        incr attempted;
        lat := (t0, ms) :: !lat;
        if traced then incr done_second else incr done_first
      | _ -> fail ());
      incr e
    end;
    calibrate ();
    incr k
  done;
  let elapsed = (Stats.now_ms () -. t_start) /. 1000.0 in
  let scales = List.map (fun (n, s, _) -> (n, s)) specs in
  let rss = Stats.peak_rss_mb 0 in
  let setups = setups @ setup_round () in
  if !trace = 0 then begin
    (* explains per second of (corrected) operation time *)
    let busy = List.map (fun (t0, d) -> (t0, t0 +. d)) (!lat @ !writes) in
    let n = List.length !lat in
    report ~scales ~attempted:!attempted ~failed:!failed
      ~wall:
        (times_metrics ~correct:false ~lat:!lat ~writes:!writes ~setups
           ~throughput:(float_of_int n /. elapsed))
      (times_metrics ~correct:true ~lat:!lat ~writes:!writes ~setups
         ~throughput:(float_of_int n /. (Calib.corrected_span busy /. 1000.0))
      @ [ metric "peak_rss_mb" "MB" rss ])
  end
  else begin
    let runs = List.rev !runs in
    Layers.print_self_time_table ~title:!workload runs;
    write_trace (traced_roots runs);
    report ~scales ~attempted:!attempted ~failed:!failed
      (layer_metrics runs @ serve_zeros
      @ [
          overhead ~first:!done_first ~second:!done_second;
          error_rate ~attempted:!attempted ~failed:!failed;
        ])
  end

(* --- serve-socket ----------------------------------------------------------- *)

let serve_socket () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let scale = serve_scale () in
  let q = served_question (Serve.Catalog.create ()) in
  let titles = shuffled_titles q.question in
  let dir = Filename.concat !out_dir (Fmt.str "tmp-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o700;
  (* set-up is timed before and after the window, like in-process *)
  let setup_round () =
    Serve_load.setup_round ~exe:!server_exe ~dir ~scale ~seed:!seed
      ~budget_s:setup_budget_s ~calibrate:(calibrated ())
  in
  let setups = setup_round () in
  let child, conn, kept =
    Serve_load.setup ~exe:!server_exe ~dir ~scale ~seed:!seed
  in
  Fun.protect
    ~finally:(fun () ->
      (* keep the server's log beside the report; drop the scratch dir *)
      Serve_load.reap child;
      let log = Filename.concat dir "server.stderr" in
      if Sys.file_exists log then
        Sys.rename log
          (Filename.concat !out_dir
             (Fmt.str "%s-seed%d-trace%d.server.log" !workload !seed !trace));
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      (* warm-up: the scenario's own question fills the handle cache *)
      let warm =
        Serve_load.roundtrip conn
          (Json.J_object
             [
               ("op", Json.J_string "explain");
               ("dataset", Json.J_string "D1");
               ("scale", Json.J_int scale);
               ("seed", Json.J_int !seed);
             ])
      in
      if not (Serve_load.is_ok warm) then
        problem "warm-up explain: %s" (Json.to_line warm);
      let before = Serve_load.stats conn in
      if calibrated () then Calib.each_cpu ();
      let st, elapsed, busy =
        Serve_load.run ~sock:child.Serve_load.sock ~scale ~seed:!seed ~titles
          ~pattern_of ~clients:(Domain.recommended_domain_count ())
          ~seconds:!seconds ~write_every:50 ~traced:(!trace = 1)
          ~calibrate:(calibrated ())
      in
      let server_alive = Serve_load.alive child in
      let rss = Stats.peak_rss_mb child.Serve_load.pid in
      let after =
        try Some (Serve_load.stats conn)
        with End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _ -> None
      in
      Serve_load.shutdown child conn;
      let setups = setups @ (kept :: setup_round ()) in
      if not server_alive then problem "the server died during the timed window";
      (* re-explain every served pattern in-process *)
      (* The served answers came from the server's [Pipeline.explain_with];
         the traced run checks them against the layer-by-layer calls. *)
      let h = lazy (prepare q) in
      let refs = Hashtbl.create 1024 and runs = ref [] in
      let reference_of title =
        match Hashtbl.find_opt refs title with
        | Some r -> r
        | None ->
          let rows =
            if !trace = 0 then explain_title (Lazy.force h) title
            else begin
              let question =
                Whynot.Question.make ~query:q.question.Whynot.Question.query
                  ~db:q.question.Whynot.Question.db
                  ~missing:(Whynot.Nip_syntax.of_string (pattern_of title))
              in
              let r =
                Layers.explain ~rid:(Hashtbl.length refs)
                  ~alternatives:q.alternatives question
              in
              runs := r :: !runs;
              Answer.of_explanations r.Layers.ranked
            end
          in
          let rows =
            if !corrupt_reference && Hashtbl.length refs = 0 then Answer.corrupt rows
            else rows
          in
          Hashtbl.replace refs title rows;
          rows
      in
      let correct =
        List.filter
          (fun (e : Serve_load.explain_done) ->
            match Answer.of_served e.Serve_load.result with
            | rows -> rows = reference_of e.Serve_load.title
            | exception (Failure _ | Serve.Codec.Decode_error _) -> false)
          (List.rev st.Serve_load.explains)
      in
      let failed =
        st.Serve_load.failed + List.length st.Serve_load.explains
        - List.length correct
      in
      let failed = if server_alive then failed else max 1 failed in
      check_served_pins scale refs;
      let scales = [ ("D1", scale) ] in
      let attempted = st.Serve_load.ops in
      let rtt (e : Serve_load.explain_done) = e.Serve_load.rtt_ms in
      let total (e : Serve_load.explain_done) =
        Serve_load.number (Serve_load.member "total_ms" e.Serve_load.result)
      in
      let n = List.length correct in
      if !trace = 0 then begin
        let lat =
          List.map
            (fun (e : Serve_load.explain_done) -> (e.Serve_load.sent_ms, rtt e))
            correct
        and writes = st.Serve_load.writes_ms in
        (* explains per second of (corrected) time with requests in flight *)
        report ~scales ~attempted ~failed
          ~wall:
            (times_metrics ~correct:false ~lat ~writes ~setups
               ~throughput:(float_of_int n /. elapsed))
          (times_metrics ~correct:true ~lat ~writes ~setups
             ~throughput:
               (float_of_int n /. (Calib.corrected_span busy /. 1000.0))
          @ [ metric "peak_rss_mb" "MB" rss ])
      end
      else begin
        let runs = List.rev !runs in
        Layers.print_self_time_table ~title:"serve-socket in-process re-explain"
          runs;
        write_trace (st.Serve_load.spans @ traced_roots runs);
        let stat names =
          Option.fold ~none:0.0
            ~some:(fun j -> Serve_load.number (Serve_load.path names j))
            after
        in
        let ratio section =
          let delta k =
            stat [ section; k ]
            -. Serve_load.number (Serve_load.path [ section; k ] before)
          in
          let h = delta "hits" and m = delta "misses" in
          if h +. m > 0.0 then h /. (h +. m) else 0.0
        in
        let first =
          List.length
            (List.filter
               (fun (e : Serve_load.explain_done) -> not e.Serve_load.second_half)
               correct)
        in
        report ~scales ~attempted ~failed
          (layer_metrics runs
          @ [
              metric ~samples:n "serve.server_ms" "ms"
                (Stats.median (List.map total correct));
              metric ~samples:n "serve.unattributed_ms" "ms"
                (Stats.median (List.map (fun e -> rtt e -. total e) correct));
              metric "serve.sched_wait_ms" "ms"
                (stat [ "latency"; "sched_wait_ms"; "p50" ]);
              metric "serve.handle_hit_ratio" "ratio" (ratio "handles");
              metric "serve.cache_hit_ratio" "ratio" (ratio "cache");
              overhead ~first ~second:(n - first);
              error_rate ~attempted ~failed;
            ])
      end)

(* --- pins ---------------------------------------------------------------- *)

(* The seed-0 answers at the benchmark scales: the in-process questions,
   and for the served D1 every title's ranked list (as an index into the
   distinct lists). *)
let write_pins_file path =
  let catalog = Serve.Catalog.create () in
  let inproc =
    List.map
      (fun spec ->
        let q = question_of catalog spec in
        (q.label, Answer.to_json (explain q)))
      (in_process_questions "dblp-explain" @ in_process_questions "tpch-sas")
  in
  let q = served_question catalog in
  let h = prepare q in
  let lists = ref [] in
  let by_title =
    List.map
      (fun title ->
        let rows = explain_title h title in
        let idx =
          match List.find_index (( = ) rows) !lists with
          | Some i -> i
          | None ->
            lists := !lists @ [ rows ];
            List.length !lists - 1
        in
        (title, Json.J_int idx))
      (List.sort_uniq compare (titles q.question))
  in
  let served =
    Json.J_object
      [
        ("lists", Json.J_array (List.map Answer.to_json !lists));
        ("by_title", Json.J_object by_title);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.J_object
              (inproc @ [ (served_pins_key (serve_scale ()), served) ])));
      output_char oc '\n')

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_pins <> "" then write_pins_file !write_pins
  else begin
    if not (List.mem !workload workloads) then begin
      Fmt.epr "unknown workload %S (one of %s)@." !workload
        (String.concat ", " workloads);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      Fmt.epr "--trace must be 0 or 1@.";
      exit 2
    end;
    if not (Sys.file_exists !out_dir) then Unix.mkdir !out_dir 0o755;
    if !workload = "serve-socket" then serve_socket () else in_process ()
  end
