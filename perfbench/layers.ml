(* Outside-in per-layer trace.

   [explain] runs the steps of [Whynot.Pipeline.explain] one public call
   at a time, in the pipeline's order, and wraps each call in a span
   recorded from here — nothing inside [lib/] changes.  Counts a layer
   produces (rows, candidates, SAs) and the bytes allocated during the
   call ride on the span as attributes, so every per-layer number is
   derived from the one span tree that is also written out as a Chrome
   trace. *)

open Nested
module Span = Obs.Span
module Msr = Whynot.Msr

(* One layer call under [parent], tagged with the request it serves.
   Allocation is read on the calling domain; the engine's default
   configuration runs partitions sequentially, so that is all of it. *)
let layer ?parent ~rid name f =
  let sp = Span.start ?parent name in
  Span.set_int sp "request_id" rid;
  let a0 = Gc.allocated_bytes () in
  let v =
    Fun.protect
      ~finally:(fun () ->
        Span.set_float sp "alloc_bytes" (Gc.allocated_bytes () -. a0);
        Span.finish sp)
      (fun () -> f ())
  in
  (sp, v)

let nonsurviving_root_rows (tr : Whynot.Tracing.t) =
  match Whynot.Tracing.op_trace tr tr.Whynot.Tracing.root_op with
  | None -> 0
  | Some ot ->
    let n = ref 0 in
    for i = 0 to Whynot.Tracing.n_rows ot - 1 do
      if not (Whynot.Tracing.surviving_at ot i) then incr n
    done;
    !n

type run = {
  root : Span.t;  (** the explain, covering the pipeline's steps only *)
  probes : Span.t list;
      (** [msr.failure_sets] timed alone per SA, after the explain *)
  ranked : Whynot.Explanation.t list;
}

(* Same arguments and defaults as [Pipeline.explain ~alternatives]. *)
let explain ~rid ~alternatives (question : Whynot.Question.t) : run =
  let db = question.Whynot.Question.db
  and q = question.Whynot.Question.query
  and missing = question.Whynot.Question.missing in
  let root = Span.start "explain" in
  Span.set_int root "request_id" rid;
  let sp, (env, sas) =
    layer ~parent:root ~rid "alternatives.enumerate" (fun () ->
        let env = Whynot.Pipeline.schema_env db in
        (env, Whynot.Alternatives.enumerate ~max_sas:16 ~env q alternatives))
  in
  Span.set_int sp "sas" (List.length sas);
  let sp, bi =
    layer ~parent:root ~rid "exec.run" (fun () ->
        let rel, _ = Engine.Exec.run db q in
        { Msr.original_result = Relation.tuples rel })
  in
  Span.set_int sp "result_rows" (List.length bi.Msr.original_result);
  let per_sa =
    List.map
      (fun (sa : Whynot.Alternatives.sa) ->
        let sasp = Span.start ~parent:root "sa" in
        Span.set_int sasp "request_id" rid;
        Span.set_int sasp "sa" sa.Whynot.Alternatives.index;
        let _, bt =
          layer ~parent:sasp ~rid "backtrace.run" (fun () ->
              Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query missing)
        in
        let sp, tr =
          layer ~parent:sasp ~rid "tracing.run" (fun () ->
              Whynot.Tracing.run ~env db sa bt)
        in
        Span.set_int sp "rows"
          (List.fold_left
             (fun acc ot -> acc + Whynot.Tracing.n_rows ot)
             0 tr.Whynot.Tracing.ops);
        let sp, es =
          layer ~parent:sasp ~rid "msr.from_trace" (fun () ->
              Msr.from_trace ~bi ~q tr)
        in
        Span.set_int sp "candidates" (List.length es);
        Span.set_int sp "nonsurviving_root_rows" (nonsurviving_root_rows tr);
        Span.finish sasp;
        (tr, es))
      sas
  in
  let _, ranked =
    layer ~parent:root ~rid "explanation.rank" (fun () ->
        Whynot.Explanation.rank
          (Whynot.Explanation.prune_dominated (List.concat_map snd per_sa)))
  in
  Span.finish root;
  let probes =
    List.map
      (fun (tr, _) ->
        fst
          (layer ~rid "msr.failure_sets" (fun () ->
               let fs = Msr.failure_sets tr in
               List.iter (fun r -> ignore (fs r)) (Msr.consistent_root_rids tr))))
      per_sa
  in
  { root; probes; ranked }

(* --- aggregation over the span forest ------------------------------------ *)

let self_ms sp =
  Span.duration_ms sp
  -. List.fold_left (fun acc c -> acc +. Span.duration_ms c) 0.0 (Span.children sp)

let all_spans roots =
  List.concat_map (fun r -> Span.fold (fun acc s -> s :: acc) [] r) roots

let named name roots = List.filter (fun s -> Span.name s = name) (all_spans roots)

let total_ms name roots =
  List.fold_left (fun acc s -> acc +. Span.duration_ms s) 0.0 (named name roots)

let attr_sum name key roots =
  List.fold_left
    (fun acc s ->
      match Span.attr s key with
      | Some (Span.Int i) -> acc +. float_of_int i
      | Some (Span.Float f) -> acc +. f
      | _ -> acc)
    0.0 (named name roots)

(* Per-layer metrics of a set of traced runs, each a mean per explain. *)
let metrics (runs : run list) : (string * float * string) list =
  let n = float_of_int (max 1 (List.length runs)) in
  let roots = List.map (fun r -> r.root) runs in
  let probes = List.concat_map (fun r -> r.probes) runs in
  let per x = x /. n in
  let mb x = x /. 1048576.0 in
  let explain_ms = total_ms "explain" roots in
  let uncovered = List.fold_left (fun acc r -> acc +. self_ms r) 0.0 roots in
  [
    ("exec.run_ms", per (total_ms "exec.run" roots), "ms");
    ("exec.alloc_mb", per (mb (attr_sum "exec.run" "alloc_bytes" roots)), "MB");
    ("exec.result_rows", per (attr_sum "exec.run" "result_rows" roots), "count");
    ( "alternatives.enumerate_ms",
      per (total_ms "alternatives.enumerate" roots),
      "ms" );
    ("alternatives.sas", per (attr_sum "alternatives.enumerate" "sas" roots), "count");
    ("backtrace.run_ms", per (total_ms "backtrace.run" roots), "ms");
    ("tracing.run_ms", per (total_ms "tracing.run" roots), "ms");
    ( "tracing.alloc_mb",
      per (mb (attr_sum "tracing.run" "alloc_bytes" roots)),
      "MB" );
    ("tracing.rows", per (attr_sum "tracing.run" "rows" roots), "count");
    ("msr.from_trace_ms", per (total_ms "msr.from_trace" roots), "ms");
    ("msr.failure_sets_ms", per (total_ms "msr.failure_sets" probes), "ms");
    ( "msr.alloc_mb",
      per (mb (attr_sum "msr.from_trace" "alloc_bytes" roots)),
      "MB" );
    ( "msr.nonsurviving_root_rows",
      per (attr_sum "msr.from_trace" "nonsurviving_root_rows" roots),
      "count" );
    ("msr.candidates", per (attr_sum "msr.from_trace" "candidates" roots), "count");
    ( "trace.uncovered_share",
      (if explain_ms > 0.0 then uncovered /. explain_ms else 0.0),
      "ratio" );
  ]

(* Self time per span name, per explain, as a share of explain time. *)
let print_self_time_table ~title (runs : run list) =
  let n = float_of_int (max 1 (List.length runs)) in
  let roots =
    List.map (fun r -> r.root) runs @ List.concat_map (fun r -> r.probes) runs
  in
  let explain_ms = total_ms "explain" roots in
  let names =
    List.sort_uniq compare (List.map Span.name (all_spans roots))
  in
  Fmt.pr "@.%s: self time per layer (%d traced explains)@." title
    (List.length runs);
  Fmt.pr "  %-24s %8s %12s %12s %8s@." "span" "calls" "total ms/ex" "self ms/ex"
    "share";
  List.iter
    (fun name ->
      let sps = named name roots in
      let self = List.fold_left (fun acc s -> acc +. self_ms s) 0.0 sps in
      Fmt.pr "  %-24s %8d %12.3f %12.3f %7.1f%%%s@." name (List.length sps)
        (total_ms name roots /. n) (self /. n)
        (if explain_ms > 0.0 then 100.0 *. self /. explain_ms else 0.0)
        (match name with
        | "explain" -> "  <- no layer span covers this"
        | "msr.failure_sets" -> "  (probe, outside the explain)"
        | _ -> ""))
    names
