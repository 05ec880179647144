(* Data-tracing tests (Section 5.3): the annotations of Figures 4–6 on the
   paper's running example, per-operator relaxation semantics, and the
   re-validation ablation. *)

open Nested
open Nrab
module Nip = Whynot.Nip

let person_schema =
  Vtype.relation
    [
      ("name", Vtype.TString);
      ("address1", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
      ("address2", Vtype.relation [ ("city", Vtype.TString); ("year", Vtype.TInt) ]);
    ]

let addr c y = Value.Tuple [ ("city", Value.String c); ("year", Value.Int y) ]

let person name a1 a2 =
  Value.Tuple
    [
      ("name", Value.String name);
      ("address1", Value.bag_of_list a1);
      ("address2", Value.bag_of_list a2);
    ]

let db =
  Relation.Db.of_list
    [
      ( "person",
        Relation.of_tuples ~schema:person_schema
          [
            person "Peter"
              [ addr "NY" 2010; addr "LA" 2019; addr "LV" 2017 ]
              [ addr "LA" 2010; addr "SF" 2018 ];
            person "Sue" [ addr "LA" 2019; addr "NY" 2018 ] [ addr "LA" 2019; addr "NY" 2018 ];
          ] );
    ]

let env = [ ("person", person_schema) ]

let query =
  let g = Query.Gen.create () in
  Query.nest_rel ~id:5 g [ "name" ] ~into:"nList"
    (Query.project_attrs ~id:4 g [ "name"; "city" ]
       (Query.select ~id:3 g
          (Expr.Cmp (Expr.Ge, Expr.attr "year", Expr.int 2019))
          (Query.flatten_inner ~id:2 g "address2" (Query.table ~id:1 g "person"))))

let missing = Nip.tup [ ("city", Nip.str "NY"); ("nList", Nip.some_element) ]

let sa0 =
  {
    Whynot.Alternatives.index = 0;
    query;
    changed_ops = Whynot.Msr.Int_set.empty;
    description = "original";
  }

let trace ?revalidate () =
  let bt = Whynot.Backtrace.run ~env query missing in
  Whynot.Tracing.run ?revalidate ~env db sa0 bt

let rows_of tr id =
  match Whynot.Tracing.op_trace tr id with
  | Some ot -> Whynot.Tracing.rows ot
  | None -> Alcotest.failf "no trace for op %d" id

let field_str name (r : Whynot.Tracing.trow) =
  match Value.field name r.Whynot.Tracing.data with
  | Some v -> Value.to_string v
  | None -> "<none>"

(* Figure 4: after table access, Sue is consistent under S1, Peter not. *)
let test_table_annotations () =
  let tr = trace () in
  let rows = rows_of tr 1 in
  Alcotest.(check int) "two input tuples" 2 (List.length rows);
  let consistent_names =
    List.filter_map
      (fun (r : Whynot.Tracing.trow) ->
        if r.Whynot.Tracing.consistent then Value.field "name" r.Whynot.Tracing.data
        else None)
      rows
  in
  Alcotest.(check bool) "only Sue is compatible" true
    (consistent_names = [ Value.String "Sue" ])

(* Figure 5: the flatten yields 4 rows under S1 (2 addresses each), all
   retained; re-validation leaves only the NY row consistent. *)
let test_flatten_annotations () =
  let tr = trace () in
  let rows = rows_of tr 2 in
  Alcotest.(check int) "four flattened rows" 4 (List.length rows);
  List.iter
    (fun (r : Whynot.Tracing.trow) ->
      Alcotest.(check bool) "flatten retains element rows" true
        r.Whynot.Tracing.retained)
    rows;
  let consistent = List.filter (fun (r : Whynot.Tracing.trow) -> r.Whynot.Tracing.consistent) rows in
  Alcotest.(check int) "re-validation: only Sue/NY row" 1 (List.length consistent);
  Alcotest.(check string) "it is the NY row" "\"NY\""
    (field_str "city" (List.hd consistent))

(* Figure 6: the selection keeps everything in the relaxed stream; only
   year ≥ 2019 rows are retained. *)
let test_selection_annotations () =
  let tr = trace () in
  let rows = rows_of tr 3 in
  Alcotest.(check int) "selection passes all rows through" 4 (List.length rows);
  let retained = List.filter (fun (r : Whynot.Tracing.trow) -> r.Whynot.Tracing.retained) rows in
  (* only Sue's LA-2019 element is in address2 with year ≥ 2019 *)
  Alcotest.(check int) "one row satisfies θ" 1 (List.length retained);
  let inconsistent_retained =
    List.filter (fun (r : Whynot.Tracing.trow) -> r.Whynot.Tracing.consistent) retained
  in
  Alcotest.(check int) "the retained rows are not the NY row" 0
    (List.length inconsistent_retained)

(* The empty-address padding of the outer-flatten relaxation. *)
let test_flatten_padding () =
  let db =
    Relation.Db.of_list
      [
        ( "person",
          Relation.of_tuples ~schema:person_schema
            [ person "Solo" [ addr "NY" 2019 ] [] ] );
      ]
  in
  let bt = Whynot.Backtrace.run ~env query missing in
  let tr = Whynot.Tracing.run ~env db sa0 bt in
  let rows = rows_of tr 2 in
  Alcotest.(check int) "one padded row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "padding is not retained by the inner flatten" false
    r.Whynot.Tracing.retained;
  Alcotest.(check bool) "padding does not survive" false r.Whynot.Tracing.surviving;
  Alcotest.(check string) "padded city is null" "⊥" (field_str "city" r)

(* Surviving rows of the root reproduce the original result. *)
let test_surviving_is_original () =
  let tr = trace () in
  let surviving =
    List.filter
      (fun (r : Whynot.Tracing.trow) -> r.Whynot.Tracing.surviving)
      (Whynot.Tracing.root_rows tr)
  in
  let original = Eval.eval db query in
  Alcotest.(check int) "same cardinality" (Relation.cardinal original)
    (List.length surviving);
  List.iter
    (fun (r : Whynot.Tracing.trow) ->
      Alcotest.(check bool) "surviving root row is an original tuple" true
        (List.exists (Value.equal r.Whynot.Tracing.data) (Relation.tuples original)))
    surviving

(* Lineage: parents always point to rows of the child operator. *)
let test_lineage_well_formed () =
  let tr = trace () in
  List.iter
    (fun (ot : Whynot.Tracing.op_trace) ->
      List.iter
        (fun (r : Whynot.Tracing.trow) ->
          List.iter
            (fun pid ->
              Alcotest.(check bool) "parent exists" true
                (Whynot.Tracing.find_row tr pid <> None))
            r.Whynot.Tracing.parents)
        (Whynot.Tracing.rows ot))
    tr.Whynot.Tracing.ops

(* Ablation: without re-validation, all of Sue's flattened rows count as
   consistent (they descend from the compatible tuple) — the false
   positives of prior lineage-based approaches. *)
let test_ablation_no_revalidation () =
  let tr = trace ~revalidate:false () in
  let rows = rows_of tr 2 in
  let consistent = List.filter (fun (r : Whynot.Tracing.trow) -> r.Whynot.Tracing.consistent) rows in
  Alcotest.(check int) "both Sue rows flagged without re-validation" 2
    (List.length consistent)

(* Union and difference end to end: a tuple reachable through either
   union branch yields the branch's failure set; difference tracks
   removal. *)
let test_union_branches () =
  let schema = Vtype.relation [ ("a", Vtype.TInt) ] in
  let db2 =
    Relation.Db.of_list
      [
        ("u", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
        ("v", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
      ]
  in
  let g = Query.Gen.create () in
  let q =
    Query.union ~id:5 g
      (Query.select ~id:3 g
         (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 2))
         (Query.table ~id:1 g "u"))
      (Query.select ~id:4 g
         (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 3))
         (Query.table ~id:2 g "v"))
  in
  let phi =
    Whynot.Question.make ~query:q ~db:db2
      ~missing:(Nip.tup [ ("a", Nip.int 1) ])
  in
  let result = Whynot.Pipeline.explain ~use_sas:false phi in
  let sets =
    List.sort compare (Whynot.Pipeline.explanation_sets result)
  in
  Alcotest.(check (list (list int))) "either branch's selection fixes it"
    [ [ 3 ]; [ 4 ] ] sets

let test_difference_blames_nothing_spurious () =
  let schema = Vtype.relation [ ("a", Vtype.TInt) ] in
  let db2 =
    Relation.Db.of_list
      [
        ( "u",
          Relation.of_tuples ~schema
            [ Value.Tuple [ ("a", Value.Int 1) ]; Value.Tuple [ ("a", Value.Int 2) ] ]
        );
        ("v", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]);
      ]
  in
  let g = Query.Gen.create () in
  (* σ_{a≥2}(u − v): why is a=1 missing?  Fixing the selection alone is
     not enough (the difference removes it), and the difference is not
     reparameterizable — the heuristic must not return the σ alone as a
     complete fix.  Under the relaxation the difference marks the removed
     occurrence as not retained, so no consistent derivation exists and
     the pipeline stays silent rather than answering incorrectly. *)
  let q =
    Query.select ~id:4 g
      (Expr.Cmp (Expr.Ge, Expr.attr "a", Expr.int 2))
      (Query.diff ~id:3 g (Query.table ~id:1 g "u") (Query.table ~id:2 g "v"))
  in
  let phi =
    Whynot.Question.make ~query:q ~db:db2
      ~missing:(Nip.tup [ ("a", Nip.int 1) ])
  in
  let result = Whynot.Pipeline.explain ~use_sas:false phi in
  List.iter
    (fun set ->
      Alcotest.(check bool) "difference never blamed" false (List.mem 3 set))
    (Whynot.Pipeline.explanation_sets result)

(* Aggregate ranges: interval satisfiability used for optimistic
   consistency. *)
let test_interval_satisfies () =
  let open Whynot.Tracing in
  Alcotest.(check bool) "Gt inside" true
    (interval_satisfies Expr.Gt (Value.Int 3) (0., 5.));
  Alcotest.(check bool) "Gt outside" false
    (interval_satisfies Expr.Gt (Value.Int 7) (0., 5.));
  Alcotest.(check bool) "Eq inside" true
    (interval_satisfies Expr.Eq (Value.Int 0) (0., 5.));
  Alcotest.(check bool) "Lt at bound" false
    (interval_satisfies Expr.Lt (Value.Int 0) (0., 5.));
  Alcotest.(check bool) "Le at bound" true
    (interval_satisfies Expr.Le (Value.Int 0) (0., 5.))

(* --- Outer joins ---------------------------------------------------------- *)

(* The root rows of the original query, as a bag. *)
let surviving_bag (tr : Whynot.Tracing.t) =
  Value.bag_of_list
    (List.filter_map
       (fun (r : Whynot.Tracing.trow) ->
         if r.Whynot.Tracing.surviving then Some r.Whynot.Tracing.data else None)
       (Whynot.Tracing.root_rows tr))


(* l ⟕[a = ra] σ[x > 1](r): l's row relaxed-matches r's row, which the
   selection removes, so the original result pads l's row with nulls.
   The trace must carry that pad as a surviving root row. *)
let test_outer_join_surviving_pad () =
  let ls = Vtype.relation [ ("a", Vtype.TInt) ] in
  let rs = Vtype.relation [ ("ra", Vtype.TInt); ("x", Vtype.TInt) ] in
  let db =
    Relation.Db.of_list
      [
        ("l", Relation.of_tuples ~schema:ls [ Value.Tuple [ ("a", Value.Int 1) ] ]);
        ( "r",
          Relation.of_tuples ~schema:rs
            [ Value.Tuple [ ("ra", Value.Int 1); ("x", Value.Int 0) ] ] );
      ]
  in
  let env = [ ("l", ls); ("r", rs) ] in
  let g = Query.Gen.create () in
  let q =
    Query.join g Query.Left
      (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.attr "ra"))
      (Query.table g "l")
      (Query.select g
         (Expr.Cmp (Expr.Gt, Expr.attr "x", Expr.int 1))
         (Query.table g "r"))
  in
  let sa = { sa0 with Whynot.Alternatives.query = q } in
  let bt = Whynot.Backtrace.run ~env q Nip.Any in
  let tr = Whynot.Tracing.run ~env db sa bt in
  let expected = Eval.eval db q in
  Alcotest.(check int) "one original row" 1 (Relation.cardinal expected);
  Alcotest.(check string) "surviving root rows = Eval"
    (Value.to_string (Relation.data expected))
    (Value.to_string (surviving_bag tr))

(* --- Random oracle: surviving root rows = Eval ----------------------------- *)

let arb_query_db =
  QCheck.make
    ~print:(fun (q, db) ->
      Fmt.str "query: %s@.db:@.%a" (Parser.query_to_string q)
        Fmt.(list ~sep:cut (pair ~sep:(any ": ") string Relation.pp))
        (Relation.Db.tables db))
    QCheck.Gen.(pair Nested_gen.gen_query Nested_gen.gen_db)

(* The surviving rows of the root are the original result, as a bag —
   traced alone, and traced twice through one shared memo, where the
   second trace is replayed from the first. *)
let prop_surviving_is_eval =
  QCheck.Test.make ~count:1000 ~name:"surviving root rows = Eval" arb_query_db
    (fun (q, db) ->
      let env = Nested_gen.env in
      let expected = Relation.data (Eval.eval db q) in
      let sa = { sa0 with Whynot.Alternatives.query = q } in
      let bt = Whynot.Backtrace.run ~env q Nip.Any in
      let shared = Whynot.Tracing.shared_for [ sa; sa ] in
      let traces =
        [
          ("unshared", Whynot.Tracing.run ~env db sa bt);
          ("shared, first", Whynot.Tracing.run ~shared ~env db sa bt);
          ("shared, replayed", Whynot.Tracing.run ~shared ~env db sa bt);
        ]
      in
      List.for_all
        (fun (label, tr) ->
          let actual = surviving_bag tr in
          Value.equal expected actual
          || QCheck.Test.fail_reportf "%s@.expected %s@.actual   %s" label
               (Value.to_string expected) (Value.to_string actual))
        traces)

(* --- Shared sub-plan traces = unshared traces ----------------------------- *)

let check_same_trace label (a : Whynot.Tracing.t) (b : Whynot.Tracing.t) =
  let module T = Whynot.Tracing in
  let ids tr = List.map (fun (o : T.op_trace) -> o.T.op_id) tr.T.ops in
  Alcotest.(check (list int)) (label ^ ": op ids") (ids a) (ids b);
  List.iter2
    (fun (x : T.op_trace) (y : T.op_trace) ->
      let l = Fmt.str "%s: op %d" label x.T.op_id in
      let ax = x.T.ann and ay = y.T.ann in
      Alcotest.(check int) (l ^ " rid0") ax.T.v_rid0 ay.T.v_rid0;
      Alcotest.(check int) (l ^ " rows") ax.T.v_n ay.T.v_n;
      Alcotest.(check bool) (l ^ " node and nip") true
        (x.T.op_node = y.T.op_node && x.T.nip = y.T.nip);
      Alcotest.(check bool) (l ^ " flag bytes") true
        (Bytes.equal ax.T.v_consistent ay.T.v_consistent
        && Bytes.equal ax.T.v_retained ay.T.v_retained
        && Bytes.equal ax.T.v_surviving ay.T.v_surviving);
      Alcotest.(check bool) (l ^ " parents and ranges") true
        (List.init ax.T.v_n (T.parents_at x) = List.init ay.T.v_n (T.parents_at y)
        && ax.T.v_ranges = ay.T.v_ranges);
      (* Row data compared batch to batch: equal batches hold equal rows,
         without reconstructing the nested values. *)
      Alcotest.(check bool) (l ^ " row data") true (x.T.data = y.T.data))
    a.T.ops b.T.ops

(* Every SA of an instance traced through one memo — in SA order and in
   reverse — against its unshared trace, exact and at stride 3, with
   and without re-validation.  Returns the operators replayed. *)
let check_sharing ~name (inst : Scenarios.Scenario.instance) alternatives =
  let phi = inst.Scenarios.Scenario.question in
  let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
  let env = Whynot.Pipeline.schema_env db in
  let sas = Whynot.Alternatives.enumerate ~max_sas:16 ~env q alternatives in
  let bts =
    List.map
      (fun (sa : Whynot.Alternatives.sa) ->
        (sa, Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
               phi.Whynot.Question.missing))
      sas
  in
  let replayed = ref 0 in
  List.iter
    (fun (sample_stride, revalidate) ->
      let unshared =
        List.map
          (fun (sa, bt) ->
            Whynot.Tracing.run ~revalidate ~sample_stride ~env db sa bt)
          bts
      in
      List.iter
        (fun (order, reorder) ->
          let shared = Whynot.Tracing.shared_for sas in
          let traced =
            List.map
              (fun ((sa : Whynot.Alternatives.sa), bt) ->
                ( sa.Whynot.Alternatives.index,
                  Whynot.Tracing.run ~revalidate ~sample_stride ~shared ~env db
                    sa bt ))
              (reorder bts)
          in
          List.iter2
            (fun (sa : Whynot.Alternatives.sa) plain ->
              let tr = List.assoc sa.Whynot.Alternatives.index traced in
              replayed := !replayed + tr.Whynot.Tracing.shared_ops;
              check_same_trace
                (Fmt.str "%s S%d stride=%d revalidate=%b %s" name
                   (sa.Whynot.Alternatives.index + 1) sample_stride revalidate
                   order)
                plain tr)
            sas unshared)
        [ ("forward", Fun.id); ("reversed", List.rev) ])
    [ (1, true); (1, false); (3, true); (3, false) ];
  !replayed

let test_sharing_registry () =
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = s.Scenarios.Scenario.make ~scale:1 () in
      ignore
        (check_sharing ~name:s.Scenarios.Scenario.name inst
           inst.Scenarios.Scenario.alternatives))
    Scenarios.Registry.all

let q3_widened ~scale =
  let s = Option.get (Scenarios.Registry.find "Q3") in
  let inst = s.Scenarios.Scenario.make ~scale () in
  (inst, Scenarios.Registry.widened_alternatives "Q3" inst)

let test_sharing_widened_q3 () =
  let inst, alternatives = q3_widened ~scale:2 in
  let replayed = check_sharing ~name:"Q3 widened" inst alternatives in
  Alcotest.(check bool) "sub-plans are replayed" true (replayed > 0)

(* The same right subtree after left subtrees of different sizes: Peter
   has three [address1] but two [address2] elements, so the right
   subtree's rows get different rids under the two SAs and must not be
   replayed across them. *)
let test_sharing_shifted_rids () =
  let mk attr =
    let g = Query.Gen.create () in
    Query.join ~id:5 g Query.Inner Expr.True
      (Query.flatten_inner ~id:2 g attr (Query.table ~id:1 g "person"))
      (Query.rename ~id:4 g [ ("n2", "name") ]
         (Query.project_attrs ~id:3 g [ "name" ] (Query.table ~id:6 g "person")))
  in
  let sas =
    List.mapi
      (fun index attr ->
        {
          sa0 with
          Whynot.Alternatives.index;
          query = mk attr;
          changed_ops =
            (if index = 0 then Whynot.Msr.Int_set.empty
             else Whynot.Msr.Int_set.singleton 2);
        })
      [ "address2"; "address1" ]
  in
  let run ?shared (sa : Whynot.Alternatives.sa) =
    Whynot.Tracing.run ?shared ~env db sa
      (Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query Nip.Any)
  in
  List.iter
    (fun (order, reorder) ->
      let shared = Whynot.Tracing.shared_for sas in
      let traced =
        List.map
          (fun (sa : Whynot.Alternatives.sa) ->
            (sa.Whynot.Alternatives.index, run ~shared sa))
          (reorder sas)
      in
      List.iter
        (fun (sa : Whynot.Alternatives.sa) ->
          check_same_trace
            (Fmt.str "S%d %s" (sa.Whynot.Alternatives.index + 1) order)
            (run sa)
            (List.assoc sa.Whynot.Alternatives.index traced))
        sas)
    [ ("forward", Fun.id); ("reversed", List.rev) ]

let render (rp : Whynot.Pipeline.result) =
  List.map
    (fun (e : Whynot.Explanation.t) ->
      Fmt.str "%a lb=%d ub=%d sa=%d" Whynot.Explanation.pp e
        e.Whynot.Explanation.side_effect_lb e.Whynot.Explanation.side_effect_ub
        e.Whynot.Explanation.sa)
    rp.Whynot.Pipeline.explanations

(* SAs traced concurrently through one memo explain exactly like the
   sequential pipeline. *)
let test_parallel_shared_explain () =
  let inst, alternatives = q3_widened ~scale:2 in
  let explain parallel =
    Whynot.Pipeline.explain ~parallel ~alternatives
      inst.Scenarios.Scenario.question
  in
  let replays = Obs.Metrics.counter "tracing.subplans.shared" in
  let before = Obs.Metrics.Counter.value replays in
  let seq = explain false in
  Alcotest.(check int) "12 schema alternatives" 12
    (List.length seq.Whynot.Pipeline.sas);
  Alcotest.(check (list string)) "parallel = sequential" (render seq)
    (render (explain true));
  (* Observability: the first SA replays nothing; every later one
     replays at least the shared join subtree, and says so on its
     tracing span and in the counter. *)
  let shared_ops =
    List.map
      (fun sp ->
        match Obs.Span.attr sp "shared_ops" with
        | Some (Obs.Span.Int i) -> i
        | _ -> -1)
      (Obs.Span.find_all
         (fun sp -> Obs.Span.name sp = "tracing")
         seq.Whynot.Pipeline.span)
  in
  Alcotest.(check int) "one tracing span per SA" 12 (List.length shared_ops);
  Alcotest.(check int) "S1 replays nothing" 0 (List.hd shared_ops);
  Alcotest.(check bool) "S2..S12 replay sub-plans" true
    (List.for_all (fun n -> n > 0) (List.tl shared_ops));
  Alcotest.(check bool) "replays are counted" true
    (Obs.Metrics.Counter.value replays - before >= 11)

let () =
  Alcotest.run "tracing"
    [
      ( "running-example-annotations",
        [
          Alcotest.test_case "table access (Fig. 4)" `Quick test_table_annotations;
          Alcotest.test_case "flatten (Fig. 5)" `Quick test_flatten_annotations;
          Alcotest.test_case "selection (Fig. 6)" `Quick test_selection_annotations;
          Alcotest.test_case "outer-flatten padding" `Quick test_flatten_padding;
          Alcotest.test_case "surviving = original" `Quick test_surviving_is_original;
          Alcotest.test_case "lineage well-formed" `Quick test_lineage_well_formed;
        ] );
      ( "set-operations",
        [
          Alcotest.test_case "union branches" `Quick test_union_branches;
          Alcotest.test_case "difference" `Quick test_difference_blames_nothing_spurious;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "no re-validation" `Quick test_ablation_no_revalidation;
        ] );
      ( "intervals",
        [ Alcotest.test_case "satisfiability" `Quick test_interval_satisfies ] );
      ( "outer-joins",
        [
          Alcotest.test_case "surviving pad of a relaxed match" `Quick
            test_outer_join_surviving_pad;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_surviving_is_eval ]);
      ( "sharing",
        [
          Alcotest.test_case "registry scenarios" `Quick test_sharing_registry;
          Alcotest.test_case "widened Q3" `Quick test_sharing_widened_q3;
          Alcotest.test_case "shifted rids" `Quick test_sharing_shifted_rids;
          Alcotest.test_case "parallel explain" `Quick test_parallel_shared_explain;
        ] );
    ]
