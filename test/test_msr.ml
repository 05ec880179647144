(* MSR-computation tests: failure sets, the literal queue-based
   Algorithm 4, the contributing-rows closure, and side-effect bounds —
   all on the paper's running example. *)

open Nested
open Nrab
module Nip = Whynot.Nip
module Int_set = Whynot.Msr.Int_set
module Set_set = Whynot.Msr.Set_set

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

let mk_trace sa_query changed description index =
  let sa =
    { Whynot.Alternatives.index; query = sa_query; changed_ops = changed; description }
  in
  let bt = Whynot.Backtrace.run ~env sa_query missing in
  Whynot.Tracing.run ~env db sa bt

let trace0 () = mk_trace query Int_set.empty "original" 0

let sets_to_lists s =
  List.sort compare (List.map Int_set.elements (Set_set.elements s))

let test_failure_sets_running_example () =
  let tr = trace0 () in
  let fs = Whynot.Msr.failure_sets tr in
  let consistent = Whynot.Msr.consistent_root_rids tr in
  Alcotest.(check int) "one consistent root (the NY group)" 1
    (List.length consistent);
  let root = List.hd consistent in
  Alcotest.(check (list (list int))) "its failure set is {σ}" [ [ 3 ] ]
    (sets_to_lists (fs root))

let test_contributing_closure () =
  let tr = trace0 () in
  let contrib = Whynot.Msr.contributing tr in
  (* the closure reaches down to Sue's input tuple *)
  let table_rows =
    match Whynot.Tracing.op_trace tr 1 with
    | Some ot -> Whynot.Tracing.rows ot
    | None -> []
  in
  let contributing_names =
    List.filter_map
      (fun (r : Whynot.Tracing.trow) ->
        if Hashtbl.mem contrib r.Whynot.Tracing.rid then
          Value.field "name" r.Whynot.Tracing.data
        else None)
      table_rows
  in
  Alcotest.(check bool) "Sue's tuple contributes" true
    (List.mem (Value.String "Sue") contributing_names)

let test_algorithm4_superset_of_failure_sets () =
  let tr = trace0 () in
  let alg4 = Whynot.Msr.algorithm4 tr in
  Alcotest.(check bool) "{σ} among Algorithm 4 candidates" true
    (Set_set.mem (Int_set.singleton 3) alg4);
  (* every failure-set explanation is an Algorithm 4 candidate *)
  let fs = Whynot.Msr.failure_sets tr in
  List.iter
    (fun rid ->
      Set_set.iter
        (fun set ->
          if not (Int_set.is_empty set) then
            Alcotest.(check bool)
              (Fmt.str "failure set {%s} covered"
                 (String.concat "," (List.map string_of_int (Int_set.elements set))))
              true (Set_set.mem set alg4))
        (fs rid))
    (Whynot.Msr.consistent_root_rids tr)

let test_algorithm4_never_blames_tables () =
  let tr = trace0 () in
  Set_set.iter
    (fun set ->
      Alcotest.(check bool) "no table access in candidates" false
        (Int_set.mem 1 set))
    (Whynot.Msr.algorithm4 tr)

let test_bounds () =
  let tr = trace0 () in
  let original_result =
    Relation.tuples (Eval.eval db query)
  in
  let bi = { Whynot.Msr.original_result } in
  let lb, ub = Whynot.Msr.bounds ~bi ~q:query tr (Int_set.singleton 3) in
  (* the explanation contains a selection, so LB must be 0 (§5.4) *)
  Alcotest.(check int) "LB = 0 for selections" 0 lb;
  Alcotest.(check bool) "UB counts potential additions" true (ub >= 1)

let test_from_trace_explanations () =
  let tr = trace0 () in
  let bi = { Whynot.Msr.original_result = Relation.tuples (Eval.eval db query) } in
  let expls = Whynot.Msr.from_trace ~bi ~q:query tr in
  Alcotest.(check (list (list int))) "SA0 contributes {σ}" [ [ 3 ] ]
    (List.sort compare (List.map Whynot.Explanation.op_list expls))

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* [n] selections over all 2^n bit rows, grouped into one nested row:
   each member's failure set is the set of selections its bits fail, so
   the group row has 2^n alternatives.  Returns the question and the
   selections' op ids. *)
let bits_question n =
  let bits = List.init n (fun i -> Fmt.str "b%d" i) in
  let schema =
    Vtype.relation
      (("k", Vtype.TInt) :: List.map (fun b -> (b, Vtype.TInt)) bits)
  in
  let rows =
    List.init (1 lsl n) (fun r ->
        Value.Tuple
          (("k", Value.Int 0)
          :: List.mapi (fun i b -> (b, Value.Int ((r lsr i) land 1))) bits))
  in
  let db = Relation.Db.of_list [ ("bits", Relation.of_tuples ~schema rows) ] in
  let g = Query.Gen.create () in
  let sels, chain =
    List.fold_left
      (fun (ids, q) b ->
        let q = Query.select g (Expr.Cmp (Expr.Eq, Expr.attr b, Expr.int 1)) q in
        (q.Query.id :: ids, q))
      ([], Query.table g "bits") bits
  in
  let query = Query.nest_rel g bits ~into:"bs" chain in
  let missing = Nip.tup [ ("k", Nip.int 0); ("bs", Nip.some_element) ] in
  (Whynot.Question.make ~query ~db ~missing, List.sort compare sels)

let trace_of (phi : Whynot.Question.t) =
  let q = phi.Whynot.Question.query and db = phi.Whynot.Question.db in
  let env = Whynot.Pipeline.schema_env db in
  let sa =
    {
      Whynot.Alternatives.index = 0;
      query = q;
      changed_ops = Int_set.empty;
      description = "original";
    }
  in
  let bt = Whynot.Backtrace.run ~env q phi.Whynot.Question.missing in
  Whynot.Tracing.run ~env db sa bt

(* The k-subsets of a sorted list, in [Int_set.compare] order. *)
let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* Eight selections give the group row 256 alternatives, past
   [max_alternatives].  Sizes 0–2 are 37 sets, so the cap must break the
   tie among the 56 size-3 sets: the first 27 in [Int_set] order survive.
   The truncation must show on the [msr.failure_sets.capped] counter, and
   the bitmask path must keep exactly what the tree path keeps. *)
let test_cap_counted () =
  let phi, sels = bits_question 8 in
  let tr = trace_of phi in
  let before = counter "msr.failure_sets.capped" in
  let fs = Whynot.Msr.failure_sets tr in
  (* the widest consistent root: the group of all 256 members *)
  let root =
    List.fold_left
      (fun best rid ->
        if Set_set.cardinal (fs rid) > Set_set.cardinal (fs best) then rid
        else best)
      (List.hd (Whynot.Msr.consistent_root_rids tr))
      (Whynot.Msr.consistent_root_rids tr)
  in
  let kept = fs root in
  Alcotest.(check int) "the group row kept the cap" Whynot.Msr.max_alternatives
    (Set_set.cardinal kept);
  Alcotest.(check bool) "truncation counted" true
    (counter "msr.failure_sets.capped" > before);
  let expected =
    List.concat_map (fun k -> subsets k sels) [ 0; 1; 2 ]
    @ List.filteri (fun i _ -> i < 27) (subsets 3 sels)
  in
  Alcotest.(check (list (list int))) "the smallest sets survive, ties in order"
    (List.sort compare expected) (sets_to_lists kept);
  Alcotest.(check (list (list int))) "the tree path keeps the same sets"
    (sets_to_lists kept)
    (sets_to_lists (Whynot.Msr.failure_sets_tree tr root))

(* The SA's [msr] phase span carries the truncations of that SA's
   failure-set computation; a run that truncates nothing carries none. *)
let test_capped_span () =
  let phi, _ = bits_question 8 in
  let before = counter "msr.failure_sets.capped" in
  let rp = Whynot.Pipeline.explain phi in
  let delta = counter "msr.failure_sets.capped" - before in
  let sa_msr sp =
    Obs.Span.find_all (fun s -> Obs.Span.name s = "msr")
      (List.find (fun s -> Obs.Span.name s = "sa:S1") (Obs.Span.children sp))
  in
  (match sa_msr rp.Whynot.Pipeline.span with
  | [ msp ] ->
    Alcotest.(check bool) "the run truncated" true (delta > 0);
    Alcotest.(check (option int)) "capped = this SA's truncations" (Some delta)
      (match Obs.Span.attr msp "capped" with
      | Some (Obs.Span.Int n) -> Some n
      | _ -> None)
  | l -> Alcotest.failf "expected one SA msr span, got %d" (List.length l));
  let re =
    Whynot.Pipeline.explain (Whynot.Question.make ~query ~db ~missing)
  in
  List.iter
    (fun msp ->
      Alcotest.(check bool) "no capped attribute without truncation" true
        (Obs.Span.attr msp "capped" = None))
    (sa_msr re.Whynot.Pipeline.span)

(* A query of more than 63 operators does not fit a bitmask: 70 chained
   selections over one row, of which exactly one fails.  It explains to
   that selection through the tree path, and the fallback is counted. *)
let test_tree_fallback () =
  let n = 70 and failing = 41 in
  let schema = Vtype.relation [ ("a", Vtype.TInt) ] in
  let db =
    Relation.Db.of_list
      [ ("r", Relation.of_tuples ~schema [ Value.Tuple [ ("a", Value.Int 1) ] ]) ]
  in
  let g = Query.Gen.create () in
  let failing_id = ref (-1) in
  let query =
    List.fold_left
      (fun q k ->
        let v = if k = failing then 2 else 1 in
        let q = Query.select g (Expr.Cmp (Expr.Eq, Expr.attr "a", Expr.int v)) q in
        if k = failing then failing_id := q.Query.id;
        q)
      (Query.table g "r") (List.init n Fun.id)
  in
  Alcotest.(check bool) "more than 63 operators" true
    (List.length (Query.operators query) > 63);
  let missing = Nip.tup [ ("a", Nip.int 1) ] in
  let before = counter "msr.failure_sets.tree_fallback" in
  let rp = Whynot.Pipeline.explain (Whynot.Question.make ~query ~db ~missing) in
  Alcotest.(check (list (list int))) "explains to the failing selection"
    [ [ !failing_id ] ]
    (Whynot.Pipeline.explanation_sets rp);
  Alcotest.(check bool) "fallback counted" true
    (counter "msr.failure_sets.tree_fallback" > before)

(* The bitmask families against the tree oracle: at every rid of every
   registry scenario's SA traces at scale 1, exact and sampled at stride
   3, the converted masks must equal the trees. *)
let test_masks_match_trees () =
  let checked = ref 0 in
  List.iter
    (fun (s : Scenarios.Scenario.t) ->
      let inst = s.Scenarios.Scenario.make ~scale:1 () in
      let phi = inst.Scenarios.Scenario.question in
      let db = phi.Whynot.Question.db and q = phi.Whynot.Question.query in
      let env = Whynot.Pipeline.schema_env db in
      let sas =
        Whynot.Alternatives.enumerate ~max_sas:16 ~env q
          inst.Scenarios.Scenario.alternatives
      in
      List.iter
        (fun (sa : Whynot.Alternatives.sa) ->
          let bt =
            Whynot.Backtrace.run ~env sa.Whynot.Alternatives.query
              phi.Whynot.Question.missing
          in
          List.iter
            (fun sample_stride ->
              let tr = Whynot.Tracing.run ~sample_stride ~env db sa bt in
              let masks = Whynot.Msr.failure_sets tr
              and trees = Whynot.Msr.failure_sets_tree tr in
              let rid_end =
                List.fold_left
                  (fun acc ot ->
                    max acc (Whynot.Tracing.rid0 ot + Whynot.Tracing.n_rows ot))
                  0 tr.Whynot.Tracing.ops
              in
              for rid = 0 to rid_end - 1 do
                if not (Set_set.equal (masks rid) (trees rid)) then
                  Alcotest.failf "%s SA %d stride %d rid %d: masks %a, trees %a"
                    s.Scenarios.Scenario.name sa.Whynot.Alternatives.index
                    sample_stride rid
                    Fmt.(Dump.list (Dump.list int))
                    (sets_to_lists (masks rid))
                    Fmt.(Dump.list (Dump.list int))
                    (sets_to_lists (trees rid));
                incr checked
              done)
            [ 1; 3 ])
        sas)
    Scenarios.Registry.all;
  Alcotest.(check bool) "rids compared" true (!checked > 0)

let () =
  Alcotest.run "msr"
    [
      ( "failure-sets",
        [
          Alcotest.test_case "running example" `Quick test_failure_sets_running_example;
          Alcotest.test_case "contributing closure" `Quick test_contributing_closure;
          Alcotest.test_case "cap truncation counted" `Quick test_cap_counted;
          Alcotest.test_case "capped on the msr span" `Quick test_capped_span;
          Alcotest.test_case "tree fallback past 63 operators" `Quick
            test_tree_fallback;
          Alcotest.test_case "masks match trees on every scenario" `Quick
            test_masks_match_trees;
        ] );
      ( "algorithm-4",
        [
          Alcotest.test_case "superset of failure sets" `Quick
            test_algorithm4_superset_of_failure_sets;
          Alcotest.test_case "never blames tables" `Quick
            test_algorithm4_never_blames_tables;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "side-effect bounds" `Quick test_bounds;
          Alcotest.test_case "from_trace" `Quick test_from_trace_explanations;
        ] );
    ]
