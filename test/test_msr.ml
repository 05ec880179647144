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
  let fs = Whynot.Msr.failure_sets tr in
  let original_result =
    Relation.tuples (Eval.eval db query)
  in
  let bi = { Whynot.Msr.original_result } in
  let lb, ub = Whynot.Msr.bounds ~bi ~q:query tr fs (Int_set.singleton 3) in
  (* the explanation contains a selection, so LB must be 0 (§5.4) *)
  Alcotest.(check int) "LB = 0 for selections" 0 lb;
  Alcotest.(check bool) "UB counts potential additions" true (ub >= 1)

let test_from_trace_explanations () =
  let tr = trace0 () in
  let bi = { Whynot.Msr.original_result = Relation.tuples (Eval.eval db query) } in
  let expls = Whynot.Msr.from_trace ~bi ~q:query tr in
  Alcotest.(check (list (list int))) "SA0 contributes {σ}" [ [ 3 ] ]
    (List.sort compare (List.map Whynot.Explanation.op_list expls))

(* Seven selections over all 2^7 bit rows, grouped into one nested row:
   each member's failure set is the set of selections its bits fail, so
   the group row has 128 alternatives — past [max_alternatives] — and the
   truncation must show on the [msr.failure_sets.capped] counter. *)
let test_cap_counted () =
  let bits = List.init 7 (fun i -> Fmt.str "b%d" i) in
  let schema =
    Vtype.relation
      (("k", Vtype.TInt) :: List.map (fun b -> (b, Vtype.TInt)) bits)
  in
  let rows =
    List.init 128 (fun r ->
        Value.Tuple
          (("k", Value.Int 0)
          :: List.mapi (fun i b -> (b, Value.Int ((r lsr i) land 1))) bits))
  in
  let db = Relation.Db.of_list [ ("bits", Relation.of_tuples ~schema rows) ] in
  let env = [ ("bits", schema) ] in
  let g = Query.Gen.create () in
  let q =
    Query.nest_rel g bits ~into:"bs"
      (List.fold_left
         (fun q b -> Query.select g (Expr.Cmp (Expr.Eq, Expr.attr b, Expr.int 1)) q)
         (Query.table g "bits") bits)
  in
  let sa =
    {
      Whynot.Alternatives.index = 0;
      query = q;
      changed_ops = Int_set.empty;
      description = "original";
    }
  in
  let missing = Nip.tup [ ("k", Nip.int 0); ("bs", Nip.some_element) ] in
  let bt = Whynot.Backtrace.run ~env q missing in
  let tr = Whynot.Tracing.run ~env db sa bt in
  let capped () =
    Obs.Metrics.Counter.value (Obs.Metrics.counter "msr.failure_sets.capped")
  in
  let before = capped () in
  let fs = Whynot.Msr.failure_sets tr in
  let widest =
    List.fold_left
      (fun acc rid -> max acc (Set_set.cardinal (fs rid)))
      0
      (Whynot.Msr.consistent_root_rids tr)
  in
  Alcotest.(check int) "the group row kept the cap" Whynot.Msr.max_alternatives
    widest;
  Alcotest.(check bool) "truncation counted" true (capped () > before)

let () =
  Alcotest.run "msr"
    [
      ( "failure-sets",
        [
          Alcotest.test_case "running example" `Quick test_failure_sets_running_example;
          Alcotest.test_case "contributing closure" `Quick test_contributing_closure;
          Alcotest.test_case "cap truncation counted" `Quick test_cap_counted;
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
