(* All evaluation scenarios, keyed by name. *)

let all : Scenario.t list =
  Paper_scenarios.all @ Dblp_scenarios.all @ Twitter_scenarios.all
  @ Tpch_scenarios.all @ Crime_scenarios.all @ Forestry_scenarios.all

let find (name : string) : Scenario.t option =
  List.find_opt
    (fun (s : Scenario.t) ->
      String.equal (String.lowercase_ascii s.Scenario.name)
        (String.lowercase_ascii name))
    all

(* The paper's three TPC-H attribute families for Fig. 11: Q3's own
   discount/tax group plus the three lineitem dates and the two order
   priorities — 2×3×2 = 12 schema alternatives. *)
let widened_alternatives (name : string) (inst : Scenario.instance) =
  match String.uppercase_ascii name with
  | "Q3" ->
    inst.Scenario.alternatives
    @ [
        ( "nested_orders",
          [
            [ "o_lineitems"; "l_commitdate" ];
            [ "o_lineitems"; "l_shipdate" ];
            [ "o_lineitems"; "l_receiptdate" ];
          ] );
        ("nested_orders", [ [ "o_shippriority" ]; [ "o_orderpriority" ] ]);
      ]
  | _ -> inst.Scenario.alternatives
