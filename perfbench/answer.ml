(* Ranked explanations as plain comparable rows: operator ids, SA, LB,
   UB — exactly as the pipeline emits them (an LB above its UB is pinned
   as is, not repaired). *)

open Nested

type row = { ops : int list; sa : int; lb : int; ub : int }

let of_explanation (e : Whynot.Explanation.t) =
  {
    ops = Whynot.Explanation.op_list e;
    sa = e.Whynot.Explanation.sa;
    lb = e.Whynot.Explanation.side_effect_lb;
    ub = e.Whynot.Explanation.side_effect_ub;
  }

let of_explanations = List.map of_explanation

(* The [explanations] array of a served result, via the server's codec. *)
let of_served (result : Json.json) =
  match result with
  | Json.J_object fields -> (
    match List.assoc_opt "explanations" fields with
    | Some j -> of_explanations (Serve.Codec.explanations_of_json j)
    | None -> failwith "served result has no explanations")
  | _ -> failwith "served result is not an object"

let has_gold gold rows =
  List.exists (fun r -> r.ops = List.sort compare gold) rows

let row_to_json r =
  Json.J_object
    [
      ("ops", Json.J_array (List.map (fun i -> Json.J_int i) r.ops));
      ("sa", Json.J_int r.sa);
      ("lb", Json.J_int r.lb);
      ("ub", Json.J_int r.ub);
    ]

let to_json rows = Json.J_array (List.map row_to_json rows)

let int_of = function Json.J_int i -> i | _ -> failwith "expected an int"

let field name = function
  | Json.J_object fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> failwith ("missing field " ^ name))
  | _ -> failwith ("expected an object with field " ^ name)

let of_json = function
  | Json.J_array rows ->
    List.map
      (fun j ->
        {
          ops =
            (match field "ops" j with
            | Json.J_array ids -> List.map int_of ids
            | _ -> failwith "ops is not an array");
          sa = int_of (field "sa" j);
          lb = int_of (field "lb" j);
          ub = int_of (field "ub" j);
        })
      rows
  | _ -> failwith "expected an array of explanations"

let pp_row ppf r =
  Fmt.pf ppf "{%a} SA%d LB=%d UB=%d" Fmt.(list ~sep:comma int) r.ops r.sa r.lb r.ub

let pp = Fmt.(brackets (list ~sep:semi pp_row))

(* A reference that can no longer match any correct answer: the harness
   self-test uses it to prove that a wrong answer is counted. *)
let corrupt = function
  | r :: rest -> { r with ub = r.ub + 1 } :: rest
  | [] -> [ { ops = [ 0 ]; sa = 0; lb = 0; ub = 0 } ]
