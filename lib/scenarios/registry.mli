(** All evaluation scenarios: D1–D5 (DBLP), T1–T4 and TASD (Twitter),
    Q1/Q3/Q4/Q6/Q10/Q13 nested and flat (…F suffix, TPC-H), C1–C3
    (crime), and F1/F2 (forestry — queries compiled from the SQL-ish
    surface syntax). *)

val all : Scenario.t list

(** Case-insensitive lookup by scenario name. *)
val find : string -> Scenario.t option

(** The alternative groups of Fig. 11's SA sweep: for Q3, its own groups
    widened with the lineitem-date and order-priority families (12
    schema alternatives); for every other scenario, its own groups. *)
val widened_alternatives :
  string -> Scenario.instance -> Whynot.Alternatives.alternatives
