(** Approximate MSR computation (Section 5.4, Algorithm 4).

    Algorithm 4's per-operator conditions — a tuple that is valid,
    consistent, NOT retained, and in the lineage of a consistent output
    tuple forces the operator into the partial SR — are computed here per
    derivation: the *failure sets* of a consistent root row's derivations
    are exactly the operator sets that must be reparameterized for that
    row to materialize.  The schema alternative's SR prefix is added,
    side-effect bounds are estimated as in Section 5.4, and explanations
    are pruned and ranked under the partial order of Definition 9. *)

open Nested

module Int_set = Opset.Int_set
module Set_set = Opset.Set_set

(** Cap on alternative failure sets tracked per row (smallest kept:
    fewest operators first, ties in {!Int_set.compare} order).  Each
    truncation bumps the [msr.failure_sets.capped] counter of
    {!Obs.Metrics.default}. *)
val max_alternatives : int

(** Memoized failure-set computation over a trace's lineage DAG.  For
    grouping operators, each (preferably consistent) member derivation is
    an alternative way to influence the group's row.

    A trace of at most [Sys.int_size] (63) operators computes its
    families as [int] bitmasks, on demand per rid; the sets returned
    here are converted from them.  A larger trace takes
    {!failure_sets_tree} and bumps [msr.failure_sets.tree_fallback]. *)
val failure_sets : Tracing.t -> int -> Set_set.t

(** The tree implementation of {!failure_sets}: the only path for traces
    of more than 63 operators, and the oracle the bitmask path is tested
    against.  Same results, same cap. *)
val failure_sets_tree : Tracing.t -> int -> Set_set.t

(** Rids of root rows matching the why-not question under the
    relaxation (flag-vector reads; no tree reconstruction). *)
val consistent_root_rids : Tracing.t -> int list

(* --- the literal Algorithm 4 --- *)

(** The rows contributing to a consistent root row (the "lineage of a
    consistent output tuple"), as an ancestor closure. *)
val contributing : Tracing.t -> (int, unit) Hashtbl.t

(** The paper's queue-based Algorithm 4, computing candidate SR operator
    sets with existential per-operator conditions.  Coarser than
    {!failure_sets} (its results are a superset); provided for fidelity
    and comparison. *)
val algorithm4 : Tracing.t -> Set_set.t

type bounds_input = {
  original_result : Value.t list;  (** tuples of ⟦Q⟧_D, expanded *)
}

(** Side-effect bounds (LB, UB) of one explanation per Section 5.4; LB is
    0 for explanations containing selections or joins. *)
val bounds :
  bi:bounds_input ->
  q:Nrab.Query.t ->
  Tracing.t ->
  Int_set.t ->
  int * int

(** Explanations contributed by one schema alternative's trace (not yet
    pruned/ranked across SAs).

    [?sample_stride] (default 1 = exact) samples the side-effect bounds
    sweep: only every s-th root row — keyed on the global rid, exactly
    like {!Tracing.run}'s sampler, so the sample is deterministic —
    is examined, and the counts are scaled back up into unbiased
    estimates.  Candidate operator sets always come from the consistent
    root rows' failure sets, so a sampled run finds the {e same}
    explanations with {e estimated} LB/UB bounds.

    [?capped] is incremented once per failure-set truncation in this
    trace (see {!max_alternatives}). *)
val from_trace :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  ?capped:int ref ->
  Tracing.t ->
  Explanation.t list

(** Early-terminating top-k variant of {!from_trace}: candidates are
    evaluated in {!Explanation.rank}'s dominant order (cardinality, then
    elements) and the walk stops once [k] evaluated explanations provably
    rank ahead of every open candidate — strictly smaller cardinality, or
    equal cardinality with a side-effect upper bound strictly below
    UB(Δ−), the candidate-independent floor every open candidate's UB
    shares.  Returns the evaluated explanations (a superset of the true
    per-SA top [k], still to be pruned/ranked across SAs) and the number
    of candidates skipped unevaluated.  With [k] ≥ the number of
    candidates the result equals {!from_trace}'s exactly.
    [?sample_stride] and [?capped] are as in {!from_trace}. *)
val from_trace_topk :
  ?sample_stride:int ->
  bi:bounds_input ->
  q:Nrab.Query.t ->
  k:int ->
  ?capped:int ref ->
  Tracing.t ->
  Explanation.t list * int
