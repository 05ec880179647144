(* Approximate MSR computation (Section 5.4, Algorithm 4).

   Algorithm 4 walks the operators top-down and extends partial SRs with
   every operator op_j whose trace contains a tuple that is valid,
   consistent, NOT retained, and in the lineage of a consistent output
   tuple.  We compute the same SR sets per derivation instead of per
   existential check: for every consistent row of the root trace, the
   *failure sets* of its derivations — the sets of operators at which an
   ancestor row has retained = false — are exactly the operator sets that
   must be reparameterized for that row to materialize.  The SR prefix
   imposed by the schema alternative is then added, side-effect bounds are
   estimated as in Section 5.4, and explanations are pruned and ranked
   under the partial order of Definition 9. *)

open Nested
module Int_set = Opset.Int_set
module Set_set = Opset.Set_set

(* Cap on alternative failure sets tracked per row; beyond it the smallest
   sets are kept (they lead to the minimal explanations).  Every
   truncation is counted on [msr.failure_sets.capped], so a cap that may
   have dropped an explanation is visible. *)
let max_alternatives = 64
let m_capped = Obs.Metrics.counter "msr.failure_sets.capped"

let cap_sets (sets : Set_set.t) : Set_set.t =
  if Set_set.cardinal sets <= max_alternatives then sets
  else
    let () = Obs.Metrics.Counter.incr m_capped in
    let sorted =
      List.sort
        (fun a b -> compare (Int_set.cardinal a) (Int_set.cardinal b))
        (Set_set.elements sets)
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    Set_set.of_list (take max_alternatives sorted)

(* Dense rid → owning operator map: rids are contiguous per operator, so
   one array lookup replaces the per-row hash index (and reads the
   annotation vectors directly — no per-row trees are forced). *)
let rid_owners (tr : Tracing.t) : Tracing.op_trace option array =
  let total =
    List.fold_left
      (fun acc ot -> max acc (Tracing.rid0 ot + Tracing.n_rows ot))
      0 tr.Tracing.ops
  in
  let owner = Array.make total None in
  List.iter
    (fun (ot : Tracing.op_trace) ->
      let r0 = Tracing.rid0 ot in
      for i = 0 to Tracing.n_rows ot - 1 do
        owner.(r0 + i) <- Some ot
      done)
    tr.Tracing.ops;
  owner

(* All alternative failure sets of a row's derivations. *)
let failure_sets (tr : Tracing.t) : int -> Set_set.t =
  let owner = rid_owners tr in
  let owner_of rid =
    if rid >= 0 && rid < Array.length owner then owner.(rid) else None
  in
  let memo = Hashtbl.create 256 in
  (* Parameter-free operators (Table 2) cannot be reparameterized; a row
     they fail to retain has no derivation under any reparameterization
     (its failure-set is the empty set of alternatives, ⊥). *)
  let reparameterizable (node : Nrab.Query.node) =
    match node with
    | Nrab.Query.Table _ | Nrab.Query.Union | Nrab.Query.Diff
    | Nrab.Query.Dedup | Nrab.Query.Product ->
      false
    | _ -> true
  in
  let rec fs (rid : int) : Set_set.t =
    match Hashtbl.find_opt memo rid with
    | Some s -> s
    | None ->
      Hashtbl.replace memo rid (Set_set.singleton Int_set.empty)
      (* cycle guard; traces are acyclic so this is never observed *);
      let result =
        match owner_of rid with
        | None -> Set_set.singleton Int_set.empty
        | Some ot
          when (not (Tracing.retained_at ot (rid - Tracing.rid0 ot)))
               && not (reparameterizable ot.Tracing.op_node) ->
          Set_set.empty
        | Some ot ->
          let i = rid - Tracing.rid0 ot in
          let parents = Tracing.parents_at ot i in
          let own =
            if Tracing.retained_at ot i then Int_set.empty
            else Int_set.singleton ot.Tracing.op_id
          in
          let combine_parents (parents : int list) : Set_set.t =
            (* cross-product union over parents (joins have two) *)
            List.fold_left
              (fun acc pid ->
                let psets = fs pid in
                cap_sets
                  (Set_set.fold
                     (fun a acc' ->
                       Set_set.fold
                         (fun b acc'' -> Set_set.add (Int_set.union a b) acc'')
                         psets acc')
                     acc Set_set.empty))
              (Set_set.singleton Int_set.empty)
              parents
          in
          let base =
            match ot.Tracing.op_node with
            | Nrab.Query.Nest_rel _ | Nrab.Query.Group_agg _
            | Nrab.Query.Dedup | Nrab.Query.Agg_tuple _ ->
              (* group-style operators: each (preferably consistent) member
                 derivation is an alternative way to influence the row *)
              let members =
                List.filter (fun pid -> Option.is_some (owner_of pid)) parents
              in
              let pid_consistent pid =
                match owner_of pid with
                | Some pot ->
                  Tracing.consistent_at pot (pid - Tracing.rid0 pot)
                | None -> false
              in
              let preferred =
                match List.filter pid_consistent members with
                | [] -> members
                | cs -> cs
              in
              let alternatives =
                List.fold_left
                  (fun acc pid -> Set_set.union acc (fs pid))
                  Set_set.empty preferred
              in
              (* all member derivations dead ⇒ this row is dead too,
                 unless it genuinely has no parents *)
              if Set_set.is_empty alternatives then
                if parents = [] then Set_set.singleton Int_set.empty
                else Set_set.empty
              else cap_sets alternatives
            | _ -> combine_parents parents
          in
          cap_sets (Set_set.map (fun s -> Int_set.union s own) base)
      in
      Hashtbl.replace memo rid result;
      result
  in
  fs

(* The root operator's trace, and its consistent rows (the candidate
   missing answers) by rid — flag-vector reads, no tree reconstruction. *)
let root_ot (tr : Tracing.t) : Tracing.op_trace option =
  Tracing.op_trace tr tr.Tracing.root_op

let consistent_root_rids (tr : Tracing.t) : int list =
  match root_ot tr with
  | None -> []
  | Some ot ->
    let r0 = Tracing.rid0 ot in
    List.filter_map
      (fun i -> if Tracing.consistent_at ot i then Some (r0 + i) else None)
      (List.init (Tracing.n_rows ot) Fun.id)

(* --- Side-effect bounds (Section 5.4) ----------------------------------- *)

type bounds_input = {
  original_result : Value.t list;  (* tuples of ⟦Q⟧_D, expanded *)
}

let contains_filtering_op (q : Nrab.Query.t) (ops : Int_set.t) : bool =
  Int_set.exists
    (fun id ->
      match Nrab.Query.find_op q id with
      | Some op -> (
        match op.Nrab.Query.node with
        | Nrab.Query.Select _ | Nrab.Query.Join _ -> true
        | _ -> false)
      | None -> false)
    ops

(* Candidate-independent part of the bounds computation, hoisted so one
   sweep over the root rows serves every candidate of a trace: the
   surviving(-and-matching) counts are the same for all candidates, and
   only the non-surviving rows' failure sets feed the per-candidate
   UB(Δ+) scan. *)
type bounds_ctx = {
  cq : Nrab.Query.t;
  original_count : int;
  stride : int;
      (* 1 = exact sweep; s > 1 = every s-th root row (by global rid)
         was examined and the counts below are scaled-up estimates *)
  n_surviving : int;
  ub_minus : int;
      (* UB(Δ−): original tuples whose presence is not witnessed
         unchanged — a floor shared by every candidate's upper bound *)
  nonsurviving : Set_set.t array;
      (* failure sets of each (sampled) non-surviving root row *)
}

let bounds_ctx ?(sample_stride = 1) ~(bi : bounds_input)
    ~(q : Nrab.Query.t) (tr : Tracing.t) (fs : int -> Set_set.t) : bounds_ctx
    =
  let stride = max 1 sample_stride in
  let original_count = List.length bi.original_result in
  (* Bucket the original result by structural hash so each root row is
     compared against at most its hash-colliding candidates. *)
  let orig_tbl : (int, Value.t list ref) Hashtbl.t =
    Hashtbl.create (original_count + 7)
  in
  List.iter
    (fun v ->
      let h = Engine.Columnar.value_hash v in
      match Hashtbl.find_opt orig_tbl h with
      | Some l -> l := v :: !l
      | None -> Hashtbl.add orig_tbl h (ref [ v ]))
    bi.original_result;
  let in_original data =
    match Hashtbl.find_opt orig_tbl (Engine.Columnar.value_hash data) with
    | None -> false
    | Some l -> List.exists (Value.equal data) !l
  in
  (* Flag-vector sweep over the root rows; trees are reconstructed only
     for the surviving rows that must be matched against the original
     result.  With a stride, only every s-th row (keyed on the global
     rid, like the tracing sampler, so the sample is deterministic)
     is examined — this sweep dominates MSR time on large inputs, and
     the counts scale back up into unbiased estimates. *)
  let n_surviving_matching = ref 0
  and n_surviving_ = ref 0
  and nonsurv = ref [] in
  (match root_ot tr with
  | None -> ()
  | Some ot ->
    let r0 = Tracing.rid0 ot in
    for i = 0 to Tracing.n_rows ot - 1 do
      if (r0 + i) mod stride = 0 then
        if Tracing.surviving_at ot i then begin
          incr n_surviving_;
          if in_original (Tracing.data_at ot i) then incr n_surviving_matching
        end
        else nonsurv := fs (r0 + i) :: !nonsurv
    done);
  {
    cq = q;
    original_count;
    stride;
    n_surviving = stride * !n_surviving_;
    ub_minus = max 0 (original_count - (stride * !n_surviving_matching));
    nonsurviving = Array.of_list (List.rev !nonsurv);
  }

let bounds_with (ctx : bounds_ctx) (expl_ops : Int_set.t) : int * int =
  (* UB(Δ+): rows that may newly appear when the explanation's operators
     are reparameterized (scaled back up when the sweep was sampled) *)
  let ub_plus =
    ctx.stride
    * Array.fold_left
        (fun acc sets ->
          if Set_set.exists (fun s -> Int_set.subset s expl_ops) sets then
            acc + 1
          else acc)
        0 ctx.nonsurviving
  in
  let lb =
    if contains_filtering_op ctx.cq expl_ops then 0
    else max 0 (ctx.n_surviving - ctx.original_count) + ctx.ub_minus
  in
  (lb, ub_plus + ctx.ub_minus)

let bounds ~(bi : bounds_input) ~(q : Nrab.Query.t) (tr : Tracing.t)
    (fs : int -> Set_set.t) (expl_ops : Int_set.t) : int * int =
  bounds_with (bounds_ctx ~bi ~q tr fs) expl_ops

(* --- Literal Algorithm 4 (queue-based) ----------------------------------

   The paper's pseudocode walks the linearized operator list top-down with
   a queue of partial SRs and *existential* per-operator conditions.  The
   failure-set computation above refines these conditions per derivation;
   Algorithm 4's candidate sets are a superset of the failure-set ones
   (tested), at the price of more false candidates when different rows
   witness the extend/skip conditions. *)

(* The rows (by rid) that contribute to a consistent root row — the "lineage
   of a consistent output tuple" of Algorithm 4, computed as the ancestor
   closure over parent edges. *)
let contributing (tr : Tracing.t) : (int, unit) Hashtbl.t =
  let owner = rid_owners tr in
  let marked = Hashtbl.create 256 in
  let rec mark rid =
    if not (Hashtbl.mem marked rid) then begin
      Hashtbl.replace marked rid ();
      if rid >= 0 && rid < Array.length owner then
        match owner.(rid) with
        | Some ot ->
          List.iter mark (Tracing.parents_at ot (rid - Tracing.rid0 ot))
        | None -> ()
    end
  in
  List.iter mark (consistent_root_rids tr);
  marked

let algorithm4 (tr : Tracing.t) : Set_set.t =
  let contrib = contributing tr in
  let prefix = tr.Tracing.sa.Alternatives.changed_ops in
  (* linearized operator list, root first (top-down) *)
  let ops = List.rev tr.Tracing.ops in
  let conditions (ot : Tracing.op_trace) =
    let r0 = Tracing.rid0 ot in
    let extend = ref false and skip = ref false in
    for i = 0 to Tracing.n_rows ot - 1 do
      if Hashtbl.mem contrib (r0 + i) && Tracing.consistent_at ot i then
        if Tracing.retained_at ot i then skip := true else extend := true
    done;
    (!extend, !skip)
  in
  let reparameterizable (ot : Tracing.op_trace) =
    match ot.Tracing.op_node with
    | Nrab.Query.Table _ | Nrab.Query.Dedup | Nrab.Query.Union
    | Nrab.Query.Diff | Nrab.Query.Product ->
      false
    | _ -> true
  in
  let results = ref Set_set.empty in
  let add sr = if not (Int_set.is_empty sr) then results := Set_set.add sr !results in
  (* queue elements: remaining operator list × current partial SR *)
  let queue = Queue.create () in
  Queue.add (ops, prefix) queue;
  (* visited guard: (number of remaining ops, SR) *)
  let seen = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | [], sr -> add sr
    | ot :: rest, sr ->
      let key = (List.length rest, Int_set.elements sr) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let extend, skip = conditions ot in
        let extend = extend && reparameterizable ot in
        if extend then begin
          let extended = Int_set.add ot.Tracing.op_id sr in
          add extended;
          Queue.add (rest, extended) queue
        end;
        if skip then begin
          add sr;
          Queue.add (rest, sr) queue
        end;
        if (not extend) && not skip then
          (* no consistent contributing tuple at this operator at all:
             continue with the unchanged SR (nothing to decide here) *)
          Queue.add (rest, sr) queue
      end
  done;
  !results

(* --- Explanation assembly ------------------------------------------------ *)

(* Candidate operator sets of one trace: the failure sets of every
   consistent root row, each unioned with the SA's SR prefix, minus the
   empty set (which would mean the answer is not missing at all). *)
let candidate_sets (tr : Tracing.t) (fs : int -> Set_set.t) : Set_set.t =
  let prefix = tr.Tracing.sa.Alternatives.changed_ops in
  let sets =
    List.fold_left
      (fun acc rid ->
        Set_set.fold
          (fun s acc -> Set_set.add (Int_set.union prefix s) acc)
          (fs rid) acc)
      Set_set.empty (consistent_root_rids tr)
  in
  Set_set.remove Int_set.empty sets

(* Explanations contributed by one schema alternative's trace.  The
   stride samples only the bounds sweep: the candidate operator sets come
   from the consistent root rows' failure sets either way, so a sampled
   run finds the same explanations with estimated side-effect bounds. *)
let from_trace ?sample_stride ~(bi : bounds_input) ~(q : Nrab.Query.t)
    (tr : Tracing.t) : Explanation.t list =
  let fs = failure_sets tr in
  let ctx = bounds_ctx ?sample_stride ~bi ~q tr fs in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  List.map
    (fun ops ->
      let lb, ub = bounds_with ctx ops in
      Explanation.make ~sa:sa_index ~lb ~ub ops)
    (Set_set.elements (candidate_sets tr fs))

(* Early-terminating top-k variant.  Candidates are evaluated in the
   dominant order of [Explanation.rank] — (cardinality, elements) — and
   the walk stops once k already-evaluated explanations *provably* rank
   ahead of every candidate still open.  The proof obligation uses two
   facts: candidates still open have cardinality ≥ the next candidate's
   (sorted order), and every candidate's upper bound is ≥ [ctx.ub_minus]
   (UB(Δ−) is candidate-independent).  So a kept explanation beats all
   open candidates when its cardinality is strictly smaller, or equal
   with a side-effect UB strictly below that shared floor.  Returns the
   evaluated explanations (a superset of the true top k, still to be
   pruned/ranked across SAs) and the number of candidates skipped. *)
let from_trace_topk ?sample_stride ~(bi : bounds_input) ~(q : Nrab.Query.t)
    ~(k : int) (tr : Tracing.t) : Explanation.t list * int =
  let fs = failure_sets tr in
  let ctx = bounds_ctx ?sample_stride ~bi ~q tr fs in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  let k = max 1 k in
  let candidates =
    List.sort
      (fun a b ->
        let c = compare (Int_set.cardinal a) (Int_set.cardinal b) in
        if c <> 0 then c
        else compare (Int_set.elements a) (Int_set.elements b))
      (Set_set.elements (candidate_sets tr fs))
  in
  let beats_open ~open_card (e : Explanation.t) =
    let ec = Int_set.cardinal e.Explanation.ops in
    ec < open_card
    || (ec = open_card && e.Explanation.side_effect_ub < ctx.ub_minus)
  in
  let kept = ref [] and n_kept = ref 0 and skipped = ref 0 in
  let rec go = function
    | [] -> ()
    | ops :: rest ->
      let open_card = Int_set.cardinal ops in
      let winners =
        if !n_kept < k then 0
        else
          List.fold_left
            (fun acc e -> if beats_open ~open_card e then acc + 1 else acc)
            0 !kept
      in
      if winners >= k then skipped := 1 + List.length rest
      else begin
        let lb, ub = bounds_with ctx ops in
        kept := Explanation.make ~sa:sa_index ~lb ~ub ops :: !kept;
        incr n_kept;
        go rest
      end
  in
  go candidates;
  (List.rev !kept, !skipped)
