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
   truncation is counted on [msr.failure_sets.capped] and on the
   caller's per-trace count, so a cap that may have dropped an
   explanation is visible. *)
let max_alternatives = 64
let m_capped = Obs.Metrics.counter "msr.failure_sets.capped"
let m_tree_fallback = Obs.Metrics.counter "msr.failure_sets.tree_fallback"

let note_capped capped =
  Obs.Metrics.Counter.incr m_capped;
  incr capped

(* Parameter-free operators (Table 2) cannot be reparameterized; a row
   they fail to retain has no derivation under any reparameterization
   (its failure-set is the empty set of alternatives, ⊥). *)
let reparameterizable (node : Nrab.Query.node) =
  match node with
  | Nrab.Query.Table _ | Nrab.Query.Union | Nrab.Query.Diff
  | Nrab.Query.Dedup | Nrab.Query.Product ->
    false
  | _ -> true

(* Group-style operators: each (preferably consistent) member derivation
   is an alternative way to influence the row. *)
let is_group (node : Nrab.Query.node) =
  match node with
  | Nrab.Query.Nest_rel _ | Nrab.Query.Group_agg _ | Nrab.Query.Dedup
  | Nrab.Query.Agg_tuple _ ->
    true
  | _ -> false

(* Rid → operator index, -1 where no operator owns the rid.  Rids are
   contiguous per operator, so a binary search over the blocks' starts
   finds the owner without a per-row table. *)
let rid_owner (ops : Tracing.op_trace array) : int -> int =
  let start j = Tracing.rid0 ops.(j) in
  let stop j = start j + Tracing.n_rows ops.(j) in
  let order = Array.init (Array.length ops) Fun.id in
  (* an empty block sorts before a nonempty one at the same start *)
  Array.sort (fun a b -> compare (start a, stop a) (start b, stop b)) order;
  let starts = Array.map start order and stops = Array.map stop order in
  fun rid ->
    let lo = ref 0 and hi = ref (Array.length starts) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if starts.(mid) <= rid then lo := mid + 1 else hi := mid
    done;
    let k = !lo - 1 in
    if k >= 0 && rid < stops.(k) then order.(k) else -1

(* --- Failure sets as trees ----------------------------------------------

   The reference implementation: families as [Set_set] of [Int_set],
   memoized by rid.  It is the only path for traces of more than
   [Sys.int_size] operators, whose sets do not fit an [int] bitmask, and
   the oracle the bitmask path below is tested against. *)

let cap_sets ~capped (sets : Set_set.t) : Set_set.t =
  if Set_set.cardinal sets <= max_alternatives then sets
  else
    let () = note_capped capped in
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

let tree_families ~capped (tr : Tracing.t) : int -> Set_set.t =
  let ops = Array.of_list tr.Tracing.ops in
  let owner = rid_owner ops in
  let owner_of rid =
    let j = owner rid in
    if j >= 0 then Some ops.(j) else None
  in
  let cap_sets = cap_sets ~capped in
  let memo = Hashtbl.create 256 in
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
            if is_group ot.Tracing.op_node then begin
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
            end
            else combine_parents parents
          in
          cap_sets (Set_set.map (fun s -> Int_set.union s own) base)
      in
      Hashtbl.replace memo rid result;
      result
  in
  fs

let failure_sets_tree (tr : Tracing.t) : int -> Set_set.t =
  tree_families ~capped:(ref 0) tr

(* --- Failure sets as bitmasks -------------------------------------------

   With at most [Sys.int_size] operators, an operator set is an [int]:
   bit k is the k-th operator of the trace in ascending op-id order, and
   "s ⊆ e" is [s land lnot e = 0].  A row's family is a sorted,
   deduplicated [int array], memoized densely by rid and computed on
   demand from the queried rids (a bottom-up pass would also build the
   rows no root row reaches).  The bit order makes [cap_order] agree
   with [cap_sets]' (cardinality, [Int_set.compare]) order, so both
   paths keep the same 64 sets. *)

let popcount x =
  let rec go n x = if x = 0 then n else go (n + 1) (x land (x - 1)) in
  go 0 x

(* For equal cardinality, [Int_set.compare] puts first the set holding
   the lowest element in which the two differ. *)
let cap_order a b =
  let c = compare (popcount a) (popcount b) in
  if c <> 0 || a = b then c
  else
    let d = a lxor b in
    if a land (d land -d) <> 0 then -1 else 1

(* Sort and deduplicate a fresh array of masks into a family. *)
let normalize (a : int array) : int array =
  let n = Array.length a in
  Array.sort Int.compare a;
  let m = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || a.(k) <> a.(!m - 1) then begin
      a.(!m) <- a.(k);
      incr m
    end
  done;
  if !m = n then a else Array.sub a 0 !m

let cap_masks ~capped (fam : int array) : int array =
  if Array.length fam <= max_alternatives then fam
  else begin
    note_capped capped;
    let sorted = Array.copy fam in
    Array.sort cap_order sorted;
    let kept = Array.sub sorted 0 max_alternatives in
    Array.sort Int.compare kept;
    kept
  end

(* A family with [bit] added to each of its sets. *)
let add_bit (fam : int array) (bit : int) : int array =
  normalize (Array.map (fun s -> s lor bit) fam)

(* Cross-product union of two families of at least two sets each. *)
let cross_sets ~capped (a : int array) (b : int array) : int array =
  let la = Array.length a and lb = Array.length b in
  let buf = Array.make (la * lb) 0 in
  for x = 0 to la - 1 do
    for y = 0 to lb - 1 do
      buf.((x * lb) + y) <- a.(x) lor b.(y)
    done
  done;
  cap_masks ~capped (normalize buf)

type masks = {
  ids : int array;  (* bit k → op id, ascending *)
  family : int -> int array;
}

(* Families are interned: the memo maps a rid to a family number, so
   filling it writes plain ints, and the common one-set families are
   shared per mask instead of allocated per row.  Number 0 is ⊥ (no
   alternatives), number 1 is {∅}. *)
let mask_families ~capped (tr : Tracing.t) : masks =
  let ops = Array.of_list tr.Tracing.ops in
  let owner = rid_owner ops in
  let total =
    Array.fold_left
      (fun acc ot -> max acc (Tracing.rid0 ot + Tracing.n_rows ot))
      0 ops
  in
  let ids =
    Array.of_list
      (List.sort_uniq compare
         (List.map (fun ot -> ot.Tracing.op_id) tr.Tracing.ops))
  in
  let bit_of id =
    let rec find k = if ids.(k) = id then 1 lsl k else find (k + 1) in
    find 0
  in
  let bit = Array.map (fun ot -> bit_of ot.Tracing.op_id) ops in
  let reparam = Array.map (fun ot -> reparameterizable ot.Tracing.op_node) ops in
  let group = Array.map (fun ot -> is_group ot.Tracing.op_node) ops in
  let valid pid = owner pid >= 0 in
  let consistent pid =
    let ot = ops.(owner pid) in
    Tracing.consistent_at ot (pid - Tracing.rid0 ot)
  in
  (* the interned families, by number *)
  let table = ref (Array.make 16 [||]) and n_table = ref 0 in
  let add fam =
    if !n_table = Array.length !table then begin
      let grown = Array.make (2 * !n_table) [||] in
      Array.blit !table 0 grown 0 !n_table;
      table := grown
    end;
    !table.(!n_table) <- fam;
    incr n_table;
    !n_table - 1
  in
  let dead = add [||] and only_empty = add [| 0 |] in
  let singletons = Hashtbl.create 16 in
  Hashtbl.replace singletons 0 only_empty;
  let singleton s =
    match Hashtbl.find_opt singletons s with
    | Some f -> f
    | None ->
      let f = add [| s |] in
      Hashtbl.replace singletons s f;
      f
  in
  let intern (fam : int array) : int =
    match fam with [||] -> dead | [| s |] -> singleton s | _ -> add fam
  in
  let fam f = !table.(f) in
  let with_bit f b =
    match fam f with
    | [||] -> f
    | [| s |] -> singleton (s lor b)
    | sets -> intern (add_bit sets b)
  in
  let cross a b =
    if a = dead || b = dead then dead
    else if a = only_empty then b
    else if b = only_empty then a
    else
      match (fam a, fam b) with
      | [| s |], _ -> with_bit b s
      | _, [| s |] -> with_bit a s
      | fa, fb -> intern (cross_sets ~capped fa fb)
  in
  (* memo: 0 = not computed yet, else family number + 1 *)
  let memo = Array.make total 0 in
  let rec family rid =
    if rid < 0 || rid >= total then only_empty
    else
      let m = memo.(rid) in
      if m > 0 then m - 1
      else begin
        (* cycle guard; traces are acyclic so this is never observed *)
        memo.(rid) <- only_empty + 1;
        let f = compute rid in
        memo.(rid) <- f + 1;
        f
      end
  and compute rid =
    let j = owner rid in
    if j < 0 then only_empty
    else
      let ot = ops.(j) in
      let i = rid - Tracing.rid0 ot in
      let retained = Tracing.retained_at ot i in
      if (not retained) && not reparam.(j) then dead
      else
        let parents = ot.Tracing.ann.Tracing.v_parents in
        let base =
          if group.(j) then members parents i else combine parents i
        in
        (* [base] is capped already and adding a bit never grows a
           family, so no further cap applies *)
        if retained then base else with_bit base bit.(j)
  (* cross-product union over parents (joins have two) *)
  and combine parents i =
    match parents with
    | Tracing.P_none -> only_empty
    | Tracing.P_self base -> family (base + i)
    | Tracing.P_one a -> family a.(i)
    | Tracing.P_many (off, flat) ->
      let acc = ref only_empty in
      for k = off.(i) to off.(i + 1) - 1 do
        acc := cross !acc (family flat.(k))
      done;
      !acc
  (* the union of the preferred members' families: the consistent
     members, or all of them when none is; all member derivations dead
     ⇒ this row is dead too, unless it genuinely has no parents *)
  and members parents i =
    match parents with
    | Tracing.P_none -> only_empty
    | Tracing.P_self base -> if valid (base + i) then family (base + i) else dead
    | Tracing.P_one a -> if valid a.(i) then family a.(i) else dead
    | Tracing.P_many (off, flat) ->
      let lo = off.(i) and hi = off.(i + 1) - 1 in
      if hi < lo then only_empty
      else begin
        let any_consistent = ref false and k = ref lo in
        while (not !any_consistent) && !k <= hi do
          let pid = flat.(!k) in
          if valid pid && consistent pid then any_consistent := true;
          incr k
        done;
        (* gather the live families, skipping repeats of the last one *)
        let gathered = ref [] and last = ref dead and distinct = ref 0 in
        for k = lo to hi do
          let pid = flat.(k) in
          if valid pid && ((not !any_consistent) || consistent pid) then begin
            let f = family pid in
            if f <> dead && f <> !last then begin
              gathered := fam f :: !gathered;
              last := f;
              incr distinct
            end
          end
        done;
        match !distinct with
        | 0 -> dead
        | 1 -> !last
        | _ ->
          intern (cap_masks ~capped (normalize (Array.concat !gathered)))
      end
  in
  { ids; family = (fun rid -> fam (family rid)) }

(* --- Selecting the representation ---------------------------------------- *)

(* A trace's failure-set families: bitmasks when its operators fit an
   [int], trees otherwise. *)
type families = Masks of masks | Trees of (int -> Set_set.t)

let families ~capped (tr : Tracing.t) : families =
  if List.length tr.Tracing.ops <= Sys.int_size then
    Masks (mask_families ~capped tr)
  else begin
    Obs.Metrics.Counter.incr m_tree_fallback;
    Trees (tree_families ~capped tr)
  end

let ops_of_mask (ids : int array) (m : int) : Int_set.t =
  let s = ref Int_set.empty in
  Array.iteri (fun k id -> if m land (1 lsl k) <> 0 then s := Int_set.add id !s) ids;
  !s

(* Operators outside the trace have no bit; no failure set holds them. *)
let mask_of_ops (ids : int array) (ops : Int_set.t) : int =
  let m = ref 0 in
  Array.iteri (fun k id -> if Int_set.mem id ops then m := !m lor (1 lsl k)) ids;
  !m

let failure_sets (tr : Tracing.t) : int -> Set_set.t =
  match families ~capped:(ref 0) tr with
  | Trees fs -> fs
  | Masks { ids; family } ->
    fun rid ->
      Array.fold_left
        (fun acc m -> Set_set.add (ops_of_mask ids m) acc)
        Set_set.empty (family rid)

(* The root operator's trace, and its consistent rows (the candidate
   missing answers) by rid — flag-vector reads, no tree reconstruction. *)
let root_ot (tr : Tracing.t) : Tracing.op_trace option =
  Tracing.op_trace tr tr.Tracing.root_op

let consistent_root_rids (tr : Tracing.t) : int list =
  match root_ot tr with
  | None -> []
  | Some ot ->
    let r0 = Tracing.rid0 ot and rids = ref [] in
    for i = Tracing.n_rows ot - 1 downto 0 do
      if Tracing.consistent_at ot i then rids := (r0 + i) :: !rids
    done;
    !rids

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
  covered : Int_set.t -> int;
      (* how many (sampled) non-surviving root rows have a failure set
         within the given operator set *)
}

let bounds_ctx ?(sample_stride = 1) ~(bi : bounds_input)
    ~(q : Nrab.Query.t) (tr : Tracing.t) (fams : families) : bounds_ctx =
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
        else nonsurv := (r0 + i) :: !nonsurv
    done);
  let nonsurviving = Array.of_list (List.rev !nonsurv) in
  let count_rows test rows =
    Array.fold_left (fun acc x -> if test x then acc + 1 else acc) 0 rows
  in
  let covered =
    match fams with
    | Masks { ids; family } ->
      let rows = Array.map family nonsurviving in
      fun ops ->
        let outside = lnot (mask_of_ops ids ops) in
        count_rows (Array.exists (fun s -> s land outside = 0)) rows
    | Trees fs ->
      let rows = Array.map fs nonsurviving in
      fun ops -> count_rows (Set_set.exists (fun s -> Int_set.subset s ops)) rows
  in
  {
    cq = q;
    original_count;
    stride;
    n_surviving = stride * !n_surviving_;
    ub_minus = max 0 (original_count - (stride * !n_surviving_matching));
    covered;
  }

let bounds_with (ctx : bounds_ctx) (expl_ops : Int_set.t) : int * int =
  (* UB(Δ+): rows that may newly appear when the explanation's operators
     are reparameterized (scaled back up when the sweep was sampled) *)
  let ub_plus = ctx.stride * ctx.covered expl_ops in
  let lb =
    if contains_filtering_op ctx.cq expl_ops then 0
    else max 0 (ctx.n_surviving - ctx.original_count) + ctx.ub_minus
  in
  (lb, ub_plus + ctx.ub_minus)

let bounds ~(bi : bounds_input) ~(q : Nrab.Query.t) (tr : Tracing.t)
    (expl_ops : Int_set.t) : int * int =
  bounds_with (bounds_ctx ~bi ~q tr (families ~capped:(ref 0) tr)) expl_ops

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
  let ops = Array.of_list tr.Tracing.ops in
  let owner = rid_owner ops in
  let marked = Hashtbl.create 256 in
  let rec mark rid =
    if not (Hashtbl.mem marked rid) then begin
      Hashtbl.replace marked rid ();
      let j = owner rid in
      if j >= 0 then
        let ot = ops.(j) in
        List.iter mark (Tracing.parents_at ot (rid - Tracing.rid0 ot))
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
        let extend = extend && reparameterizable ot.Tracing.op_node in
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
let candidate_sets (tr : Tracing.t) (fams : families) : Set_set.t =
  let prefix = tr.Tracing.sa.Alternatives.changed_ops in
  let roots = consistent_root_rids tr in
  let sets =
    match fams with
    | Trees fs ->
      List.fold_left
        (fun acc rid ->
          Set_set.fold
            (fun s acc -> Set_set.add (Int_set.union prefix s) acc)
            (fs rid) acc)
        Set_set.empty roots
    | Masks { ids; family } ->
      (* deduplicate as masks; convert only the distinct sets *)
      let masks =
        List.sort_uniq Int.compare
          (List.concat_map (fun rid -> Array.to_list (family rid)) roots)
      in
      List.fold_left
        (fun acc m -> Set_set.add (Int_set.union prefix (ops_of_mask ids m)) acc)
        Set_set.empty masks
  in
  Set_set.remove Int_set.empty sets

(* Explanations contributed by one schema alternative's trace.  The
   stride samples only the bounds sweep: the candidate operator sets come
   from the consistent root rows' failure sets either way, so a sampled
   run finds the same explanations with estimated side-effect bounds. *)
let from_trace ?sample_stride ~(bi : bounds_input) ~(q : Nrab.Query.t)
    ?(capped = ref 0) (tr : Tracing.t) : Explanation.t list =
  let fams = families ~capped tr in
  let ctx = bounds_ctx ?sample_stride ~bi ~q tr fams in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  List.map
    (fun ops ->
      let lb, ub = bounds_with ctx ops in
      Explanation.make ~sa:sa_index ~lb ~ub ops)
    (Set_set.elements (candidate_sets tr fams))

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
    ~(k : int) ?(capped = ref 0) (tr : Tracing.t) : Explanation.t list * int =
  let fams = families ~capped tr in
  let ctx = bounds_ctx ?sample_stride ~bi ~q tr fams in
  let sa_index = tr.Tracing.sa.Alternatives.index in
  let k = max 1 k in
  let candidates =
    List.sort
      (fun a b ->
        let c = compare (Int_set.cardinal a) (Int_set.cardinal b) in
        if c <> 0 then c
        else compare (Int_set.elements a) (Int_set.elements b))
      (Set_set.elements (candidate_sets tr fams))
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
