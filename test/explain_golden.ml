(* Pinned explanation goldens.

   Prints, for every registry scenario at scale 1, a digest of the
   query result ⟦Q⟧_D and the exact ranked explanations of an exact and
   of a stride-3 sampled run: operator sets, side-effect bounds,
   schema-alternative index and confidence, in ranking order.  The
   output is diffed against [explain_golden.expected] by [dune runtest];
   a deliberate change to the explanations is accepted with
   [dune promote].  Bounds are pinned as the pipeline emits them. *)

let render (q : Nrab.Query.t) (rp : Whynot.Pipeline.result) =
  List.iter
    (fun (e : Whynot.Explanation.t) ->
      Fmt.pr "  %s lb=%d ub=%d sa=%d conf=%s@."
        (Whynot.Explanation.to_string_with_query q e)
        e.Whynot.Explanation.side_effect_lb e.Whynot.Explanation.side_effect_ub
        e.Whynot.Explanation.sa
        (match e.Whynot.Explanation.confidence with
        | None -> "-"
        | Some c -> Fmt.str "%.4f" c))
    rp.Whynot.Pipeline.explanations

let golden (s : Scenarios.Scenario.t) =
  let inst = s.Scenarios.Scenario.make ~scale:1 () in
  let phi = inst.Scenarios.Scenario.question in
  let q = phi.Whynot.Question.query in
  let rel, _ = Engine.Exec.run phi.Whynot.Question.db q in
  Fmt.pr "== %s@." s.Scenarios.Scenario.name;
  Fmt.pr "result: %d rows, digest %s@."
    (Nested.Relation.cardinal rel)
    (Digest.to_hex (Digest.string (Fmt.str "%a" Nested.Relation.pp rel)));
  let explain ?approx () =
    Whynot.Pipeline.explain ?approx
      ~alternatives:inst.Scenarios.Scenario.alternatives phi
  in
  Fmt.pr "exact:@.";
  render q (explain ());
  Fmt.pr "sampled (stride 3):@.";
  render q
    (explain
       ~approx:
         (Whynot.Approx.start
            { Whynot.Approx.exact with Whynot.Approx.sample_stride = Some 3 })
       ())

let () = List.iter golden Scenarios.Registry.all
