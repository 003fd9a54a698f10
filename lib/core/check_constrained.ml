(** Polynomial-time admissibility checking under execution constraints
    (paper, Theorem 7).

    For a history under the OO- or WW-constraint, admissibility is
    equivalent to legality; a witness is obtained by extending the
    relation [~H+ = (~H ∪ ~rw)+] (D 4.12) to any total order
    (Lemmas 3–5).  Everything here is polynomial in the history size,
    in contrast with {!Admissible.search}.

    Two pipelines decide the same verdicts.  {!check_chain} works on
    per-process chains and a sparse edge list and serves the
    verification paths.  The dense one ({!check_relation},
    {!check_closed}, {!Incremental}) is the reference oracle and is
    single-pass: the base relation is closed exactly once (acyclicity
    read off the closure's diagonal) and the interference triples are
    computed once and shared between the legality scan and the [~rw]
    extension. *)

type result =
  | Admissible of Sequential.witness
  | Not_legal of Legality.triple  (** legality violated, hence not admissible *)
  | Constraint_violated  (** the history is not under the given constraint *)
  | Cyclic  (** [~H] itself is not an irreflexive partial order *)
  | Extended_cyclic
      (** [(~H ∪ ~rw)+] is cyclic — impossible under OO/WW for a legal
          history (Lemmas 3 and 4); reported for WO or misuse *)

let pp_result ppf = function
  | Admissible w -> Fmt.pf ppf "admissible: %a" Sequential.pp w
  | Not_legal t -> Fmt.pf ppf "not legal: %a" Legality.pp_triple t
  | Constraint_violated -> Fmt.string ppf "constraint violated"
  | Cyclic -> Fmt.string ppf "~H cyclic"
  | Extended_cyclic -> Fmt.string ppf "extended relation cyclic"

(** [check_closed h closed kind] — like {!check_relation} but over an
    already transitively closed relation (a cyclic [~H] shows up as
    reflexive entries of the closure).  This is the entry point for
    callers that maintain the closure themselves, e.g. incrementally
    via {!Relation.add_edge_closed} as a trace grows. *)
exception Violation of Legality.triple

let check_closed h closed kind =
  if not (Relation.is_irreflexive closed) then Cyclic
  else if not (Constraints.satisfies h closed kind) then Constraint_violated
  else begin
    (* One pass over the interference triples decides legality (D 4.6)
       and collects the [~rw] edges (D 4.11) not already implied: each
       triple (a, b, c) with [b ~H c] either violates legality
       ([c ~H a]) or forces [a ~rw c]. *)
    let triples = Legality.interfering_triples h in
    match
      let fresh = ref [] in
      List.iter
        (fun (t : Legality.triple) ->
          if Relation.mem closed t.Legality.beta t.Legality.gamma then begin
            if Relation.mem closed t.Legality.gamma t.Legality.alpha then
              raise (Violation t);
            if not (Relation.mem closed t.Legality.alpha t.Legality.gamma) then
              fresh := (t.Legality.alpha, t.Legality.gamma) :: !fresh
          end)
        triples;
      !fresh
    with
    | exception Violation t -> Not_legal t
    | fresh ->
      let ext = Relation.closure_with closed fresh in
      (* [ext] is transitively closed, so the witness order is read
         off row cardinalities instead of a Kahn sort.  Witness
         validity (Theorem 7 / Lemma 5) is exercised by the test
         suite's [Sequential.validate] properties, not re-checked on
         every call. *)
      match Relation.topo_sort_closed ext with
      | None -> Extended_cyclic
      | Some order -> Admissible order
  end

(** [check_relation h base kind] — decide admissibility of [h] with
    respect to the (not necessarily closed) relation [base], assuming
    it executes under constraint [kind].  The constraint is verified,
    not trusted.  Used directly when the synchronization order (e.g.
    the atomic-broadcast order) is supplied as extra edges beyond a
    standard flavour. *)
let check_relation h base kind =
  check_closed h (Relation.transitive_closure base) kind

(** [check h flavour kind] — {!check_relation} over the base relation
    of the given consistency condition. *)
let check h flavour kind =
  check_relation h (History.base_relation h flavour) kind

(* --- chain-decomposed check --------------------------------------------

   Process order is part of [~H], so the initializer plus one chain per
   process cover every m-operation.  A sparse edge list with the same
   transitive closure as the dense base relation, a topological order
   and one frontier vector per node ([reach.(a).(c)] = least chain-[c]
   index reachable from [a]) then answer every [~H] query the pipeline
   asks in O(1): [a ~H b] iff [idx b >= reach.(a).(chain b)].  Under
   WW, OO or WO the writers of an object form a chain, so legality and
   [~rw] need only the next writer after each reads-from source
   (DESIGN.md §9 gives the argument). *)

let check_chain ?arena h ~flavour ~extra kind =
  let n = History.n_mops h and nx = History.n_objects h in
  let mops = History.mops h in
  (* Working tables come from the arena's scratch lists when one is
     given (they may be longer than asked for) and all go back at the
     end. *)
  let taken = ref [] in
  let scratch len =
    match arena with
    | None -> Array.make len 0
    | Some a ->
      let w = Relation.Arena.scratch a len in
      taken := w :: !taken;
      w
  in
  (* Deduplicated objects per m-operation in compressed rows:
     [start.(v) .. start.(v+1) - 1] of [objs]. *)
  let object_rows keep =
    let start = scratch (n + 1) and seen = scratch nx in
    Array.fill seen 0 nx (-1);
    let count = ref 0 in
    let pass f =
      Array.iter
        (fun (m : Mop.t) ->
          List.iter
            (fun op ->
              let x = Op.obj op in
              if keep op && seen.(x) <> m.Mop.id then begin
                seen.(x) <- m.Mop.id;
                f m.Mop.id x
              end)
            m.Mop.ops)
        mops
    in
    Array.fill start 0 (n + 1) 0;
    pass (fun v _ ->
        start.(v + 1) <- start.(v + 1) + 1;
        incr count);
    for v = 1 to n do
      start.(v) <- start.(v) + start.(v - 1)
    done;
    let objs = scratch !count and fill = scratch n in
    Array.blit start 0 fill 0 n;
    Array.fill seen 0 nx (-1);
    pass (fun v x ->
        objs.(fill.(v)) <- x;
        fill.(v) <- fill.(v) + 1);
    (start, objs)
  in
  let wstart, wobjs = object_rows Op.is_write in
  let touched = lazy (object_rows (fun _ -> true)) in
  (* Chains: the initializer's, then one per process in order of first
     appearance.  [memb] lists each chain's members (ids) contiguously
     from [cstart.(c)], in invocation order; [idx] is the position in
     the chain. *)
  let chain = scratch n and idx = scratch n in
  let chain_of_proc = Hashtbl.create 8 in
  Array.iter
    (fun (m : Mop.t) ->
      chain.(m.Mop.id) <-
        (match Hashtbl.find_opt chain_of_proc m.Mop.proc with
        | Some c -> c
        | None ->
          let c = Hashtbl.length chain_of_proc in
          Hashtbl.add chain_of_proc m.Mop.proc c;
          c))
    mops;
  let nc = Hashtbl.length chain_of_proc in
  let cstart = Array.make (nc + 1) 0 in
  for v = 0 to n - 1 do
    cstart.(chain.(v) + 1) <- cstart.(chain.(v) + 1) + 1
  done;
  for c = 1 to nc do
    cstart.(c) <- cstart.(c) + cstart.(c - 1)
  done;
  let memb = scratch n and cfill = Array.sub cstart 0 nc in
  for v = 0 to n - 1 do
    let c = chain.(v) in
    memb.(cfill.(c)) <- v;
    cfill.(c) <- cfill.(c) + 1
  done;
  for c = 0 to nc - 1 do
    let s = cstart.(c) and len = cstart.(c + 1) - cstart.(c) in
    let sorted = ref true in
    for k = s + 1 to s + len - 1 do
      if mops.(memb.(k - 1)).Mop.inv > mops.(memb.(k)).Mop.inv then
        sorted := false
    done;
    if not !sorted then begin
      let seg = Array.sub memb s len in
      Array.stable_sort
        (fun i j -> Int.compare mops.(i).Mop.inv mops.(j).Mop.inv)
        seg;
      Array.blit seg 0 memb s len
    end;
    for k = s to s + len - 1 do
      idx.(memb.(k)) <- k - s
    done
  done;
  (* Object order (m-normality) needs, per (chain, object), the
     chain's ops touching the object in chain order. *)
  let touching =
    match flavour with
    | History.Mnorm ->
      let ostart, oobjs = Lazy.force touched in
      let t = Array.make (nc * nx) [] in
      for k = n - 1 downto 0 do
        let v = memb.(k) in
        for r = ostart.(v) to ostart.(v + 1) - 1 do
          let cx = (chain.(v) * nx) + oobjs.(r) in
          t.(cx) <- v :: t.(cx)
        done
      done;
      Array.map Array.of_list t
    | History.Msc | History.Mlin -> [||]
  in
  (* Sparse edges: initializer to chain heads, process order,
     reads-from, the caller's extras and the flavour's order reduced
     to its latest source per chain. *)
  let base_edges f =
    for c = 0 to nc - 1 do
      let s = cstart.(c) in
      if memb.(s) <> Types.init_mop then f Types.init_mop memb.(s);
      for k = s + 1 to cstart.(c + 1) - 1 do
        f memb.(k - 1) memb.(k)
      done
    done;
    List.iter
      (fun (e : History.rf_edge) -> f e.History.writer e.History.reader)
      (History.rf h);
    List.iter (fun (a, b) -> f a b) extra;
    match flavour with
    | History.Msc -> ()
    | History.Mlin ->
      (* Responses grow along a chain, so the ops of chain [c] that
         respond before [b] invokes form a prefix whose last element
         stands for all of it; invocations grow along [b]'s chain too,
         so one forward pointer per chain pair finds it, and a source
         already linked to an earlier op of [b]'s chain is implied. *)
      for cb = 0 to nc - 1 do
        for c = 0 to nc - 1 do
          if c <> cb then begin
            let p = ref (cstart.(c) - 1) and last = ref (-1) in
            for k = cstart.(cb) to cstart.(cb + 1) - 1 do
              let b = memb.(k) in
              while
                !p + 1 < cstart.(c + 1)
                && mops.(memb.(!p + 1)).Mop.resp < mops.(b).Mop.inv
              do
                incr p
              done;
              if !p >= cstart.(c) && !p > !last then begin
                f memb.(!p) b;
                last := !p
              end
            done
          end
        done
      done
    | History.Mnorm ->
      (* The same reduction per (chain, object): the latest op of
         chain [c] touching [x] that responds before [b] invokes. *)
      Array.iter
        (fun (b : Mop.t) ->
          List.iter
            (fun x ->
              for c = 0 to nc - 1 do
                if c <> chain.(b.Mop.id) then begin
                  let cs = touching.((c * nx) + x) in
                  let lo = ref 0 and hi = ref (Array.length cs) in
                  while !lo < !hi do
                    let mid = (!lo + !hi) / 2 in
                    if mops.(cs.(mid)).Mop.resp < b.Mop.inv then lo := mid + 1
                    else hi := mid
                  done;
                  if !lo > 0 then f cs.(!lo - 1) b.Mop.id
                end
              done)
            (Mop.objects b))
        mops
  in
  let g = Digraph.of_iter ?arena n base_edges in
  let verdict =
    match Digraph.topo_sort ?arena g with
    | None -> Cyclic
    | Some order ->
      (* Frontier vectors in reverse topological order, O((n + e) . C). *)
      let reach = scratch (n * nc) in
      Array.fill reach 0 (n * nc) max_int;
      for k = n - 1 downto 0 do
        let ra = order.(k) * nc in
        for r = g.Digraph.off.(order.(k)) to g.Digraph.off.(order.(k) + 1) - 1 do
          let s = g.Digraph.dst.(r) in
          let rs = s * nc in
          for c = 0 to nc - 1 do
            let v = Array.unsafe_get reach (rs + c) in
            if v < Array.unsafe_get reach (ra + c) then
              Array.unsafe_set reach (ra + c) v
          done;
          let c = ra + chain.(s) in
          if idx.(s) < reach.(c) then reach.(c) <- idx.(s)
        done
      done;
      let prec a b = idx.(b) >= reach.((a * nc) + chain.(b)) in
      (* Constraints, verified against the topological order: a set is
         totally ordered iff each member precedes its successor in the
         order. *)
      let constrained =
        match kind with
        | Constraints.WW ->
          let last = ref (-1) and ok = ref true in
          Array.iter
            (fun v ->
              if !ok && wstart.(v + 1) > wstart.(v) then begin
                if !last >= 0 && not (prec !last v) then ok := false;
                last := v
              end)
            order;
          !ok
        | Constraints.WO ->
          let last = Array.make nx (-1) and ok = ref true in
          Array.iter
            (fun v ->
              for r = wstart.(v) to wstart.(v + 1) - 1 do
                let x = wobjs.(r) in
                if last.(x) >= 0 && not (prec last.(x) v) then ok := false;
                last.(x) <- v
              done)
            order;
          !ok
        | Constraints.OO ->
          (* Each accessor after the last writer before it and before
             the first writer after it; writers are accessors, so the
             writers of an object form a chain too. *)
          let ostart, oobjs = Lazy.force touched in
          let near = Array.make nx (-1) and ok = ref true in
          let visit ordered v =
            for r = ostart.(v) to ostart.(v + 1) - 1 do
              let w = near.(oobjs.(r)) in
              if w >= 0 && not (ordered w v) then ok := false
            done;
            for r = wstart.(v) to wstart.(v + 1) - 1 do
              near.(wobjs.(r)) <- v
            done
          in
          for k = 0 to n - 1 do
            visit prec order.(k)
          done;
          Array.fill near 0 nx (-1);
          for k = n - 1 downto 0 do
            visit (fun w a -> prec a w) order.(k)
          done;
          !ok
      in
      if not constrained then Constraint_violated
      else begin
        (* Writers of each object in topological (= chain) order:
           [xw.(xstart.(x)) ..]. *)
        let pos = scratch n in
        Array.iteri (fun k v -> pos.(v) <- k) order;
        let xstart = Array.make (nx + 1) 0 in
        for r = 0 to wstart.(n) - 1 do
          xstart.(wobjs.(r) + 1) <- xstart.(wobjs.(r) + 1) + 1
        done;
        for x = 1 to nx do
          xstart.(x) <- xstart.(x) + xstart.(x - 1)
        done;
        let xw = scratch wstart.(n) and fill = Array.sub xstart 0 nx in
        Array.iter
          (fun v ->
            for r = wstart.(v) to wstart.(v + 1) - 1 do
              let x = wobjs.(r) in
              xw.(fill.(x)) <- v;
              fill.(x) <- fill.(x) + 1
            done)
          order;
        let next_writer x b =
          let lo = ref xstart.(x) and hi = ref xstart.(x + 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if pos.(xw.(mid)) <= pos.(b) then lo := mid + 1 else hi := mid
          done;
          if !lo < xstart.(x + 1) then xw.(!lo) else -1
        in
        (* Next-writer lemma: for [b --x--> a] every writer of [x] after
           [b] is [c = succ_x b] or follows it, so [c] alone decides
           legality ([c ~H a]) and the one [~rw] edge [a -> c]. *)
        match
          List.fold_left
            (fun rw (e : History.rf_edge) ->
              let a = e.History.reader and b = e.History.writer in
              let c = next_writer e.History.obj b in
              if c < 0 || c = a then rw
              else if prec c a then
                raise
                  (Violation
                     { Legality.alpha = a; beta = b; gamma = c; obj = e.History.obj })
              else if prec a c then rw
              else (a, c) :: rw)
            [] (History.rf h)
        with
        | exception Violation t -> Not_legal t
        | [] -> Admissible order
        | rw -> (
          let g' =
            Digraph.of_iter ?arena n (fun f ->
                base_edges f;
                List.iter (fun (a, c) -> f a c) rw)
          in
          let witness = Digraph.topo_sort ?arena g' in
          Digraph.release ?arena g';
          match witness with
          | None -> Extended_cyclic
          | Some w -> Admissible w)
      end
  in
  Digraph.release ?arena g;
  Option.iter (fun a -> List.iter (Relation.Arena.release a) !taken) arena;
  verdict

(** Incrementally closed relation for checking a growing trace: edges
    stream in (process order, reads-from, synchronization order...) as
    m-operations complete, the transitive closure is maintained per
    edge in O(n^2/63) word operations ({!Relation.add_edge_closed}),
    and {!Incremental.check} runs the Theorem-7 pipeline on the
    maintained closure without ever re-closing from scratch. *)
module Incremental = struct
  type t = { closed : Relation.t }

  let create n = { closed = Relation.create n }

  let add_edge t i j = Relation.add_edge_closed t.closed i j

  let add_edges t edges = List.iter (fun (i, j) -> add_edge t i j) edges

  (** The maintained transitive closure (shared, not a copy). *)
  let relation t = t.closed

  let is_acyclic t = Relation.is_irreflexive t.closed

  let check t h kind = check_closed h t.closed kind
end
