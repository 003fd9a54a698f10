(** Legal sequential witnesses.

    A sequential history equivalent to [h] is represented by a
    permutation of all m-operation identifiers (the initializer first).
    [h] is admissible w.r.t. a relation iff such a permutation exists
    that is a linear extension of the relation and is legal with the
    same reads-from relation (paper, Section 2.2 and D 4.7). *)

type witness = Types.mop_id array

let is_permutation h (order : witness) =
  let n = History.n_mops h in
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      if i < 0 || i >= n || seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    order

(** Check that placing the m-operations of [h] in [order] yields a
    legal sequential history with the same reads-from relation: every
    external read of every m-operation must read from the last
    preceding (final) writer of that object, and that writer must be
    the one named by [h]'s reads-from edges. *)
let legal_and_equivalent h (order : witness) =
  if not (is_permutation h order) then false
  else begin
    let last_writer = Array.make (History.n_objects h) Types.init_mop in
    let ok = ref true in
    Array.iter
      (fun id ->
        let m = History.mop h id in
        if !ok && id <> Types.init_mop then
          List.iter
            (fun (x, _v) ->
              match
                List.find_opt
                  (fun (e : History.rf_edge) -> e.History.obj = x)
                  (History.rf_of_reader h id)
              with
              | None -> ok := false
              | Some e -> if last_writer.(x) <> e.History.writer then ok := false)
            (Mop.external_reads m);
        if !ok then
          List.iter (fun (x, _) -> last_writer.(x) <- id) (Mop.final_writes m))
      order;
    !ok
  end

(** Full admissibility-witness check: permutation, linear extension of
    [rel] (the relation the sequential history must respect), legality
    and equivalence. *)
let validate h rel (order : witness) =
  is_permutation h order
  && Relation.respects rel order
  && legal_and_equivalent h order

let pp ppf (order : witness) =
  Fmt.pf ppf "@[<h>%a@]"
    (Fmt.array ~sep:(Fmt.any " < ") (fun ppf i -> Fmt.pf ppf "#%d" i))
    order
