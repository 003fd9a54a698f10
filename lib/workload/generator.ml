(** Random m-operation generators for the protocol runner. *)

open Mmc_core
open Mmc_sim
open Mmc_store

(** Build a straight-line program from a concrete operation plan. *)
let prog_of_plan plan result =
  List.fold_right
    (fun op rest ->
      match op with
      | `R x -> Prog.Read (x, fun _ -> rest)
      | `W (x, v) -> Prog.Write (x, v, rest))
    plan (Prog.Done result)

(* Every generator builds its tables when partially applied to its
   spec, not per m-operation; each draw is the one a per-call rebuild
   would make. *)

(** Mixed read/write workload per {!Spec.t}. *)
let mixed (spec : Spec.t) =
  let keys = Rng.zipf_table ~n:spec.Spec.n_objects ~s:spec.Spec.skew in
  fun rng ~proc ~step ->
    ignore proc;
    ignore step;
    let len =
      Rng.int_range rng ~lo:spec.Spec.mop_len_lo ~hi:spec.Spec.mop_len_hi
    in
    let query = Rng.bernoulli rng ~p:spec.Spec.read_ratio in
    let pick_obj () = Rng.zipf_draw rng keys in
    if query then begin
      let xs =
        List.init len (fun _ -> pick_obj ()) |> List.sort_uniq compare
      in
      let prog = Prog.read_all xs (fun vs -> Prog.return (Value.List vs)) in
      (* Under conservative classification a read-only procedure whose
         write set is not statically known must be declared as a
         potential update (paper, Section 5) — it then loses the query
         fast path. *)
      let may_write = if spec.Spec.inflate_write_set then xs else [] in
      Prog.mprog ~label:"q" ~may_touch:xs ~may_write prog
    end
    else begin
      let plan =
        List.init len (fun _ ->
            let x = pick_obj () in
            if Rng.bernoulli rng ~p:spec.Spec.write_prob then
              `W (x, Value.Int (Rng.int rng ~bound:spec.Spec.value_range))
            else `R x)
      in
      (* Guarantee at least one write so the classification matches. *)
      let plan =
        if List.exists (function `W _ -> true | `R _ -> false) plan then plan
        else
          `W (pick_obj (), Value.Int (Rng.int rng ~bound:spec.Spec.value_range))
          :: plan
      in
      let touched =
        List.map (function `R x -> x | `W (x, _) -> x) plan
        |> List.sort_uniq compare
      in
      let written =
        List.filter_map (function `W (x, _) -> Some x | `R _ -> None) plan
        |> List.sort_uniq compare
      in
      let may_write =
        if spec.Spec.inflate_write_set then touched else written
      in
      Prog.mprog ~label:"u" ~may_touch:touched ~may_write
        (prog_of_plan plan Value.Unit)
    end

(** Placement-aware mixed workload for the sharded store (see the
    interface). *)
let sharded ?(cross_shard_ratio = 0.) placement (spec : Spec.t) =
  let open Mmc_shard in
  let keys = Rng.zipf_table ~n:spec.Spec.n_objects ~s:spec.Spec.skew in
  let pools =
    Array.init (Placement.n_shards placement) (fun s ->
        Array.of_list (Placement.objects_of placement s))
  in
  (* An empty shard is never picked (see [pick_shard]), so its table is
     a placeholder. *)
  let pool_keys =
    Array.map
      (fun pool ->
        Rng.zipf_table ~n:(max 1 (Array.length pool)) ~s:spec.Spec.skew)
      pools
  in
  fun rng ~proc ~step ->
    ignore proc;
    ignore step;
    let len =
      Rng.int_range rng ~lo:spec.Spec.mop_len_lo ~hi:spec.Spec.mop_len_hi
    in
    let query = Rng.bernoulli rng ~p:spec.Spec.read_ratio in
    (* A Zipf-popular object names the shard, so hot shards are exactly
       the shards of hot objects; pools are never empty this way. *)
    let pick_shard () =
      Placement.shard_of_obj placement (Rng.zipf_draw rng keys)
    in
    let pick_in_shard s = pools.(s).(Rng.zipf_draw rng pool_keys.(s)) in
    let cross =
      len >= 2
      && Placement.n_shards placement > 1
      && Rng.bernoulli rng ~p:cross_shard_ratio
    in
    (* Segments in ascending shard rank: the router executes them in
       plan order, so plan order must be the deterministic shard-rank
       order that keeps cross-shard ticket acquisition consistent. *)
    let shards =
      if not cross then [ (pick_shard (), len) ]
      else begin
        let a = pick_shard () in
        let rec other tries =
          if tries = 0 then a
          else
            let b = pick_shard () in
            if b <> a then b else other (tries - 1)
        in
        let b = other 8 in
        if b = a then [ (a, len) ]
        else begin
          let len_a = 1 + Rng.int rng ~bound:(len - 1) in
          List.sort compare [ (a, len_a); (b, len - len_a) ]
        end
      end
    in
    if query then begin
      let xs =
        List.concat_map
          (fun (s, k) ->
            List.init k (fun _ -> pick_in_shard s) |> List.sort_uniq compare)
          shards
      in
      let touched = List.sort_uniq compare xs in
      let prog = Prog.read_all xs (fun vs -> Prog.return (Value.List vs)) in
      let may_write = if spec.Spec.inflate_write_set then touched else [] in
      Prog.mprog ~label:"q" ~may_touch:touched ~may_write prog
    end
    else begin
      (* Guarantee at least one write per segment: every sub-invocation
         of a cross-shard update is then itself an update on its shard
         (ordered by that shard's broadcast), which is what keeps
         update-only workloads OO-constrained through sharding. *)
      let plan =
        List.concat_map
          (fun (s, k) ->
            let seg =
              List.init k (fun _ ->
                  let x = pick_in_shard s in
                  if Rng.bernoulli rng ~p:spec.Spec.write_prob then
                    `W (x, Value.Int (Rng.int rng ~bound:spec.Spec.value_range))
                  else `R x)
            in
            if List.exists (function `W _ -> true | `R _ -> false) seg then seg
            else
              `W
                ( pick_in_shard s,
                  Value.Int (Rng.int rng ~bound:spec.Spec.value_range) )
              :: seg)
          shards
      in
      let touched =
        List.map (function `R x -> x | `W (x, _) -> x) plan
        |> List.sort_uniq compare
      in
      let written =
        List.filter_map (function `W (x, _) -> Some x | `R _ -> None) plan
        |> List.sort_uniq compare
      in
      let may_write =
        if spec.Spec.inflate_write_set then touched else written
      in
      Prog.mprog ~label:"u" ~may_touch:touched ~may_write
        (prog_of_plan plan Value.Unit)
    end

(* [f proc], computed once for each owner [0 .. n_procs-1]; a caller's
   [proc] outside that range owns nothing and is computed per call. *)
let per_proc ~n_procs f =
  let table = Array.init n_procs f in
  fun proc -> if proc >= 0 && proc < n_procs then table.(proc) else f proc

let owned_array ownership ~n_objects proc =
  Array.of_list
    (Mmc_fastpath.Ownership.owned_objects ownership ~proc ~n_objects)

(** Commuting-ratio counter workload for the [seg] store's fast path
    (see the interface).  Confluent operations are fetch-and-adds on
    counters homed at the invoking process (ownership = global object
    id mod [n_procs], the [seg] store's default); sequenced operations
    are [move]s from an owned counter to a differently-owned one — a
    segment transition that forces a flush barrier. *)
let counter_commute ?(commute_ratio = 0.9) ~n_procs (spec : Spec.t) =
  let n = spec.Spec.n_objects in
  let ownership = Mmc_fastpath.Ownership.modulo ~n_owners:n_procs in
  let owned_by = per_proc ~n_procs (owned_array ownership ~n_objects:n) in
  fun rng ~proc ~step ->
    ignore step;
    let owned = owned_by proc in
    let pick_owned () =
      if Array.length owned = 0 then Rng.int rng ~bound:n
      else owned.(Rng.int rng ~bound:(Array.length owned))
    in
    let pick_foreign near =
      (* A differently-owned counter, preferring one close to [near] (in
         the sharded setting nearby ids tend to share a shard). *)
      let rec go d =
        if d >= n then near
        else
          let x = (near + d) mod n in
          if Mmc_fastpath.Ownership.owner ownership x <> proc then x
          else go (d + 1)
      in
      go (1 + Rng.int rng ~bound:(max 1 (n - 1)))
    in
    if Rng.bernoulli rng ~p:spec.Spec.read_ratio then
      Mmc_objects.Counter.get (pick_owned ())
    else if Rng.bernoulli rng ~p:commute_ratio then
      Mmc_objects.Counter.fetch_and_add (pick_owned ())
        (1 + Rng.int rng ~bound:8)
    else begin
      let src = pick_owned () in
      let dst = pick_foreign src in
      if dst = src then
        Mmc_objects.Counter.fetch_and_add src (1 + Rng.int rng ~bound:8)
      else Mmc_objects.Counter.move ~src ~dst (1 + Rng.int rng ~bound:8)
    end

(** Placement-confined variant of {!counter_commute}: the sequenced
    [move]s pick their differently-owned target on the {e same} shard,
    so escalations exercise the flush barrier rather than the router's
    cross-shard splitting.  Ownership stays global-id mod [n_procs] —
    exactly what {!Mmc_shard.Shard_store} hands each [seg] shard. *)
let sharded_counter_commute ?(commute_ratio = 0.9) ~n_procs placement
    (spec : Spec.t) =
  let open Mmc_shard in
  let n = spec.Spec.n_objects in
  let ownership = Mmc_fastpath.Ownership.modulo ~n_owners:n_procs in
  let owned_by = per_proc ~n_procs (owned_array ownership ~n_objects:n) in
  (* Per process, per shard: the differently-owned objects on that
     shard, ascending; when there are none (shard too small), any
     differently-owned object — the router will split the move. *)
  let targets_by =
    per_proc ~n_procs (fun proc ->
        let foreign xs =
          Array.of_list
            (List.filter
               (fun x -> Mmc_fastpath.Ownership.owner ownership x <> proc)
               xs)
        in
        let anywhere = foreign (List.init n Fun.id) in
        Array.init (Placement.n_shards placement) (fun s ->
            let pool = foreign (Placement.objects_of placement s) in
            if Array.length pool = 0 then anywhere else pool))
  in
  fun rng ~proc ~step ->
    ignore step;
    let owned = owned_by proc in
    let pick_owned () =
      if Array.length owned = 0 then Rng.int rng ~bound:n
      else owned.(Rng.int rng ~bound:(Array.length owned))
    in
    let pick_foreign_same_shard src =
      let pool = (targets_by proc).(Placement.shard_of_obj placement src) in
      if Array.length pool = 0 then src
      else pool.(Rng.int rng ~bound:(Array.length pool))
    in
    if Rng.bernoulli rng ~p:spec.Spec.read_ratio then
      Mmc_objects.Counter.get (pick_owned ())
    else if Rng.bernoulli rng ~p:commute_ratio then
      Mmc_objects.Counter.fetch_and_add (pick_owned ())
        (1 + Rng.int rng ~bound:8)
    else begin
      let src = pick_owned () in
      let dst = pick_foreign_same_shard src in
      if dst = src then
        Mmc_objects.Counter.fetch_and_add src (1 + Rng.int rng ~bound:8)
      else Mmc_objects.Counter.move ~src ~dst (1 + Rng.int rng ~bound:8)
    end

(** DCAS-heavy workload: processes contend with double
    compare-and-swaps over pairs of registers, mixed with snapshots. *)
let dcas_contention (spec : Spec.t) rng ~proc ~step =
  ignore step;
  let n = spec.Spec.n_objects in
  if Rng.bernoulli rng ~p:spec.Spec.read_ratio then
    Mmc_objects.Massign.snapshot
      (List.sort_uniq compare [ Rng.int rng ~bound:n; Rng.int rng ~bound:n ])
  else begin
    let x1 = Rng.int rng ~bound:n in
    let x2 = (x1 + 1 + Rng.int rng ~bound:(n - 1)) mod n in
    (* Blind DCAS against freshly guessed old values; most fail under
       contention, which is the interesting regime. *)
    let guess () = Value.Int (Rng.int rng ~bound:4) in
    Mmc_objects.Dcas.dcas x1 x2 ~old1:(guess ()) ~old2:(guess ())
      ~new1:(Value.Int (100 + proc))
      ~new2:(Value.Int (200 + proc))
  end

(** Bank workload: transfers between random accounts plus audits.  The
    audit invariant (constant total) is what consistency buys. *)
let bank ~initial_balance:_ (spec : Spec.t) rng ~proc ~step =
  ignore proc;
  ignore step;
  let n = spec.Spec.n_objects in
  if Rng.bernoulli rng ~p:spec.Spec.read_ratio then
    Mmc_objects.Bank.audit (List.init n Fun.id)
  else begin
    let from_ = Rng.int rng ~bound:n in
    let to_ = (from_ + 1 + Rng.int rng ~bound:(n - 1)) mod n in
    Mmc_objects.Bank.transfer ~from_ ~to_ (1 + Rng.int rng ~bound:10)
  end
