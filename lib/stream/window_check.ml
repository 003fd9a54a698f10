(** Windowed streaming Theorem-7 checker.

    The full-trace checker ({!Mmc_store.Runner.check_history}) holds
    the whole history at once.  Here the trace is checked in
    {e epochs}: completed m-operations accumulate in a window; when
    the window fills, an epoch history is built — the live
    m-operations plus one synthetic {e summary} m-operation standing
    for everything already retired — and checked with the
    chain-decomposed constrained checker.  After a passing check, the
    longest prefix of the window that is provably closed off from the
    future is retired: its writes fold into per-object frontiers
    (version + value) and its bookkeeping is dropped; the check's
    tables came from the arena and went back to it.  Resident state
    is O(window + objects).

    Retirement is sound — the summary only asserts [~H]-paths that are
    real in the full trace — because a prefix is retired only when
    (DESIGN.md §14 gives the argument in full):

    - {b rf-closure}: every reads-from writer of a prefix entry is in
      the prefix or already retired;
    - {b broadcast contiguity}: the prefix's synchronization positions
      are exactly the next contiguous block of the total order, so the
      summary can head the window's sync chain;
    - {b version horizons}: for every object, all versions below the
      new frontier — the current frontier included, even at version 0
      — are superseded, past the settle grace, and have no reader
      outside the prefix; a straggler read of a pre-frontier version
      is answered [Inconclusive], never checked wrongly.

    No real-time condition is needed even for m-linearizability /
    m-normality: feed order makes live-to-retired edges impossible, so
    the summary's over-asserted rt/object edges into the window cannot
    close a cycle, and its legality triples are real via the
    synchronization order. *)

open Mmc_core

type rref = Version of int | Gid of int

type entry = {
  proc : Types.proc_id;
  inv : Types.time;
  resp : Types.time;
  ops : Op.t list;
  reads : (Types.obj_id * rref) list;
  writes : (Types.obj_id * int * Value.t) list;
  sync : int option;
}

type verdict =
  | Pass
  | Fail of { prefix : int; reason : string }
  | Inconclusive of string

type metrics = {
  fed : int;
  pending : int;
  live : int;
  max_live : int;
  checks : int;
  retired : int;
  frontier_objects : int;
  resident_words : int;
  max_resident_words : int;
  recycled_words : int;
  arena_hits : int;
  arena_misses : int;
}

(* A fed, unretired writer of one version of one object. *)
type wstate = {
  w_gid : int;
  w_feed : int;  (* 0-based global feed index *)
  w_ver : int;
  w_value : Value.t;
  w_resp : Types.time;
  mutable last_reader : int;  (* max feed index of a resolved reader; -1 *)
  mutable succ_resp : int;
      (* min response time among fed writers of later versions of the
         same object; [max_int] until one arrives.  Once the settle
         grace after it has passed, no straggler should still read
         this version. *)
}

type ostate = {
  mutable frontier_ver : int;  (* 0 = initial value *)
  mutable frontier_gid : int;  (* 0 = initializer *)
  mutable frontier_value : Value.t;
  mutable frontier_last_reader : int;
  mutable frontier_succ_resp : int;
  mutable touched_retired : bool;
  by_ver : (int, wstate) Hashtbl.t;
}

type src = S_frontier | S_w of wstate

type live_e = {
  l : entry;
  feed : int;
  resolved : (Types.obj_id * src) array;
  rf_bound : int;  (* max feed index over S_w writers; -1 *)
}

type pending_e = { p : entry; p_feed : int }

type t = {
  flavour : History.flavour;
  n_objects : int;
  window : int;
  settle : int;
  arena : Relation.Arena.arena;
  objs : ostate array;
  (* Retirement's candidate frontier u(x) for the prefix under test:
     the highest version the prefix writes and its writer, [u_ver.(x) =
     0] where it writes none.  The objects it sets are [u_objs.(0 ..
     u_n-1)]; resets go through them, and put [no_writer] back so that
     u holds no retired writer. *)
  u_ver : int array;
  u_w : wstate array;
  u_objs : int array;
  mutable u_n : int;
  wr_gid : (int * int, wstate) Hashtbl.t;  (* (gid, obj) -> writer *)
  proc_retired : (int, unit) Hashtbl.t;
  pending : pending_e Queue.t;
  mutable n_pending : int;
  mutable live_rev : live_e list;
  mutable n_live : int;
  mutable fed : int;  (* gids are 1 .. fed in feed order *)
  mutable base : int;  (* retired count: gids 1 .. base are retired *)
  mutable next_pos : int;  (* next sync position to retire *)
  mutable inv_floor : int;  (* last fed invocation time *)
  mutable max_proc : int;
  mutable check_floor : int;  (* skip checks until the window regrows *)
  mutable verdict : verdict;
  mutable checks : int;
  mutable max_live : int;
  mutable resident_words : int;
  mutable max_resident_words : int;
  mutable recycled_words : int;
}

let default_window = 256
let default_settle = 512

(* Placeholder in [u_w] where the prefix writes no version. *)
let no_writer =
  {
    w_gid = 0;
    w_feed = -1;
    w_ver = 0;
    w_value = Value.initial;
    w_resp = 0;
    last_reader = -1;
    succ_resp = max_int;
  }

let create ?arena ?(window = default_window) ?(settle = default_settle)
    ~flavour ~n_objects () =
  if window < 1 then invalid_arg "Window_check.create: window must be >= 1";
  if settle < 0 then invalid_arg "Window_check.create: negative settle";
  if n_objects < 1 then invalid_arg "Window_check.create: no objects";
  let arena =
    match arena with Some a -> a | None -> Relation.Arena.create ()
  in
  {
    flavour;
    n_objects;
    window;
    settle;
    arena;
    objs =
      Array.init n_objects (fun _ ->
          {
            frontier_ver = 0;
            frontier_gid = 0;
            frontier_value = Value.initial;
            frontier_last_reader = -1;
            frontier_succ_resp = max_int;
            touched_retired = false;
            by_ver = Hashtbl.create 8;
          });
    u_ver = Array.make n_objects 0;
    u_w = Array.make n_objects no_writer;
    u_objs = Array.make n_objects 0;
    u_n = 0;
    wr_gid = Hashtbl.create 64;
    proc_retired = Hashtbl.create 8;
    pending = Queue.create ();
    n_pending = 0;
    live_rev = [];
    n_live = 0;
    fed = 0;
    base = 0;
    next_pos = 0;
    inv_floor = min_int;
    max_proc = -1;
    check_floor = 0;
    verdict = Pass;
    checks = 0;
    max_live = 0;
    resident_words = 0;
    max_resident_words = 0;
    recycled_words = 0;
  }

let is_pass t = match t.verdict with Pass -> true | _ -> false
let inconclusive t fmt = Fmt.kstr (fun s -> t.verdict <- Inconclusive s) fmt

(* --- read resolution --------------------------------------------------- *)

type rsl = R_frontier | R_w of wstate | R_unfed | R_bad of string

let resolve t x rf =
  if x < 0 || x >= t.n_objects then R_bad (Fmt.str "object x%d out of range" x)
  else
    let ost = t.objs.(x) in
    match rf with
    | Version 0 | Gid 0 ->
      (* A read of the initial value resolves against the frontier: as
         long as no write of x has retired it is the frontier (rf goes
         to the initializer), and the horizon rule keeps it that way
         while such a reader is live — the summary must never write an
         object a live reader still reads the initial value of, or the
         collapse would assert a retired-writer-before-reader ordering
         the full trace does not have. *)
      if ost.frontier_ver = 0 then R_frontier
      else
        R_bad
          (Fmt.str
             "read of x%d initial value behind the retired frontier (%d)" x
             ost.frontier_ver)
    | Version v when v < 0 -> R_bad (Fmt.str "negative version of x%d" x)
    | Version v ->
      if v < ost.frontier_ver then
        R_bad
          (Fmt.str
             "read of x%d version %d behind the retired frontier (%d)" x v
             ost.frontier_ver)
      else if v = ost.frontier_ver then R_frontier
      else (
        match Hashtbl.find_opt ost.by_ver v with
        | Some w -> R_w w
        | None -> R_unfed)
    | Gid g when g < 0 -> R_bad (Fmt.str "negative writer id for x%d" x)
    | Gid g -> (
      match Hashtbl.find_opt t.wr_gid (g, x) with
      | Some w -> R_w w
      | None ->
        if g > t.fed then R_unfed
        else if g <= t.base then
          if g = ost.frontier_gid then R_frontier
          else
            R_bad
              (Fmt.str
                 "read of x%d from retired writer #%d behind the frontier" x g)
        else R_bad (Fmt.str "#%d is not a writer of x%d" g x))

(* --- feeding ----------------------------------------------------------- *)

(* Register an entry's final writes the moment it is fed (even while it
   waits in the pending queue), so readers fed earlier can resolve. *)
let register_writes t e gid feed_idx =
  List.iter
    (fun (x, v, value) ->
      if is_pass t then
        if x < 0 || x >= t.n_objects then
          inconclusive t "write to object x%d out of range" x
        else
          let ost = t.objs.(x) in
          if v <= ost.frontier_ver then
            inconclusive t
              "write of x%d version %d at or behind the frontier (%d)" x v
              ost.frontier_ver
          else if Hashtbl.mem ost.by_ver v then
            inconclusive t "two writers of x%d version %d" x v
          else begin
            let w =
              {
                w_gid = gid;
                w_feed = feed_idx;
                w_ver = v;
                w_value = value;
                w_resp = e.resp;
                last_reader = -1;
                succ_resp = max_int;
              }
            in
            (* Supersede relations with the writers already fed. *)
            Hashtbl.iter
              (fun v' (w' : wstate) ->
                if v' < v then w'.succ_resp <- min w'.succ_resp e.resp
                else w.succ_resp <- min w.succ_resp w'.w_resp)
              ost.by_ver;
            ost.frontier_succ_resp <- min ost.frontier_succ_resp e.resp;
            Hashtbl.add ost.by_ver v w;
            Hashtbl.add t.wr_gid (gid, x) w
          end)
    e.writes

(* Move the longest promotable prefix of the pending queue into the
   live window.  A prefix is promotable when every read of every entry
   in it resolves to the initializer, the frontier, or a writer that is
   itself live, retired, or inside the prefix (readers may be fed
   before their writers — a long-running reader completes first). *)
let promote t =
  if is_pass t && not (Queue.is_empty t.pending) then begin
    let reach = ref (-1) in
    let best = ref (-1) in
    (try
       Queue.iter
         (fun pe ->
           List.iter
             (fun (x, rf) ->
               match resolve t x rf with
               | R_frontier -> ()
               | R_w w -> reach := max !reach w.w_feed
               | R_unfed -> raise Exit
               | R_bad msg ->
                 inconclusive t "%s" msg;
                 raise Exit)
             pe.p.reads;
           if !reach <= pe.p_feed then best := pe.p_feed)
         t.pending
     with Exit -> ());
    if is_pass t then
      while
        (not (Queue.is_empty t.pending))
        && (Queue.peek t.pending).p_feed <= !best
      do
        let pe = Queue.pop t.pending in
        t.n_pending <- t.n_pending - 1;
        let rf_bound = ref (-1) in
        let resolved =
          Array.of_list
            (List.map
               (fun (x, rf) ->
                 let src =
                   match resolve t x rf with
                   | R_frontier ->
                     t.objs.(x).frontier_last_reader <-
                       max t.objs.(x).frontier_last_reader pe.p_feed;
                     S_frontier
                   | R_w w ->
                     w.last_reader <- max w.last_reader pe.p_feed;
                     rf_bound := max !rf_bound w.w_feed;
                     S_w w
                   | R_unfed | R_bad _ -> assert false
                 in
                 (x, src))
               pe.p.reads)
        in
        t.live_rev <-
          { l = pe.p; feed = pe.p_feed; resolved; rf_bound = !rf_bound }
          :: t.live_rev;
        t.n_live <- t.n_live + 1;
        if t.n_live > t.max_live then t.max_live <- t.n_live
      done
  end

(* --- retirement -------------------------------------------------------- *)

let retire t (lv : live_e array) =
  let k = Array.length lv in
  (* Prefix aggregates, index e covers lv.(0..e). *)
  let pmax_rf = Array.make k (-1) in
  let scnt = Array.make k 0 in
  let smax = Array.make k (-1) in
  for i = 0 to k - 1 do
    let prev j a = if i = 0 then a else j.(i - 1) in
    pmax_rf.(i) <- max (prev pmax_rf (-1)) lv.(i).rf_bound;
    match lv.(i).l.sync with
    | Some p ->
      scnt.(i) <- prev scnt 0 + 1;
      smax.(i) <- max (prev smax (-1)) p
    | None ->
      scnt.(i) <- prev scnt 0;
      smax.(i) <- prev smax (-1)
  done;
  (* No real-time condition is needed, for any flavour: the summary's
     synthetic interval sits before every live invocation, so its
     rt/object edges to the window over-assert "some retired
     m-operation precedes this one" — harmless, because nothing ever
     points back into the summary (retired-before-live is the only
     direction feed order admits) and every summary-involved legality
     triple is object-local, where the synchronization order makes the
     asserted precedence real.  DESIGN.md §14. *)
  let feasible e =
    pmax_rf.(e) <= t.base + e
    && (scnt.(e) = 0 || smax.(e) = t.next_pos + scnt.(e) - 1)
  in
  let best_under cap =
    let e = ref (min cap (k - 1)) in
    while !e >= 0 && not (feasible !e) do
      decr e
    done;
    !e
  in
  (* Version horizons: the candidate frontier u(x) of the prefix may
     only land when every version below it is superseded past the
     settle grace, with no reader outside the prefix.  A violation
     caps the prefix below u(x)'s writer and we rescan.  u lives in
     [t.u_ver]/[t.u_w]; each round rebuilds it from a reset, and the
     round that returns [e] leaves it built for the fold. *)
  let reset_u () =
    for i = 0 to t.u_n - 1 do
      let x = t.u_objs.(i) in
      t.u_ver.(x) <- 0;
      t.u_w.(x) <- no_writer
    done;
    t.u_n <- 0
  in
  let rec fix e =
    if e < 0 then -1
    else begin
      reset_u ();
      for i = 0 to e do
        List.iter
          (fun (x, v, _) ->
            if v > t.u_ver.(x) then
              match Hashtbl.find_opt t.objs.(x).by_ver v with
              | Some w ->
                if t.u_ver.(x) = 0 then begin
                  t.u_objs.(t.u_n) <- x;
                  t.u_n <- t.u_n + 1
                end;
                t.u_ver.(x) <- v;
                t.u_w.(x) <- w
              | None -> ())
          lv.(i).l.writes
      done;
      let cap = ref e in
      for i = 0 to t.u_n - 1 do
        let x = t.u_objs.(i) in
        let uv = t.u_ver.(x) and uw = t.u_w.(x) in
        let ost = t.objs.(x) in
        let closed succ = succ < max_int && t.inv_floor >= succ + t.settle in
        let ok =
          (* The current frontier — including version 0, the initial
             value — counts as a version below [uv]: it must be
             superseded past the grace with no reader left outside the
             prefix before the frontier may move past it. *)
          closed ost.frontier_succ_resp
          && ost.frontier_last_reader <= t.base + e
          && Hashtbl.fold
               (fun v (w : wstate) acc ->
                 acc
                 && (v >= uv
                    || closed w.succ_resp
                       && w.last_reader <= t.base + e
                       && w.w_feed <= t.base + e))
               ost.by_ver true
        in
        if not ok then cap := min !cap (uw.w_feed - t.base - 1)
      done;
      if !cap >= e then e else fix (best_under !cap)
    end
  in
  let e = fix (best_under (k - 1)) in
  if e >= 0 then begin
    (* Fold the prefix into the frontier state. *)
    for i = 0 to e do
      let le = lv.(i) in
      Hashtbl.replace t.proc_retired le.l.proc ();
      List.iter (fun op -> t.objs.(Op.obj op).touched_retired <- true) le.l.ops;
      List.iter
        (fun (x, v, _) ->
          match Hashtbl.find_opt t.objs.(x).by_ver v with
          | Some w ->
            Hashtbl.remove t.objs.(x).by_ver v;
            Hashtbl.remove t.wr_gid (w.w_gid, x)
          | None -> ())
        le.l.writes
    done;
    for i = 0 to t.u_n - 1 do
      let x = t.u_objs.(i) in
      let uw = t.u_w.(x) in
      let ost = t.objs.(x) in
      ost.frontier_ver <- t.u_ver.(x);
      ost.frontier_gid <- uw.w_gid;
      ost.frontier_value <- uw.w_value;
      ost.frontier_last_reader <- uw.last_reader;
      ost.frontier_succ_resp <- uw.succ_resp
    done;
    t.next_pos <- t.next_pos + scnt.(e);
    t.base <- t.base + e + 1;
    let rest = ref [] in
    for i = e + 1 to k - 1 do
      rest := lv.(i) :: !rest
    done;
    t.live_rev <- !rest;
    t.n_live <- k - e - 1
  end;
  reset_u ()

(* --- epoch check ------------------------------------------------------- *)

let run_check t ~final =
  if is_pass t && t.n_live > 0 then begin
    let lv = Array.of_list (List.rev t.live_rev) in
    let k = Array.length lv in
    let with_summary = t.base > 0 in
    let off = if with_summary then 2 else 1 in
    match
      let summary =
        if not with_summary then None
        else begin
          let t0 = lv.(0).l.inv - 1 in
          let reads =
            match t.flavour with
            | History.Mnorm ->
              (* Stand in for retired touches of objects never written:
                 object order relates reads too. *)
              let acc = ref [] in
              Array.iteri
                (fun x ost ->
                  if ost.touched_retired && ost.frontier_ver = 0 then
                    acc := Op.read x Value.initial :: !acc)
                t.objs;
              List.rev !acc
            | History.Msc | History.Mlin -> []
          in
          let writes =
            let acc = ref [] in
            Array.iteri
              (fun x ost ->
                if ost.frontier_ver > 0 then
                  acc := Op.write x ost.frontier_value :: !acc)
              t.objs;
            List.rev !acc
          in
          Some
            (Mop.make ~id:1 ~proc:(t.max_proc + 1) ~ops:(reads @ writes)
               ~inv:t0 ~resp:t0)
        end
      in
      let mops =
        Array.to_list
          (Array.mapi
             (fun i (le : live_e) ->
               Mop.make ~id:(i + off) ~proc:le.l.proc ~ops:le.l.ops
                 ~inv:le.l.inv ~resp:le.l.resp)
             lv)
      in
      let mops = match summary with Some s -> s :: mops | None -> mops in
      let rf = ref [] in
      (match summary with
      | Some s ->
        List.iter
          (fun (x, _) -> rf := { History.reader = 1; obj = x; writer = 0 } :: !rf)
          (Mop.external_reads s)
      | None -> ());
      Array.iteri
        (fun i (le : live_e) ->
          Array.iter
            (fun (x, src) ->
              let writer =
                match src with
                | S_frontier ->
                  (* An untouched frontier is the initializer itself. *)
                  Some (if t.objs.(x).frontier_ver > 0 then 1 else 0)
                | S_w w ->
                  if w.w_feed >= t.base then Some (off + (w.w_feed - t.base))
                  else if w.w_ver = t.objs.(x).frontier_ver then Some 1
                  else None
              in
              match writer with
              | Some writer ->
                rf := { History.reader = i + off; obj = x; writer } :: !rf
              | None ->
                raise
                  (History.Ill_formed
                     (Fmt.str
                        "read of x%d slipped behind the frontier between \
                         epochs"
                        x)))
            le.resolved)
        lv;
      let h = History.create ~n_objects:t.n_objects mops ~rf:!rf in
      (* Sync chain over the window, headed by the summary when retired
         synchronized m-operations exist. *)
      let chain = ref [] in
      Array.iteri
        (fun i (le : live_e) ->
          match le.l.sync with
          | Some p -> chain := (p, i + off) :: !chain
          | None -> ())
        lv;
      let chain_ids = List.map snd (List.sort compare !chain) in
      let chain_ids =
        if with_summary && t.next_pos > 0 then 1 :: chain_ids else chain_ids
      in
      let extra = ref [] in
      let rec link = function
        | a :: (b :: _ as rest) ->
          extra := (a, b) :: !extra;
          link rest
        | [ _ ] | [] -> ()
      in
      link chain_ids;
      (* Process-order continuation: the summary stands for the retired
         prefix of each process that has one. *)
      if with_summary then begin
        let seen = Hashtbl.create 8 in
        Array.iteri
          (fun i (le : live_e) ->
            if
              Hashtbl.mem t.proc_retired le.l.proc
              && not (Hashtbl.mem seen le.l.proc)
            then begin
              Hashtbl.add seen le.l.proc ();
              extra := (1, i + off) :: !extra
            end)
          lv
      end;
      (* The summary is its own pseudo-process, hence its own chain.
         The check's frontier vectors and sort tables come from the
         arena and go back before it returns: the most it holds at
         once is this epoch's resident footprint, and everything it
         took is recycled. *)
      let taken0 = Relation.Arena.scratch_words t.arena in
      let res, words =
        Relation.Arena.peak_during t.arena (fun () ->
            Check_constrained.check_chain ~arena:t.arena h ~flavour:t.flavour
              ~extra:!extra Constraints.WW)
      in
      t.checks <- t.checks + 1;
      t.resident_words <- words;
      if words > t.max_resident_words then t.max_resident_words <- words;
      t.recycled_words <-
        t.recycled_words + Relation.Arena.scratch_words t.arena - taken0;
      res
    with
    | exception History.Ill_formed msg ->
      inconclusive t "epoch history ill-formed: %s" msg
    | Check_constrained.Admissible _ -> if not final then retire t lv
    | res ->
      t.verdict <-
        Fail
          {
            prefix = t.base + k;
            reason = Fmt.str "%a" Check_constrained.pp_result res;
          }
  end

let rec maybe_check t =
  if is_pass t && t.n_live >= max t.window t.check_floor then begin
    let b0 = t.base in
    run_check t ~final:false;
    if is_pass t then
      if t.base > b0 then begin
        t.check_floor <- 0;
        maybe_check t
      end
      else
        (* Nothing retired (e.g. the settle grace still runs): let the
           window grow another notch before re-checking. *)
        t.check_floor <- t.n_live + t.window
  end

(* --- public ------------------------------------------------------------ *)

let feed t e =
  if is_pass t then begin
    if e.resp < e.inv then
      inconclusive t "entry with resp %d < inv %d" e.resp e.inv
    else if e.inv < t.inv_floor then
      inconclusive t
        "entries fed out of invocation order (inv %d after floor %d)" e.inv
        t.inv_floor
    else if e.writes <> [] && e.sync = None then
      inconclusive t "update without a synchronization position"
    else begin
      t.inv_floor <- e.inv;
      t.fed <- t.fed + 1;
      if e.proc > t.max_proc then t.max_proc <- e.proc;
      (match e.sync with
      | Some p when p < t.next_pos ->
        inconclusive t "synchronization position %d already retired" p
      | _ -> ());
      if is_pass t then begin
        register_writes t e t.fed (t.fed - 1);
        if is_pass t then begin
          Queue.add { p = e; p_feed = t.fed - 1 } t.pending;
          t.n_pending <- t.n_pending + 1;
          promote t;
          maybe_check t
        end
      end
    end
  end

let flush t = run_check t ~final:false

let finish t =
  if is_pass t then begin
    promote t;
    if t.n_pending > 0 then
      inconclusive t
        "%d entr%s still waiting for a reads-from writer that never arrived"
        t.n_pending
        (if t.n_pending = 1 then "y" else "ies")
    else run_check t ~final:true
  end;
  t.verdict

let verdict t = t.verdict

let metrics t =
  let frontier_objects =
    Array.fold_left
      (fun acc ost -> if ost.frontier_ver > 0 then acc + 1 else acc)
      0 t.objs
  in
  {
    fed = t.fed;
    pending = t.n_pending;
    live = t.n_live;
    max_live = t.max_live;
    checks = t.checks;
    retired = t.base;
    frontier_objects;
    resident_words = t.resident_words;
    max_resident_words = t.max_resident_words;
    recycled_words = t.recycled_words;
    arena_hits = Relation.Arena.hits t.arena;
    arena_misses = Relation.Arena.misses t.arena;
  }

(* --- adapters ---------------------------------------------------------- *)

let entry_of_record (r : Mmc_store.Recorder.record) =
  let ns = ref None in
  let see n =
    match !ns with
    | None -> ns := Some n
    | Some n' ->
      if n <> n' then
        invalid_arg
          "Window_check.entry_of_record: record spans version namespaces"
  in
  List.iter (fun (_, _, n) -> see n) r.Mmc_store.Recorder.reads;
  List.iter (fun (_, _, n) -> see n) r.Mmc_store.Recorder.writes;
  let writes =
    List.map
      (fun (x, v, _) ->
        match Op.last_write r.Mmc_store.Recorder.ops x with
        | Some value -> (x, v, value)
        | None ->
          invalid_arg
            (Fmt.str
               "Window_check.entry_of_record: recorded write of x%d without \
                a final write op"
               x))
      r.Mmc_store.Recorder.writes
  in
  {
    proc = r.Mmc_store.Recorder.proc;
    inv = r.Mmc_store.Recorder.inv;
    resp = r.Mmc_store.Recorder.resp;
    ops = r.Mmc_store.Recorder.ops;
    reads = List.map (fun (x, v, _) -> (x, Version v)) r.Mmc_store.Recorder.reads;
    writes;
    sync = r.Mmc_store.Recorder.sync;
  }

let feed_history t h ~sync_order =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) sync_order;
  List.iter
    (fun (m : Mop.t) ->
      let sync = Hashtbl.find_opt pos m.Mop.id in
      let reads =
        List.map
          (fun (e : History.rf_edge) -> (e.History.obj, Gid e.History.writer))
          (History.rf_of_reader h m.Mop.id)
      in
      let writes =
        List.map
          (fun (x, value) ->
            (* Versions must be monotone in apply order: the broadcast
               position (shifted past 0, the initial version) is one. *)
            let v = match sync with Some p -> p + 1 | None -> 0 in
            (x, v, value))
          (Mop.final_writes m)
      in
      feed t
        {
          proc = m.Mop.proc;
          inv = m.Mop.inv;
          resp = m.Mop.resp;
          ops = m.Mop.ops;
          reads;
          writes;
          sync;
        })
    (History.real_mops h)
