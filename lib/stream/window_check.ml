(** Windowed streaming Theorem-7 checker (see window_check.mli).

    The live m-operations of a window, plus one synthetic {e summary}
    m-operation for everything retired, are checked with
    {!Check_constrained.decide_chains} on an input kept in the window's
    own arrays across epochs; each entry is validated against its ops
    once, when fed.  After a passing check the longest prefix provably
    closed off from the future retires into per-object frontiers
    (version + value), only when (DESIGN.md §14 gives the argument):

    - {b rf-closure}: every reads-from writer of the prefix is in it or
      already retired;
    - {b broadcast contiguity}: its synchronization positions are the
      next contiguous block of the total order, so the summary can head
      the window's sync chain;
    - {b version horizons}: every version below the new frontier — the
      current one included, even at version 0 — is superseded past the
      settle grace and read by no one outside the prefix; a straggler
      read of a pre-frontier version is answered [Inconclusive]. *)

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

(* A writer of one version of one object: fed and unretired, or the
   object's frontier. *)
type wstate = {
  w_feed : int;  (* 0-based feed index, -1 for the initializer *)
  w_obj : int;
  w_ver : int;
  w_value : Value.t;
  w_resp : Types.time;
  mutable last_reader : int;  (* max feed index of a resolved reader; -1 *)
}

type ostate = {
  mutable frontier : wstate;  (* version 0: the initializer's *)
  mutable touched_retired : bool;
  mutable vers : wstate array;  (* fed, unretired, by version: [0, n_vers) *)
  mutable n_vers : int;
}

(* A process: its last fed entry, and its chain in the current epoch. *)
type pstate = {
  mutable last : row option;
  mutable epoch : int;  (* last epoch it had a live entry in *)
  mutable chain : int;
  mutable len : int;  (* its entries on [chain] so far *)
}

(* A fed entry, computed from its ops at feed and written into the
   epoch input when promoted.  For each of its external reads, in
   [entry.reads] order: the value read and, once promoted, the
   writer. *)
and row = {
  r_feed : int;  (* its gid is r_feed + 1 *)
  r_proc : pstate;
  r_inv : Types.time;
  r_resp : Types.time;
  r_sync : int;  (* -1: none *)
  r_objs : int array;  (* touched objects, the written ones first *)
  r_reads : (Types.obj_id * rref) list;
  r_rvals : Value.t array;
  r_src : wstate array;
  mutable r_bound : int;  (* max feed index over [r_src]; -1 *)
  r_writes : wstate array;  (* its registered versions, as listed *)
}

type t = {
  flavour : History.flavour;
  n_objects : int;
  window : int;
  settle : int;
  arena : Relation.Arena.arena;
  objs : ostate array;
  (* Retirement's candidate frontier u(x) for the prefix under test:
     the writer of the highest version the prefix writes, [no_writer]
     (version 0) where it writes none.  The objects it sets are
     [u_objs.(0 .. u_n-1)]; resets go through them, so that u holds no
     retired writer. *)
  u_w : wstate array;
  u_objs : int array;
  mutable u_n : int;
  (* [admit]'s per-object scratch, stamped with the entry's gid: x
     written (negated once listed) and the value written last, x's
     first op a read (negated once a read names its writer) and the
     value read; the objects touched, in order. *)
  wrote : int array;
  wval : Value.t array;
  ext : int array;
  ext_val : Value.t array;
  touched : int array;
  procs : pstate Mmc_sim.Int_table.t;
  (* Unretired entries in feed order: rows.(0 .. n_live-1) are live,
     the next n_pending pending; gid g is rows.(g - base - 1). *)
  mutable rows : row array;
  mutable n_live : int;
  mutable n_pending : int;
  (* The epoch input, kept across epochs: node 0 is the initializer,
     node 1 the summary once a prefix has retired, and live slot i is
     node off + i (off = 2, or 1 before the first retirement).  The
     row pool holds the initializer's row, then room for the
     summary's, then the live rows in node order up to [n_objs]. *)
  mutable input : Check_constrained.chains;
  mutable n_objs : int;
  mutable s_feed : int array;  (* live synchronized entries, by position *)
  mutable n_sync : int;
  (* Retirement's prefix aggregates; index e covers live slots 0..e. *)
  mutable pmax_rf : int array;
  mutable scnt : int array;
  mutable smax : int array;
  mutable epoch : int;
  mutable fed : int;  (* gids are 1 .. fed in feed order *)
  mutable base : int;  (* retired count: gids 1 .. base are retired *)
  mutable next_pos : int;  (* next sync position to retire *)
  mutable inv_floor : int;  (* last fed invocation time *)
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

(* The placeholder where no writer is known: in [u_w] where the prefix
   writes no version, and in a row's [r_src] until it is promoted. *)
let no_writer =
  { w_feed = -1; w_obj = -1; w_ver = 0; w_value = Value.initial; w_resp = 0;
    last_reader = -1 }

(* [a] with room for [len] elements, at least doubled when it grows. *)
let grow a len fill =
  if Array.length a >= len then a
  else
    let b = Array.make (Int.max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

(* Room in the epoch input for [nodes] nodes (and as many extra edges:
   the sync chain's), [rfs] reads-from edges and [objs] pooled
   objects. *)
let reserve t ~nodes ~rfs ~objs =
  let c = t.input and g len a = grow a len 0 in
  if Array.length c.inv < nodes || Array.length c.rf_obj < rfs
     || Array.length c.objs < objs
  then
    t.input <-
      { c with chain = g nodes c.chain; idx = g nodes c.idx;
        inv = g nodes c.inv; resp = g nodes c.resp; row = g nodes c.row;
        wend = g nodes c.wend; tend = g nodes c.tend; objs = g objs c.objs;
        rf_reader = g rfs c.rf_reader; rf_obj = g rfs c.rf_obj;
        rf_writer = g rfs c.rf_writer; extra_src = g nodes c.extra_src;
        extra_dst = g nodes c.extra_dst }

let create ?arena ?(window = default_window) ?(settle = default_settle)
    ~flavour ~n_objects () =
  if window < 1 then invalid_arg "Window_check.create: window must be >= 1";
  if settle < 0 then invalid_arg "Window_check.create: negative settle";
  if n_objects < 1 then invalid_arg "Window_check.create: no objects";
  let arena =
    match arena with Some a -> a | None -> Relation.Arena.create ()
  in
  let nx = n_objects and e = [||] in
  let ints () = Array.make nx 0 in
  let t =
    { flavour; n_objects; window; settle; arena;
      objs =
        Array.init n_objects (fun x ->
            { frontier = { no_writer with w_obj = x }; touched_retired = false;
              vers = [||]; n_vers = 0 });
      u_w = Array.make nx no_writer; u_objs = ints (); u_n = 0;
      wrote = ints (); wval = Array.make nx Value.initial; ext = ints ();
      ext_val = Array.make nx Value.initial;
      touched = ints (); procs = Mmc_sim.Int_table.create 8; rows = e;
      n_live = 0;
      n_pending = 0;
      (* Node 0, the initializer, writes every object; the summary's
         row follows its row in the pool. *)
      input =
        { Check_constrained.n = 0; n_objects; chain = e; idx = e;
          inv = [| Types.init_time |]; resp = [| Types.init_time |];
          row = [| 0; nx |]; wend = [| nx |]; tend = [| nx |];
          objs = Array.init nx Fun.id; n_rf = 0; rf_reader = e; rf_obj = e;
          rf_writer = e; n_extra = 0; extra_src = e; extra_dst = e };
      n_objs = 2 * nx; s_feed = e; n_sync = 0; pmax_rf = e; scnt = e; smax = e;
      epoch = 0; fed = 0; base = 0; next_pos = 0; inv_floor = min_int;
      check_floor = 0; verdict = Pass; checks = 0; max_live = 0;
      resident_words = 0; max_resident_words = 0; recycled_words = 0 }
  in
  reserve t ~nodes:16 ~rfs:((2 * nx) + 64) ~objs:((2 * nx) + 64);
  t

let is_pass t = match t.verdict with Pass -> true | _ -> false
let inconclusive t fmt = Fmt.kstr (fun s -> t.verdict <- Inconclusive s) fmt

(* [inconclusive], then [Exit]. *)
let bad t fmt =
  Fmt.kstr (fun s -> t.verdict <- Inconclusive s; raise Exit) fmt

(* --- feeding ----------------------------------------------------------- *)

(* Index of version [v] in [o.vers], or where it would go. *)
let version_slot o v =
  let lo = ref 0 and hi = ref o.n_vers in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if o.vers.(mid).w_ver < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Validate entry [e] against its ops — once, while they are hot — and
   register its writes at once, even while it waits as pending, so
   readers fed earlier can resolve.  Returns its row; an ill-formed
   entry answers Inconclusive instead, naming m-operations by gid. *)
let admit t (e : entry) =
  let nx = t.n_objects in
  if e.resp < e.inv then bad t "entry with resp %d < inv %d" e.resp e.inv;
  if e.inv < t.inv_floor then
    bad t "entries fed out of invocation order (inv %d after floor %d)" e.inv
      t.inv_floor;
  if Option.is_none e.sync && e.writes != [] then
    bad t "update without a synchronization position";
  t.inv_floor <- e.inv;
  t.fed <- t.fed + 1;
  let f = t.fed - 1 and g = t.fed in
  (match e.sync with
  | Some p when p < t.next_pos ->
    bad t "synchronization position %d already retired" p
  | _ -> ());
  let p =
    match Mmc_sim.Int_table.find_opt t.procs e.proc with
    | Some p -> p
    | None ->
      let p = { last = None; epoch = 0; chain = 0; len = 0 } in
      Mmc_sim.Int_table.replace t.procs e.proc p;
      p
  in
  (match p.last with
  | Some q when q.r_resp >= e.inv ->
    bad t "process P%d not sequential: #%d [%d,%d] overlaps #%d [%d,%d]" e.proc
      (q.r_feed + 1) q.r_inv q.r_resp g e.inv e.resp
  | _ -> ());
  (* One walk of the ops: the objects touched, in order; the written
     ones and the values written last; the external reads (an object's
     first op, when it is a read) and their values. *)
  let nt = ref 0 and nw = ref 0 in
  List.iter
    (fun op ->
      let x = Op.obj op in
      if x < 0 || x >= nx then bad t "#%d touches object x%d outside range" g x;
      if t.ext.(x) <> g && t.wrote.(x) <> g then begin
        t.touched.(!nt) <- x;
        incr nt;
        match op with
        | Op.Read (_, v) ->
          t.ext.(x) <- g;
          t.ext_val.(x) <- v
        | Op.Write _ -> ()
      end;
      match op with
      | Op.Write (_, v) ->
        t.wval.(x) <- v;
        if t.wrote.(x) <> g then begin
          t.wrote.(x) <- g;
          incr nw
        end
      | Op.Read _ -> ())
    e.ops;
  (* The listed writes are the ops' final writes, each once, at a
     version not yet fed or retired; each is registered. *)
  let register (x, v, value) =
    if x < 0 || x >= nx then bad t "write to object x%d out of range" x;
    if t.wrote.(x) = -g then bad t "#%d lists x%d twice" g x;
    if t.wrote.(x) <> g then
      bad t "#%d lists a write of x%d its ops do not make" g x;
    if not (Value.equal t.wval.(x) value) then
      bad t "#%d lists x%d = %a but writes %a last" g x Value.pp_compact value
        Value.pp_compact t.wval.(x);
    t.wrote.(x) <- -g;
    let o = t.objs.(x) and w =
      { w_feed = f; w_obj = x; w_ver = v; w_value = value; w_resp = e.resp;
        last_reader = -1 }
    in
    let j = version_slot o v in
    if v <= o.frontier.w_ver then
      bad t "write of x%d version %d at or behind the frontier (%d)" x v
        o.frontier.w_ver;
    if j < o.n_vers && o.vers.(j).w_ver = v then
      bad t "two writers of x%d version %d" x v;
    o.vers <- grow o.vers (o.n_vers + 1) w;
    Array.blit o.vers j o.vers (j + 1) (o.n_vers - j);
    o.vers.(j) <- w;
    o.n_vers <- o.n_vers + 1;
    w
  in
  let ws = Array.of_list (List.map register e.writes) in
  (* The reads name a writer for each external read, exactly once. *)
  List.iter
    (fun (x, _) ->
      if x < 0 || x >= nx || abs t.ext.(x) <> g then
        bad t "#%d has a reads-from edge for x%d, which it does not read" g x;
      if t.ext.(x) = -g then
        bad t "duplicate reads-from edges for read of x%d by #%d" x g;
      t.ext.(x) <- -g)
    e.reads;
  let objs = Array.make !nt 0 and k = ref !nw in
  for i = 0 to !nt - 1 do
    let x = t.touched.(i) in
    if t.wrote.(x) = g then bad t "#%d writes x%d without listing it" g x;
    if t.ext.(x) = g then bad t "no reads-from edge for read of x%d by #%d" x g;
    if t.wrote.(x) <> -g then begin
      objs.(!k) <- x;
      incr k
    end
  done;
  Array.iteri (fun i w -> objs.(i) <- w.w_obj) ws;
  let rvals = Array.make (List.length e.reads) Value.initial in
  List.iteri (fun i (x, _) -> rvals.(i) <- t.ext_val.(x)) e.reads;
  let r =
    { r_feed = f; r_proc = p; r_inv = e.inv; r_resp = e.resp;
      r_sync = Option.value e.sync ~default:(-1); r_objs = objs;
      r_reads = e.reads; r_rvals = rvals;
      r_src = Array.make (Array.length rvals) no_writer; r_bound = -1;
      r_writes = ws }
  in
  p.last <- Some r;
  r

(* --- read resolution and promotion ------------------------------------- *)

(* The writer that read [j] of row [r], of [x] by [rf], names.  Raises
   [Exit] while it is not fed yet — and, with the verdict Inconclusive,
   for a read that can never resolve or that reads a value its writer
   did not write. *)
let resolve t (r : row) j (x, rf) =
  let o = t.objs.(x) in
  let w =
    match rf with
    | Version 0 | Gid 0 ->
      (* The initial value is the frontier until a write of x retires,
         and the horizon rule keeps it so while such a reader is live:
         a summary writing x would assert a retired-writer-before-reader
         ordering the full trace does not have. *)
      if o.frontier.w_ver > 0 then
        bad t "read of x%d initial value behind the retired frontier (%d)" x
          o.frontier.w_ver;
      o.frontier
    | Version v when v < 0 -> bad t "negative version of x%d" x
    | Version v when v < o.frontier.w_ver ->
      bad t "read of x%d version %d behind the retired frontier (%d)" x v
        o.frontier.w_ver
    | Version v when v = o.frontier.w_ver -> o.frontier
    | Version v ->
      let i = version_slot o v in
      if i < o.n_vers && o.vers.(i).w_ver = v then o.vers.(i) else raise Exit
    | Gid g when g < 0 -> bad t "negative writer id for x%d" x
    | Gid g when g > t.fed -> raise Exit
    | Gid g when g <= t.base ->
      if g <> o.frontier.w_feed + 1 then
        bad t "read of x%d from retired writer #%d behind the frontier" x g;
      o.frontier
    | Gid g -> (
      let ws = t.rows.(g - t.base - 1).r_writes in
      match Array.find_opt (fun w -> w.w_obj = x) ws with
      | Some w -> w
      | None -> bad t "#%d is not a writer of x%d" g x)
  in
  if w.w_feed = r.r_feed then
    bad t "#%d reads-from itself on x%d" (r.r_feed + 1) x;
  if not (Value.equal w.w_value r.r_rvals.(j)) then
    bad t "#%d reads %a from x%d but #%d wrote %a" (r.r_feed + 1)
      Value.pp_compact r.r_rvals.(j) x (w.w_feed + 1) Value.pp_compact
      w.w_value;
  w

(* Move the longest promotable prefix of the pending entries into the
   live window and the epoch input: every read of it resolves to the
   frontier or to a writer live or inside the prefix (a long-running
   reader may complete, and be fed, before its writer).  Each call
   resolves each read once. *)
let promote t =
  if is_pass t && t.n_pending > 0 then begin
    let reach = ref (-1) and best = ref (t.n_live - 1) in
    (try
       for i = t.n_live to t.n_live + t.n_pending - 1 do
         let r = t.rows.(i) in
         List.iteri
           (fun j read ->
             let w = resolve t r j read in
             r.r_src.(j) <- w;
             reach := Int.max !reach w.w_feed)
           r.r_reads;
         if !reach <= r.r_feed then best := i
       done
     with Exit -> ());
    if is_pass t then
      for i = t.n_live to !best do
        let r = t.rows.(i) in
        for j = 0 to Array.length r.r_src - 1 do
          let w = r.r_src.(j) in
          w.last_reader <- Int.max w.last_reader r.r_feed;
          r.r_bound <- Int.max r.r_bound w.w_feed
        done;
        let v = (if t.base > 0 then 2 else 1) + i in
        let len = Array.length r.r_objs in
        (* Each read is of a pooled object: the pool bounds the rf edges. *)
        reserve t ~nodes:(v + 1) ~rfs:(t.n_objs + len) ~objs:(t.n_objs + len);
        let c = t.input in
        c.inv.(v) <- r.r_inv;
        c.resp.(v) <- r.r_resp;
        c.row.(v) <- t.n_objs;
        c.wend.(v) <- t.n_objs + Array.length r.r_writes;
        Array.blit r.r_objs 0 c.objs t.n_objs len;
        t.n_objs <- t.n_objs + len;
        c.tend.(v) <- t.n_objs;
        if r.r_sync >= 0 then begin
          let pos j = t.rows.(t.s_feed.(j) - t.base).r_sync in
          let j = ref t.n_sync in
          t.s_feed <- grow t.s_feed (!j + 1) 0;
          while !j > 0 && pos (!j - 1) > r.r_sync do
            t.s_feed.(!j) <- t.s_feed.(!j - 1);
            decr j
          done;
          t.s_feed.(!j) <- r.r_feed;
          t.n_sync <- t.n_sync + 1
        end;
        t.n_live <- i + 1;
        t.n_pending <- t.n_pending - 1;
        t.max_live <- Int.max t.max_live t.n_live
      done
  end

(* --- retirement -------------------------------------------------------- *)

let retire t =
  let k = t.n_live and nx = t.n_objects in
  t.pmax_rf <- grow t.pmax_rf k 0;
  t.scnt <- grow t.scnt k 0;
  t.smax <- grow t.smax k 0;
  let pmax_rf = t.pmax_rf and scnt = t.scnt and smax = t.smax in
  for i = 0 to k - 1 do
    let r = t.rows.(i) and j = Int.max 0 (i - 1) and first = i = 0 in
    pmax_rf.(i) <- Int.max (if first then -1 else pmax_rf.(j)) r.r_bound;
    scnt.(i) <- (if first then 0 else scnt.(j)) + Bool.to_int (r.r_sync >= 0);
    smax.(i) <- Int.max (if first then -1 else smax.(j)) r.r_sync
  done;
  (* No real-time condition is needed, for any flavour: the summary's
     rt/object edges into the window over-assert "some retired
     m-operation precedes this one", which nothing points back against
     (feed order admits only retired-before-live), and its legality
     triples are object-local, real via the synchronization order.
     DESIGN.md §14. *)
  let feasible e =
    pmax_rf.(e) <= t.base + e
    && (scnt.(e) = 0 || smax.(e) = t.next_pos + scnt.(e) - 1)
  in
  let best_under cap =
    let e = ref (Int.min cap (k - 1)) in
    while !e >= 0 && not (feasible !e) do
      decr e
    done;
    !e
  in
  (* Version horizons: the candidate frontier u(x) of the prefix may
     only land when the current frontier — version 0, the initial
     value, included — and every version below it are superseded past
     the settle grace, read by no one outside the prefix, and (the
     versions) inside it; a version is superseded at the least response
     among the versions above it.  A violation caps the prefix below
     u(x)'s writer and we rescan.  u lives in [t.u_w]; each round
     rebuilds it from a reset, and the round that returns [e] leaves it
     built for the fold. *)
  let closed succ = succ < max_int && t.inv_floor >= succ + t.settle in
  let reset_u () =
    for i = 0 to t.u_n - 1 do
      t.u_w.(t.u_objs.(i)) <- no_writer
    done;
    t.u_n <- 0
  in
  let rec fix e =
    if e < 0 then -1
    else begin
      reset_u ();
      for i = 0 to e do
        let ws = t.rows.(i).r_writes in
        for j = 0 to Array.length ws - 1 do
          let w = ws.(j) in
          let x = w.w_obj in
          if w.w_ver > t.u_w.(x).w_ver then begin
            if t.u_w.(x) == no_writer then begin
              t.u_objs.(t.u_n) <- x;
              t.u_n <- t.u_n + 1
            end;
            t.u_w.(x) <- w
          end
        done
      done;
      let cap = ref e and lim = t.base + e in
      for i = 0 to t.u_n - 1 do
        let o = t.objs.(t.u_objs.(i)) and uw = t.u_w.(t.u_objs.(i)) in
        let ok = ref (o.frontier.last_reader <= lim) and succ = ref max_int in
        for j = o.n_vers - 1 downto 0 do
          let w = o.vers.(j) in
          if w.w_ver < uw.w_ver then
            ok := !ok && closed !succ && Int.max w.last_reader w.w_feed <= lim;
          succ := Int.min !succ w.w_resp
        done;
        if not (!ok && closed !succ) then
          cap := Int.min !cap (uw.w_feed - t.base - 1)
      done;
      if !cap >= e then e else fix (best_under !cap)
    end
  in
  let e = fix (best_under (k - 1)) in
  if e >= 0 then begin
    (* Fold the prefix into the frontier state: its versions of each
       object are the lowest ones, up to u(x). *)
    for i = 0 to e do
      let r = t.rows.(i) in
      for j = 0 to Array.length r.r_objs - 1 do
        t.objs.(r.r_objs.(j)).touched_retired <- true
      done
    done;
    for i = 0 to t.u_n - 1 do
      let o = t.objs.(t.u_objs.(i)) and uw = t.u_w.(t.u_objs.(i)) in
      let d = version_slot o (uw.w_ver + 1) in
      Array.blit o.vers d o.vers 0 (o.n_vers - d);
      o.n_vers <- o.n_vers - d;
      Array.fill o.vers o.n_vers d uw;
      o.frontier <- uw
    done;
    let j = ref 0 in
    for i = 0 to t.n_sync - 1 do
      if t.s_feed.(i) > t.base + e then begin
        t.s_feed.(!j) <- t.s_feed.(i);
        incr j
      end
    done;
    t.n_sync <- !j;
    (* The survivors become nodes 2.., their rows the start of the
       pool's live region. *)
    let m = k - e - 1 and c = t.input in
    let first = (if t.base > 0 then 2 else 1) + e + 1 in
    let blit a = Array.blit a first a 2 m in
    List.iter blit [ c.inv; c.resp; c.row; c.wend; c.tend ];
    let d = (if m > 0 then c.row.(2) else t.n_objs) - (2 * nx) in
    Array.blit c.objs ((2 * nx) + d) c.objs (2 * nx) (t.n_objs - (2 * nx) - d);
    List.iter
      (fun a -> for v = 2 to m + 1 do a.(v) <- a.(v) - d done)
      [ c.row; c.wend; c.tend ];
    t.n_objs <- t.n_objs - d;
    Array.blit t.rows (e + 1) t.rows 0 (m + t.n_pending);
    if m + t.n_pending > 0 then
      Array.fill t.rows (m + t.n_pending) (e + 1) t.rows.(0);
    t.next_pos <- t.next_pos + scnt.(e);
    t.base <- t.base + e + 1;
    t.n_live <- m
  end;
  reset_u ()

(* --- epoch check ------------------------------------------------------- *)

(* Check the live window plus the summary straight from the epoch
   input: the summary's row, the chains, the reads-from and the extra
   edges are rewritten in place, and nothing else is built. *)
let run_check t ~final =
  if is_pass t && t.n_live > 0 then begin
    let k = t.n_live and nx = t.n_objects in
    let with_summary = t.base > 0 in
    let off = if with_summary then 2 else 1 in
    let c = t.input and n_rf = ref 0 and n_extra = ref 0 in
    let rf reader x writer =
      c.rf_reader.(!n_rf) <- reader;
      c.rf_obj.(!n_rf) <- x;
      c.rf_writer.(!n_rf) <- writer;
      incr n_rf
    and extra a b =
      c.extra_src.(!n_extra) <- a;
      c.extra_dst.(!n_extra) <- b;
      incr n_extra
    in
    t.epoch <- t.epoch + 1;
    let nc = ref off in
    if with_summary then begin
      (* The summary, its own pseudo-process and chain, writes the
         frontier of every object a retired entry wrote; under
         m-normality it also reads the initial value of every other
         object a retired entry touched: object order relates reads
         too. *)
      let j = ref nx in
      let add x = c.objs.(!j) <- x; incr j in
      Array.iteri (fun x o -> if o.frontier.w_ver > 0 then add x) t.objs;
      c.wend.(1) <- !j;
      if t.flavour = History.Mnorm then
        Array.iteri
          (fun x o -> if o.touched_retired && o.frontier.w_ver = 0 then add x)
          t.objs;
      c.tend.(1) <- !j;
      c.inv.(1) <- c.inv.(2) - 1;
      c.resp.(1) <- c.inv.(1);
      c.chain.(1) <- 1;
      c.idx.(1) <- 0
    end;
    (* Chains in order of first appearance.  No process-order edge
       joins the summary to a process's first live entry: it would
       change no verdict (DESIGN.md §14). *)
    for i = 0 to k - 1 do
      let p = t.rows.(i).r_proc and v = off + i in
      if p.epoch <> t.epoch then begin
        p.epoch <- t.epoch;
        p.chain <- !nc;
        p.len <- 0;
        incr nc
      end;
      c.chain.(v) <- p.chain;
      c.idx.(v) <- p.len;
      p.len <- p.len + 1
    done;
    (* The sync chain over the window, headed by the summary when
       retired synchronized m-operations exist. *)
    let prev = ref (if with_summary && t.next_pos > 0 then 1 else -1) in
    for j = 0 to t.n_sync - 1 do
      let v = off + t.s_feed.(j) - t.base in
      if !prev >= 0 then extra !prev v;
      prev := v
    done;
    (* Reads-from, last live entry first and the summary's reads last:
       the legality scan visits them in this order, and its first
       violation names a FAIL's triple.  A retired writer a live entry
       still reads is the frontier's: the horizon rule retires no
       other. *)
    for i = k - 1 downto 0 do
      let r = t.rows.(i) in
      for j = Array.length r.r_src - 1 downto 0 do
        let w = r.r_src.(j) in
        assert (w.w_feed >= t.base || t.objs.(w.w_obj).frontier == w);
        rf (off + i) w.w_obj
          (if w.w_feed >= t.base then off + w.w_feed - t.base
           else if w.w_feed < 0 then 0
           else 1)
      done
    done;
    if with_summary then
      for j = c.tend.(1) - 1 downto c.wend.(1) do
        rf 1 c.objs.(j) 0
      done;
    (* The check's frontier vectors and sort tables come from the arena
       and go back before it returns: the most it holds at once is this
       epoch's resident footprint, and everything it took is
       recycled. *)
    let input = { c with n = off + k; n_rf = !n_rf; n_extra = !n_extra } in
    let taken0 = Relation.Arena.scratch_words t.arena in
    let res, words =
      Relation.Arena.peak_during t.arena (fun () ->
          Check_constrained.decide_chains ~arena:t.arena input
            ~flavour:t.flavour Constraints.WW)
    in
    t.checks <- t.checks + 1;
    t.resident_words <- words;
    if words > t.max_resident_words then t.max_resident_words <- words;
    t.recycled_words <-
      t.recycled_words + Relation.Arena.scratch_words t.arena - taken0;
    match res with
    | Check_constrained.Legal -> if not final then retire t
    | Check_constrained.Refuted res ->
      let reason = Fmt.str "%a" Check_constrained.pp_result res in
      t.verdict <- Fail { prefix = t.base + k; reason }
  end

let rec maybe_check t =
  if is_pass t && t.n_live >= Int.max t.window t.check_floor then begin
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
  if is_pass t then
    match admit t e with
    | exception Exit -> ()
    | r ->
      let i = t.n_live + t.n_pending in
      t.rows <- grow t.rows (i + 1) r;
      t.rows.(i) <- r;
      t.n_pending <- t.n_pending + 1;
      promote t;
      maybe_check t

let flush t = run_check t ~final:false

let finish t =
  if is_pass t then begin
    promote t;
    if t.n_pending > 0 then
      inconclusive t
        "%d entr%s still waiting for a reads-from writer that never arrived"
        t.n_pending (if t.n_pending = 1 then "y" else "ies")
    else run_check t ~final:true
  end;
  t.verdict

let verdict t = t.verdict

let metrics t =
  let frontier_objects =
    Array.fold_left (fun n o -> n + Bool.to_int (o.frontier.w_ver > 0)) 0 t.objs
  in
  { fed = t.fed; pending = t.n_pending; live = t.n_live;
    max_live = t.max_live; checks = t.checks; retired = t.base;
    frontier_objects; resident_words = t.resident_words;
    max_resident_words = t.max_resident_words;
    recycled_words = t.recycled_words;
    arena_hits = Relation.Arena.hits t.arena;
    arena_misses = Relation.Arena.misses t.arena }

(* --- adapters ---------------------------------------------------------- *)

let rec in_namespace n = function
  | [] -> true
  | (_, _, m) :: rest -> m = n && in_namespace n rest

(* The value [ops] write to [x] last, [v] when they write none. *)
let rec last_value x v = function
  | [] -> v
  | Op.Write (y, w) :: rest when y = x -> last_value x w rest
  | _ :: rest -> last_value x v rest

let entry_of_record (r : Mmc_store.Recorder.record) =
  (match (r.reads, r.writes) with
  | (_, _, n) :: _, _ | [], (_, _, n) :: _ ->
    if not (in_namespace n r.reads && in_namespace n r.writes) then
      invalid_arg
        "Window_check.entry_of_record: record spans version namespaces"
  | [], [] -> ());
  (* A recorded write without a write op keeps the initial value:
     [feed] rejects it. *)
  let writes =
    List.map
      (fun (x, v, _) -> (x, v, last_value x Value.initial r.ops))
      r.Mmc_store.Recorder.writes
  in
  let reads = List.map (fun (x, v, _) -> (x, Version v)) r.reads in
  { proc = r.proc; inv = r.inv; resp = r.resp; ops = r.ops; reads; writes;
    sync = r.sync }

(* The same entry from every source that names reads by writer id:
   updates are versioned by synchronization position, shifted past 0
   (the initial version), so versions are monotone in apply order. *)
let make_entry ~proc ~inv ~resp ~ops ~reads ~sync =
  let v = match sync with Some p -> p + 1 | None -> 0 in
  let writes =
    List.map (fun (x, value) -> (x, v, value)) (Op.final_writes ops)
  in
  { proc; inv; resp; ops; reads; writes; sync }

let feed_history t h ~sync_order =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) sync_order;
  List.iter
    (fun (m : Mop.t) ->
      let reads =
        List.map
          (fun (e : History.rf_edge) -> (e.History.obj, Gid e.History.writer))
          (History.rf_of_reader h m.Mop.id)
      in
      feed t
        (make_entry ~proc:m.Mop.proc ~inv:m.Mop.inv ~resp:m.Mop.resp
           ~ops:m.Mop.ops ~reads ~sync:(Hashtbl.find_opt pos m.Mop.id)))
    (History.real_mops h)

let feed_recorder t recorder =
  Mmc_store.Recorder.iter_numbered recorder
    ~read:(fun _ x w -> (x, Gid w))
    (fun _ (r : Mmc_store.Recorder.record) reads sync ->
      feed t
        (make_entry ~proc:r.proc ~inv:r.inv ~resp:r.resp ~ops:r.ops ~reads
           ~sync))
