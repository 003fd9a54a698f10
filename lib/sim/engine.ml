(** Discrete-event simulation engine.

    Virtual time is an integer; events are closures scheduled at
    absolute times and executed in (time, insertion-sequence) order, so
    a run is a deterministic function of the seed of whatever PRNGs the
    components use.  Each event executes atomically — exactly the
    atomicity granularity the paper's protocol actions (A1)–(A6)
    assume.

    The queue is a calendar: a ring of {!ring_size} per-tick FIFOs
    holds every event due in [[now, now + ring_size)], and a binary
    {!Heap} holds the rest.  Scheduling into the ring and taking its
    next event are O(1); the ring covers the retransmit backoff cap, so
    the heap sees mostly plan-driven instants far ahead.  Why the FIFOs
    still run in (time, seq) order: an event enters the ring either
    when it is scheduled, if its time is inside the window, or when
    [now] advances far enough that the window reaches it, in which
    case it leaves the heap in (time, seq) order.  A tick enters the
    window before any event can be scheduled directly into it, so each
    tick's FIFO receives its heap events first, then direct ones, all
    in increasing [seq].  The window moves only when an event is
    taken, never when {!run} stops on one it peeked at ([until],
    [max_events]), so a resumed run sees the same window. *)

type event = {
  time : int;
  seq : int;
  daemon : bool;
  action : unit -> unit;
  mutable next : event;  (** successor in its tick's FIFO, or {!nil} *)
}

let rec nil =
  { time = max_int; seq = max_int; daemon = true; action = ignore; next = nil }

let compare_event a b =
  match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

(* A power of two above the 640-tick retransmit backoff cap. *)
let ring_size = 1024
let ring_mask = ring_size - 1

(* A ring array filled with [nil].  [Array.make] fills an array this
   large with a young value ([nil] is allocated at module
   initialisation) only after forcing a minor collection, which would
   bill a process's first (and dearest) one to its first [create];
   concatenating rows small enough for the minor heap does not. *)
let empty_ring () =
  Array.concat (List.init 4 (fun _ -> Array.make (ring_size / 4) nil))

type t = {
  mutable now : int;
  mutable next_seq : int;
  mutable executed : int;
  mutable live : int;  (** non-daemon events still queued *)
  heads : event array;
      (** the ring's per-tick FIFOs, at [time land ring_mask] *)
  tails : event array;
  mutable in_ring : int;
  mutable cursor : int;
      (** no ring event is earlier; [now <= cursor] while the ring is
          non-empty *)
  later : event Heap.t;  (** events at or past [now + ring_size] *)
}

let create () =
  {
    now = 0;
    next_seq = 0;
    executed = 0;
    live = 0;
    heads = empty_ring ();
    tails = empty_ring ();
    in_ring = 0;
    cursor = 0;
    later = Heap.create ~compare:compare_event ~dummy:nil;
  }

let now t = t.now

(** Number of events executed so far. *)
let executed t = t.executed

(* Append [ev] (due inside the window) to its tick's FIFO. *)
let enqueue t ev =
  let i = ev.time land ring_mask in
  let tail = t.tails.(i) in
  if tail == nil then t.heads.(i) <- ev else tail.next <- ev;
  t.tails.(i) <- ev;
  t.in_ring <- t.in_ring + 1;
  if ev.time < t.cursor then t.cursor <- ev.time

(** Schedule [action] to run [delay >= 0] time units from now.  A
    [daemon] event (heartbeat ticks, background probes) never keeps the
    run alive: {!run} stops once only daemon events remain, the way a
    process exits once only daemon threads are left. *)
let schedule ?(daemon = false) t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let ev =
    { time = t.now + delay; seq = t.next_seq; daemon; action; next = nil }
  in
  if delay < ring_size then enqueue t ev else Heap.push t.later ev;
  t.next_seq <- t.next_seq + 1;
  if not daemon then t.live <- t.live + 1

(** Schedule at the current time (after already-pending events at this
    time). *)
let schedule_now ?daemon t action = schedule ?daemon t ~delay:0 action

(** Schedule at absolute virtual time [time], clamped to now — the
    natural form for plan-driven events (crash wipes, restarts, view
    changes) whose instants are known at creation time. *)
let at ?daemon t ~time action =
  schedule ?daemon t ~delay:(Int.max 0 (time - t.now)) action

exception Stop

(* The next event in (time, seq) order, or [nil]; leaves the window
   where it is, so a run that stops here resumes with the same one. *)
let peek t =
  if t.in_ring > 0 then begin
    let c = ref t.cursor in
    while t.heads.(!c land ring_mask) == nil do
      incr c
    done;
    t.cursor <- !c;
    t.heads.(!c land ring_mask)
  end
  else if Heap.is_empty t.later then nil
  else Heap.top t.later

(* Dequeue [ev], the result of {!peek}, and move the window to its
   time: heap events the window now reaches join their FIFOs. *)
let take t ev =
  if t.in_ring > 0 then begin
    let i = ev.time land ring_mask in
    t.heads.(i) <- ev.next;
    if ev.next == nil then t.tails.(i) <- nil
    else
      (* A dead event linking to a live one would keep it through the
         next minor collection if the dead one was already promoted. *)
      ev.next <- nil;
    t.in_ring <- t.in_ring - 1
  end
  else begin
    ignore (Heap.pop t.later);
    t.cursor <- ev.time
  end;
  if ev.time > t.now then begin
    t.now <- ev.time;
    let horizon = t.now + ring_size in
    while (not (Heap.is_empty t.later)) && (Heap.top t.later).time < horizon do
      match Heap.pop t.later with Some e -> enqueue t e | None -> ()
    done
  end

(** Run until no non-daemon events remain, the queue drains,
    [max_events] events have executed, or virtual time would exceed
    [until].  Daemon events scheduled before the quiescence point still
    execute in time order; those after it are abandoned.  An event may
    raise {!Stop} to end the run early. *)
let run ?(max_events = max_int) ?(until = max_int) t =
  let continue = ref true in
  while !continue do
    if t.live = 0 then continue := false
    else
      let ev = peek t in
      if ev == nil || ev.time > until || t.executed >= max_events then
        continue := false
      else begin
        take t ev;
        if not ev.daemon then t.live <- t.live - 1;
        t.executed <- t.executed + 1;
        match ev.action () with
        | () -> ()
        | exception Stop -> continue := false
      end
  done

let pending t = t.in_ring + Heap.length t.later
