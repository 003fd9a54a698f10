(* Tests for the in-band failure detector: config validation, the
   deterministic suspect/refute cycle around a crash window, and the
   three properties the failover design leans on — a crashed node is
   suspected within the detection bound, a fault-free network with a
   safely-chosen timeout never produces a false suspicion, and
   suspicion is monotone within a subject's incarnation. *)

open Mmc_sim

let default = Detector.default_config
let hb = default.Detector.heartbeat_every
let timeout = default.Detector.suspect_after

(* Latency bound used throughout; the detection-time slack below
   depends on it. *)
let lat_lo, lat_hi = (1, 10)
let latency = Latency.Uniform (lat_lo, lat_hi)

(* One past the time by which a peer that fell silent at [t] must be
   suspected by every live observer: last possible evidence lands at
   [t + lat_hi], the timeout expires [suspect_after] later, and the
   check runs on the next heartbeat tick. *)
let detection_bound t = t + lat_hi + timeout + hb + 1

let make ?config ?plan ~seed ~n () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let fault =
    Option.map (fun p -> Fault.create p ~rng:(Rng.split rng)) plan
  in
  let det = Detector.create ?config ?fault engine ~n ~latency ~rng in
  (engine, det)

(* Detector events are all daemon events, so a run needs a non-daemon
   horizon to keep the engine alive until [time]. *)
let horizon engine ~time = Engine.at engine ~time (fun () -> ())

(* --- unit tests --- *)

let test_validate_config () =
  let invalid c =
    Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
        try Detector.validate_config c
        with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  invalid { Detector.heartbeat_every = 0; suspect_after = 100 };
  invalid { Detector.heartbeat_every = 25; suspect_after = 0 };
  invalid { Detector.heartbeat_every = 10; suspect_after = 10 };
  invalid { Detector.heartbeat_every = 10; suspect_after = 5 };
  Detector.validate_config { Detector.heartbeat_every = 10; suspect_after = 11 };
  Detector.validate_config default

let test_suspect_then_refute () =
  (* Node 2 crashes and comes back: while it is down every live
     observer comes to suspect it; after restart its higher
     incarnation refutes the suspicion everywhere. *)
  let plan =
    {
      Fault.none with
      Fault.crashes = [ { Fault.node = 2; at = 200; back = 600; wipe = false } ];
    }
  in
  let engine, det = make ~plan ~seed:7 ~n:4 () in
  let during = ref [] in
  Engine.at engine ~time:(detection_bound 200) (fun () ->
      for o = 0 to 3 do
        if o <> 2 then
          during := Detector.suspects det ~observer:o ~subject:2 :: !during
      done);
  horizon engine ~time:1200;
  Engine.run engine;
  Alcotest.(check (list bool))
    "suspected while down" [ true; true; true ] !during;
  for o = 0 to 3 do
    for s = 0 to 3 do
      Alcotest.(check bool)
        (Fmt.str "%d no longer suspects %d after restart" o s)
        false
        (Detector.suspects det ~observer:o ~subject:s)
    done
  done;
  let stats = Detector.stats det in
  Alcotest.(check bool) "refutations happened" true
    (stats.Detector.refutations >= 3);
  Alcotest.(check bool) "incarnation bumped" true
    (Detector.incarnation det ~node:2 >= 1)

let test_candidate_rotates () =
  (* With node 0 down, every live observer's candidate moves to 1;
     after the restart it returns to 0. *)
  let plan =
    {
      Fault.none with
      Fault.crashes = [ { Fault.node = 0; at = 100; back = 700; wipe = false } ];
    }
  in
  let engine, det = make ~plan ~seed:11 ~n:4 () in
  let during = ref [] in
  Engine.at engine ~time:(detection_bound 100) (fun () ->
      for o = 1 to 3 do
        during := Detector.candidate det ~observer:o :: !during
      done);
  horizon engine ~time:1400;
  Engine.run engine;
  Alcotest.(check (list int)) "candidate is 1 while 0 is down"
    [ 1; 1; 1 ] !during;
  for o = 0 to 3 do
    Alcotest.(check int)
      (Fmt.str "candidate of %d back to 0" o)
      0
      (Detector.candidate det ~observer:o)
  done

(* --- properties --- *)

(* (i) A crashed node is suspected by every live observer within
   [suspect_after] plus the heartbeat latency bound. *)
let prop_crash_suspected =
  QCheck.Test.make ~name:"detector: crashed node suspected within the bound"
    ~count:60
    QCheck.(make Gen.(triple (int_bound 100_000) (int_range 2 6) (int_range 50 400)))
    (fun (seed, n, at) ->
      let c = n - 1 in
      let back = detection_bound at + 50 in
      let plan =
        { Fault.none with Fault.crashes = [ { Fault.node = c; at; back; wipe = false } ] }
      in
      let engine, det = make ~plan ~seed ~n () in
      let ok = ref true in
      Engine.at engine ~time:(detection_bound at) (fun () ->
          for o = 0 to n - 2 do
            ok := !ok && Detector.suspects det ~observer:o ~subject:c
          done;
          raise Engine.Stop);
      Engine.run engine;
      !ok)

(* (ii) No faults and a timeout comfortably above the latency bound:
   never a false suspicion. *)
let prop_no_false_suspicions =
  QCheck.Test.make
    ~name:"detector: fault-free run with a safe timeout never suspects"
    ~count:60
    QCheck.(make Gen.(pair (int_bound 100_000) (int_range 2 6)))
    (fun (seed, n) ->
      let engine, det = make ~seed ~n () in
      horizon engine ~time:3000;
      Engine.run engine;
      let s = Detector.stats det in
      s.Detector.suspicions = 0 && s.Detector.false_suspicions = 0)

(* (iii) Suspicion is monotone per incarnation: an observer that never
   crashes clears a suspicion only after the subject's incarnation
   moved past what it was when the suspicion was raised. *)
let prop_monotone_per_incarnation =
  QCheck.Test.make
    ~name:"detector: suspicion cleared only by a higher incarnation"
    ~count:60
    QCheck.(make Gen.(triple (int_bound 100_000) (int_range 3 6) (int_bound 100)))
    (fun (seed, n, jitter) ->
      let subject = n - 1 in
      (* The subject crashes twice; observers 0..n-2 stay up, so their
         unsuspicions are never the restart self-reset.  Loss-free on
         purpose: a doubt-triggered bump racing a concurrent false
         suspicion would make the globally-visible incarnation an
         over-approximation of what the observer saw at raise time. *)
      let plan =
        {
          Fault.none with
          Fault.crashes =
            [
              { Fault.node = subject; at = 150 + jitter; back = 500 + jitter; wipe = false };
              { Fault.node = subject; at = 900 + jitter; back = 1300 + jitter; wipe = false };
            ];
        }
      in
      let engine, det = make ~plan ~seed ~n () in
      let raised_at = Hashtbl.create 16 in
      let ok = ref true in
      Detector.on_change det (fun ~observer ~subject:sub ~suspected ->
          if observer < n - 1 && sub = subject then
            if suspected then
              Hashtbl.replace raised_at observer
                (Detector.incarnation det ~node:subject)
            else begin
              (match Hashtbl.find_opt raised_at observer with
              | Some inc0 ->
                ok :=
                  !ok && Detector.incarnation det ~node:subject > inc0
              | None -> ok := false);
              Hashtbl.remove raised_at observer
            end);
      horizon engine ~time:2500;
      Engine.run engine;
      !ok)

let () =
  Alcotest.run "detector"
    [
      ( "detector",
        [
          Alcotest.test_case "config validation" `Quick test_validate_config;
          Alcotest.test_case "suspect then refute" `Quick
            test_suspect_then_refute;
          Alcotest.test_case "candidate rotates" `Quick test_candidate_rotates;
          QCheck_alcotest.to_alcotest prop_crash_suspected;
          QCheck_alcotest.to_alcotest prop_no_false_suspicions;
          QCheck_alcotest.to_alcotest prop_monotone_per_incarnation;
        ] );
    ]
