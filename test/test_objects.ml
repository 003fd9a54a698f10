(* Tests for the typed multi-object operations: DCAS, m-register
   assignment, counters, bank, queues, stacks — executed both purely
   and through the replicated stores. *)

open Mmc_core
open Mmc_store
open Mmc_objects

let vt = Alcotest.testable (Fmt.of_to_string Value.show) Value.equal

let run_pure m arr = Prog.run_on_array m.Prog.prog arr

let test_register () =
  let arr = Array.make 2 Value.initial in
  ignore (run_pure (Register.write 0 (Value.Int 5)) arr);
  Alcotest.check vt "written" (Value.Int 5) arr.(0);
  Alcotest.check vt "read back" (Value.Int 5) (run_pure (Register.read 0) arr)

let test_dcas_success_failure () =
  let arr = Array.make 2 Value.initial in
  let d1 =
    Dcas.dcas 0 1 ~old1:Value.initial ~old2:Value.initial ~new1:(Value.Int 1)
      ~new2:(Value.Int 2)
  in
  Alcotest.check vt "dcas succeeds" (Value.Bool true) (run_pure d1 arr);
  Alcotest.check vt "x0" (Value.Int 1) arr.(0);
  Alcotest.check vt "x1" (Value.Int 2) arr.(1);
  (* Same DCAS again: old values no longer match. *)
  Alcotest.check vt "dcas fails" (Value.Bool false) (run_pure d1 arr);
  Alcotest.check vt "x0 unchanged" (Value.Int 1) arr.(0)

let test_dcas_is_update_classified () =
  let d =
    Dcas.dcas 0 1 ~old1:Value.initial ~old2:Value.initial ~new1:(Value.Int 1)
      ~new2:(Value.Int 2)
  in
  Alcotest.(check bool) "conservatively an update" false (Prog.is_query d)

let test_massign_snapshot () =
  let arr = Array.make 3 Value.initial in
  ignore
    (run_pure (Massign.assign [ (0, Value.Int 1); (2, Value.Int 3) ]) arr);
  Alcotest.check vt "snapshot"
    (Value.List [ Value.Int 1; Value.Int 0; Value.Int 3 ])
    (run_pure (Massign.snapshot [ 0; 1; 2 ]) arr);
  Alcotest.check vt "sum" (Value.Int 4) (run_pure (Massign.sum [ 0; 1; 2 ]) arr)

let test_swap () =
  let arr = [| Value.Int 1; Value.Int 2 |] in
  ignore (run_pure (Massign.swap 0 1) arr);
  Alcotest.check vt "x0" (Value.Int 2) arr.(0);
  Alcotest.check vt "x1" (Value.Int 1) arr.(1)

let test_counter () =
  let arr = Array.make 2 Value.initial in
  Alcotest.check vt "faa returns old" (Value.Int 0) (run_pure (Counter.incr 0) arr);
  Alcotest.check vt "faa returns old" (Value.Int 1) (run_pure (Counter.incr 0) arr);
  ignore (run_pure (Counter.move ~src:0 ~dst:1 2) arr);
  Alcotest.check vt "src" (Value.Int 0) arr.(0);
  Alcotest.check vt "dst" (Value.Int 2) arr.(1)

let test_bank_transfer () =
  let arr = [| Value.Int 10; Value.Int 0 |] in
  Alcotest.check vt "transfer ok" (Value.Bool true)
    (run_pure (Bank.transfer ~from_:0 ~to_:1 7) arr);
  Alcotest.check vt "insufficient" (Value.Bool false)
    (run_pure (Bank.transfer ~from_:0 ~to_:1 7) arr);
  Alcotest.check vt "audit" (Value.Int 10) (run_pure (Bank.audit [ 0; 1 ]) arr)

let test_queue () =
  let arr = Array.make 2 Value.initial in
  ignore (run_pure (Queue_obj.enqueue 0 (Value.Int 1)) arr);
  ignore (run_pure (Queue_obj.enqueue 0 (Value.Int 2)) arr);
  Alcotest.check vt "len" (Value.Int 2) (run_pure (Queue_obj.length 0) arr);
  Alcotest.check vt "fifo" (Value.Pair (Value.Bool true, Value.Int 1))
    (run_pure (Queue_obj.dequeue 0) arr);
  Alcotest.check vt "move" (Value.Bool true)
    (run_pure (Queue_obj.transfer_front ~src:0 ~dst:1) arr);
  Alcotest.check vt "empty after" (Value.Pair (Value.Bool false, Value.Unit))
    (run_pure (Queue_obj.dequeue 0) arr);
  Alcotest.check vt "landed" (Value.Pair (Value.Bool true, Value.Int 2))
    (run_pure (Queue_obj.dequeue 1) arr)

let test_stack () =
  let arr = Array.make 2 Value.initial in
  ignore (run_pure (Stack_obj.push 0 (Value.Int 1)) arr);
  ignore (run_pure (Stack_obj.push 0 (Value.Int 2)) arr);
  Alcotest.check vt "lifo" (Value.Pair (Value.Bool true, Value.Int 2))
    (run_pure (Stack_obj.pop 0) arr);
  ignore (run_pure (Stack_obj.push 0 (Value.Int 3)) arr);
  Alcotest.check vt "move" (Value.Bool true)
    (run_pure (Stack_obj.move ~src:0 ~dst:1) arr);
  Alcotest.check vt "depth src" (Value.Int 1) (run_pure (Stack_obj.depth 0) arr);
  Alcotest.check vt "depth dst" (Value.Int 1) (run_pure (Stack_obj.depth 1) arr)

(* Through the replicated m-linearizable store: concurrent DCAS on the
   same pair — exactly one of two identical DCAS invocations against
   the initial values may succeed. *)
let test_dcas_through_store () =
  List.iter
    (fun seed ->
      let engine = Mmc_sim.Engine.create () in
      let rng = Mmc_sim.Rng.create seed in
      let recorder = Recorder.create ~n_objects:2 in
      let store =
        Mlin_store.create engine ~n:2 ~n_objects:2
          ~latency:(Mmc_sim.Latency.Uniform (2, 20))
          ~rng ~abcast_impl:Mmc_broadcast.Abcast.Sequencer_impl ~recorder
      in
      let results = ref [] in
      let d proc =
        Dcas.dcas 0 1 ~old1:Value.initial ~old2:Value.initial
          ~new1:(Value.Int (10 + proc))
          ~new2:(Value.Int (20 + proc))
      in
      Mmc_sim.Engine.schedule engine ~delay:1 (fun () ->
          Store.invoke store ~proc:0 (d 0) ~k:(fun r -> results := r :: !results));
      Mmc_sim.Engine.schedule engine ~delay:1 (fun () ->
          Store.invoke store ~proc:1 (d 1) ~k:(fun r -> results := r :: !results));
      Mmc_sim.Engine.run engine;
      let succ =
        List.length (List.filter (Value.equal (Value.Bool true)) !results)
      in
      Alcotest.(check int) (Fmt.str "exactly one success (seed %d)" seed) 1 succ;
      (* And the trace is m-linearizable. *)
      let h, _ = Recorder.to_history recorder in
      match Admissible.check h Mmc_core.History.Mlin with
      | Admissible.Admissible _ -> ()
      | _ -> Alcotest.fail "DCAS trace not m-linearizable")
    [ 0; 1; 2; 3 ]

(* Bank invariant through the m-SC store: the total balance observed by
   every audit equals the initial total (transfers conserve money). *)
let test_bank_invariant_through_store () =
  let n_accounts = 4 in
  let initial = 100 in
  let engine = Mmc_sim.Engine.create () in
  let rng = Mmc_sim.Rng.create 42 in
  let recorder = Recorder.create ~n_objects:n_accounts in
  let store =
    Msc_store.create engine ~n:3 ~n_objects:n_accounts
      ~latency:(Mmc_sim.Latency.Uniform (2, 15))
      ~rng ~abcast_impl:Mmc_broadcast.Abcast.Sequencer_impl ~recorder
  in
  (* Seed balances. *)
  Mmc_sim.Engine.schedule engine ~delay:0 (fun () ->
      Store.invoke store ~proc:0
        (Massign.assign (List.init n_accounts (fun i -> (i, Value.Int initial))))
        ~k:ignore);
  let audits = ref [] in
  let client_rng = Mmc_sim.Rng.create 7 in
  let rec client proc step () =
    if step < 15 then
      let m =
        if step mod 3 = 2 then Bank.audit (List.init n_accounts Fun.id)
        else begin
          let from_ = Mmc_sim.Rng.int client_rng ~bound:n_accounts in
          let to_ = (from_ + 1) mod n_accounts in
          Bank.transfer ~from_ ~to_ (1 + Mmc_sim.Rng.int client_rng ~bound:20)
        end
      in
      Store.invoke store ~proc m ~k:(fun r ->
          (if Prog.is_query m then
             match r with
             | Value.Int total -> audits := total :: !audits
             | _ -> Alcotest.fail "bad audit result");
          Mmc_sim.Engine.schedule engine ~delay:2 (client proc (step + 1)))
  in
  (* Start well after the seeding assignment has propagated. *)
  for p = 0 to 2 do
    Mmc_sim.Engine.schedule engine ~delay:100 (client p 0)
  done;
  Mmc_sim.Engine.run engine;
  Alcotest.(check bool) "audits happened" true (List.length !audits > 0);
  List.iter
    (fun total ->
      Alcotest.(check int) "conserved total" (n_accounts * initial) total)
    !audits

(* Labels are built by concatenation, byte for byte the strings the
   old [Fmt.str] formats gave: [Classify]'s [Trust_labels] mode
   matches on them and the router suffixes them.  Random arguments,
   negatives included.  The list labels keep [Fmt.str], whose break
   before the last element concatenation would lose. *)
let test_labels () =
  let rng = Random.State.make [| 23 |] in
  let int () = Random.State.int rng 20001 - 10000 in
  let ints () = List.init (Random.State.int rng 8) (fun _ -> int ()) in
  let v = Value.Int 1 in
  let comma = Fmt.(list ~sep:comma int) in
  for _ = 1 to 500 do
    let a = int () and b = int () and c = int () and xs = ints () in
    List.iter
      (fun (expected, (m : Prog.mprog)) ->
        Alcotest.(check string) expected expected m.Prog.label)
      [
        (Fmt.str "faa(x%d,%d)" a b, Counter.fetch_and_add a b);
        (Fmt.str "get(x%d)" a, Counter.get a);
        (Fmt.str "move(x%d->x%d,%d)" a b c, Counter.move ~src:a ~dst:b c);
        ( Fmt.str "massign(%a)" comma xs,
          Massign.assign (List.map (fun x -> (x, v)) xs) );
        (Fmt.str "snapshot(%a)" comma xs, Massign.snapshot xs);
        (Fmt.str "sum(%a)" comma xs, Massign.sum xs);
        (Fmt.str "swap(x%d,x%d)" a b, Massign.swap a b);
        ( Fmt.str "dcas(x%d,x%d)" a b,
          Dcas.dcas a b ~old1:v ~old2:v ~new1:v ~new2:v );
        (Fmt.str "cas(x%d)" a, Dcas.cas a ~old_v:v ~new_v:v);
        (Fmt.str "write(x%d)" a, Register.write a v);
        (Fmt.str "read(x%d)" a, Register.read a);
        ( Fmt.str "transfer(x%d->x%d,%d)" a b c,
          Bank.transfer ~from_:a ~to_:b c );
        (Fmt.str "audit(%d accounts)" (List.length xs), Bank.audit xs);
        (Fmt.str "deposit(x%d,%d)" a b, Bank.deposit a b);
        (Fmt.str "balance(x%d)" a, Bank.balance a);
        (Fmt.str "enqueue(x%d)" a, Queue_obj.enqueue a v);
        (Fmt.str "dequeue(x%d)" a, Queue_obj.dequeue a);
        (Fmt.str "qmove(x%d->x%d)" a b, Queue_obj.transfer_front ~src:a ~dst:b);
        (Fmt.str "qlen(x%d)" a, Queue_obj.length a);
        (Fmt.str "push(x%d)" a, Stack_obj.push a v);
        (Fmt.str "pop(x%d)" a, Stack_obj.pop a);
        (Fmt.str "smove(x%d->x%d)" a b, Stack_obj.move ~src:a ~dst:b);
        (Fmt.str "sdepth(x%d)" a, Stack_obj.depth a);
        (Fmt.str "balance(%d)" a, Smallbank.balance a);
        (Fmt.str "deposit_checking(%d,%d)" a b, Smallbank.deposit_checking a b);
        (Fmt.str "transact_savings(%d,%d)" a b, Smallbank.transact_savings a b);
        (Fmt.str "amalgamate(%d,%d)" a b, Smallbank.amalgamate a b);
        (Fmt.str "write_check(%d,%d)" a b, Smallbank.write_check a b);
        ( Fmt.str "send_payment(%d,%d,%d)" a b c,
          Smallbank.send_payment a b c );
        (let n = abs a mod 64 in
         (Fmt.str "audit(%d customers)" n, Smallbank.audit ~customers:n));
      ]
  done

let () =
  Alcotest.run "objects"
    [
      ( "pure",
        [
          Alcotest.test_case "register" `Quick test_register;
          Alcotest.test_case "dcas" `Quick test_dcas_success_failure;
          Alcotest.test_case "dcas classification" `Quick test_dcas_is_update_classified;
          Alcotest.test_case "massign/snapshot/sum" `Quick test_massign_snapshot;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "bank" `Quick test_bank_transfer;
          Alcotest.test_case "queue" `Quick test_queue;
          Alcotest.test_case "stack" `Quick test_stack;
          Alcotest.test_case "labels = old formats" `Quick test_labels;
        ] );
      ( "through-store",
        [
          Alcotest.test_case "concurrent dcas" `Quick test_dcas_through_store;
          Alcotest.test_case "bank invariant" `Quick test_bank_invariant_through_store;
        ] );
    ]
