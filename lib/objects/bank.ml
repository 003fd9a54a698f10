(** Bank accounts: the transaction-flavoured application (the paper
    notes that a database transaction viewed as an atomic operation is
    an m-operation over multiple data items).

    Each account is one shared object holding an integer balance.
    [transfer] only moves money when funds suffice — its write set
    depends on the value read, the conservative-update case.  [audit]
    atomically sums balances; under m-linearizability (or m-sequential
    consistency) audits always observe the invariant total. *)

open Mmc_core
open Mmc_store

(** [transfer ~from_ ~to_ amount] — returns [Bool true] iff the
    transfer happened. *)
let transfer ~from_ ~to_ amount =
  Prog.mprog
    ~label:("transfer(x" ^ string_of_int from_ ^ "->x" ^ string_of_int to_ ^ ","
       ^ string_of_int amount ^ ")")
    ~may_write:[ from_; to_ ]
    (Prog.read from_ (fun v_from ->
         if Value.to_int v_from < amount then Prog.return (Value.Bool false)
         else
           Prog.read to_ (fun v_to ->
               Prog.write from_
                 (Value.Int (Value.to_int v_from - amount))
                 (Prog.write to_
                    (Value.Int (Value.to_int v_to + amount))
                    (Prog.return (Value.Bool true))))))

(** Atomically observe the total balance over [accounts]. *)
let audit accounts =
  Prog.mprog
    ~label:("audit(" ^ string_of_int (List.length accounts) ^ " accounts)")
    ~may_touch:accounts ~may_write:[]
    (Prog.read_all accounts (fun vs ->
         let total = List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs in
         Prog.return (Value.Int total)))

(** Deposit into one account (single-object update). *)
let deposit account amount =
  Prog.mprog
    ~label:
      ("deposit(x" ^ string_of_int account ^ "," ^ string_of_int amount ^ ")")
    ~may_write:[ account ]
    (Prog.read account (fun v ->
         Prog.write account
           (Value.Int (Value.to_int v + amount))
           (Prog.return Value.Unit)))

let balance account =
  Prog.mprog
    ~label:("balance(x" ^ string_of_int account ^ ")")
    ~may_touch:[ account ] ~may_write:[]
    (Prog.read account Prog.return)
