(** The SmallBank OLTP transaction mix over shared objects — the
    classic multi-object benchmark shape (checking + savings account
    per customer, five transaction types), expressed as m-operations.

    Customer [c]'s checking account is object [2c], savings [2c + 1].
    Money is conserved by every transaction except [deposit_checking] /
    [transact_savings] (external in/outflow) and the write-check
    overdraft penalty, so invariant experiments use the
    payment/amalgamate subset. *)

open Mmc_core
open Mmc_store

let checking c = 2 * c
let savings c = (2 * c) + 1

(** Objects needed for [n] customers. *)
let n_objects ~customers = 2 * customers

let int_v n = Value.Int n

(** Read both balances atomically; returns [Int (checking + savings)]. *)
let balance c =
  Prog.mprog
    ~label:("balance(" ^ string_of_int c ^ ")")
    ~may_touch:[ checking c; savings c ]
    ~may_write:[]
    (Prog.read (checking c) (fun chk ->
         Prog.read (savings c) (fun sav ->
             Prog.return (int_v (Value.to_int chk + Value.to_int sav)))))

(** Deposit [v >= 0] into checking. *)
let deposit_checking c v =
  Prog.mprog
    ~label:("deposit_checking(" ^ string_of_int c ^ "," ^ string_of_int v ^ ")")
    ~may_write:[ checking c ]
    (Prog.read (checking c) (fun chk ->
         Prog.write (checking c)
           (int_v (Value.to_int chk + v))
           (Prog.return (Value.Bool true))))

(** Add [v] (possibly negative) to savings, failing if the result
    would be negative. *)
let transact_savings c v =
  Prog.mprog
    ~label:("transact_savings(" ^ string_of_int c ^ "," ^ string_of_int v ^ ")")
    ~may_write:[ savings c ]
    (Prog.read (savings c) (fun sav ->
         let s = Value.to_int sav + v in
         if s < 0 then Prog.return (Value.Bool false)
         else Prog.write (savings c) (int_v s) (Prog.return (Value.Bool true))))

(** Move all of [c1]'s funds (checking + savings) into [c2]'s
    checking; zeroes [c1]'s accounts.  A four-object update. *)
let amalgamate c1 c2 =
  Prog.mprog
    ~label:("amalgamate(" ^ string_of_int c1 ^ "," ^ string_of_int c2 ^ ")")
    ~may_write:[ checking c1; savings c1; checking c2 ]
    (Prog.read (checking c1) (fun chk1 ->
         Prog.read (savings c1) (fun sav1 ->
             Prog.read (checking c2) (fun chk2 ->
                 let total = Value.to_int chk1 + Value.to_int sav1 in
                 Prog.write (checking c1) (int_v 0)
                   (Prog.write (savings c1) (int_v 0)
                      (Prog.write (checking c2)
                         (int_v (Value.to_int chk2 + total))
                         (Prog.return (Value.Bool true))))))))

(** Cash a check for [v] against the combined balance; an overdraft
    incurs a 1-unit penalty (the SmallBank quirk).  Returns
    [Bool true] iff no penalty. *)
let write_check c v =
  Prog.mprog
    ~label:("write_check(" ^ string_of_int c ^ "," ^ string_of_int v ^ ")")
    ~may_touch:[ checking c; savings c ]
    ~may_write:[ checking c ]
    (Prog.read (checking c) (fun chk ->
         Prog.read (savings c) (fun sav ->
             let total = Value.to_int chk + Value.to_int sav in
             if total < v then
               Prog.write (checking c)
                 (int_v (Value.to_int chk - (v + 1)))
                 (Prog.return (Value.Bool false))
             else
               Prog.write (checking c)
                 (int_v (Value.to_int chk - v))
                 (Prog.return (Value.Bool true)))))

(** Transfer [v] from [c1]'s checking to [c2]'s checking if funds
    suffice.  Conserves money. *)
let send_payment c1 c2 v =
  Prog.mprog
    ~label:("send_payment(" ^ string_of_int c1 ^ "," ^ string_of_int c2 ^ ","
       ^ string_of_int v ^ ")")
    ~may_write:[ checking c1; checking c2 ]
    (Prog.read (checking c1) (fun chk1 ->
         if Value.to_int chk1 < v then Prog.return (Value.Bool false)
         else
           Prog.read (checking c2) (fun chk2 ->
               Prog.write (checking c1)
                 (int_v (Value.to_int chk1 - v))
                 (Prog.write (checking c2)
                    (int_v (Value.to_int chk2 + v))
                    (Prog.return (Value.Bool true))))))

(** Atomic audit over all customers; returns [Int total]. *)
let audit ~customers =
  let xs = List.init (n_objects ~customers) Fun.id in
  Prog.mprog
    ~label:("audit(" ^ string_of_int customers ^ " customers)")
    ~may_touch:xs ~may_write:[]
    (Prog.read_all xs (fun vs ->
         Prog.return
           (int_v (List.fold_left (fun a v -> a + Value.to_int v) 0 vs))))

(** The conserving transaction mix (payments + amalgamates + balances
    + audits): total money is invariant, which the audit observes. *)
let conserving_mix ~customers rng ~proc:_ ~step:_ =
  let open Mmc_sim in
  let c () = Rng.int rng ~bound:customers in
  match Rng.int rng ~bound:10 with
  | 0 | 1 | 2 -> balance (c ())
  | 3 -> audit ~customers
  | 4 | 5 ->
    let c1 = c () in
    let c2 = (c1 + 1 + Rng.int rng ~bound:(customers - 1)) mod customers in
    amalgamate c1 c2
  | _ ->
    let c1 = c () in
    let c2 = (c1 + 1 + Rng.int rng ~bound:(customers - 1)) mod customers in
    send_payment c1 c2 (1 + Rng.int rng ~bound:25)
