(** Low watermark plus sparse members above it (see the interface). *)

type t = { mutable low : int; above : (int, unit) Hashtbl.t }

let create () = { low = 0; above = Hashtbl.create 8 }
let copy t = { low = t.low; above = Hashtbl.copy t.above }
let low t = t.low
let mem t n = n < t.low || Hashtbl.mem t.above n

(* Move the watermark up over consecutive sparse members.  The table
   does not shrink by itself, so it is reset once it empties: a burst
   of stragglers must not pin its peak bucket array for good. *)
let advance t =
  if Hashtbl.length t.above > 0 then begin
    while Hashtbl.mem t.above t.low do
      Hashtbl.remove t.above t.low;
      t.low <- t.low + 1
    done;
    if Hashtbl.length t.above = 0 then Hashtbl.reset t.above
  end

let add t n =
  if n < 0 then invalid_arg "Watermark.add: negative member";
  if n = t.low then begin
    t.low <- n + 1;
    advance t
  end
  else if n > t.low then Hashtbl.replace t.above n ()

let add_below t k =
  if k > t.low then begin
    t.low <- k;
    Hashtbl.filter_map_inplace
      (fun n () -> if n < k then None else Some ())
      t.above;
    advance t;
    if Hashtbl.length t.above = 0 then Hashtbl.reset t.above
  end

let above t = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) t.above [])
let sparse t = Hashtbl.length t.above
