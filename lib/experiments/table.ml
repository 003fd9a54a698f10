(** Experiment result tables (the rows the paper's evaluation would
    print, per EXPERIMENTS.md). *)

type t = {
  id : string;  (** experiment id from DESIGN.md, e.g. "T1" *)
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;  (** expected shape / interpretation *)
}

let cell_width col table =
  List.fold_left
    (fun acc row -> max acc (String.length (List.nth row col)))
    (String.length (List.nth table.header col))
    table.rows

let render ppf table =
  let n_cols = List.length table.header in
  let widths = List.init n_cols (fun c -> cell_width c table) in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    String.concat "  " (List.map2 pad row widths)
  in
  Fmt.pf ppf "@[<v>== %s: %s ==@,%s@,%s@," table.id table.title
    (render_row table.header)
    (String.make (List.fold_left ( + ) (2 * (n_cols - 1)) widths) '-');
  List.iter (fun row -> Fmt.pf ppf "%s@," (render_row row)) table.rows;
  List.iter (fun n -> Fmt.pf ppf "note: %s@," n) table.notes;
  Fmt.pf ppf "@]"

let print table = Fmt.pr "%a@." render table

let f1 x = Fmt.str "%.1f" x
let f2 x = Fmt.str "%.2f" x
let i = string_of_int

(** CPU-time a thunk, in milliseconds. *)
let time_ms f =
  let t0 = Sys.time () in
  let result = f () in
  let t1 = Sys.time () in
  (result, (t1 -. t0) *. 1000.0)
