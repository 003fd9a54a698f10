(** Anti-entropy state transfer for rejoining replicas (see the
    interface). *)

open Mmc_sim

type ('s, 'p) msg =
  | Pull of { from_ : int }
  | Push of {
      from_ : int;
      cursor : int;
      snap : (int * 's) option;
      entries : 'p Wal.entry list;
    }
  | Repair of { positions : int list }
  | Patch of { entries : 'p Wal.entry list }

type ('s, 'p) t = {
  net : ('s, 'p) msg Transport.t;
  mutable pulls : int;
  mutable pushes : int;
  mutable entries_pushed : int;
  mutable snapshots_pushed : int;
  mutable repairs : int;
  mutable patches : int;
}

let create ?fault ?config ?serve_one ?patch engine ~n ~latency ~rng ~serve
    ~learn =
  let net = Transport.create ?fault ?config engine ~n ~latency ~rng in
  let t =
    {
      net;
      pulls = 0;
      pushes = 0;
      entries_pushed = 0;
      snapshots_pushed = 0;
      repairs = 0;
      patches = 0;
    }
  in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun src msg ->
        match msg with
        | Pull { from_ } ->
          let cursor, snap, entries = serve ~node ~from:from_ in
          t.pushes <- t.pushes + 1;
          t.entries_pushed <- t.entries_pushed + List.length entries;
          if snap <> None then t.snapshots_pushed <- t.snapshots_pushed + 1;
          Transport.send net ~src:node ~dst:src
            (Push { from_; cursor; snap; entries })
        | Push { from_; cursor; snap; entries } ->
          learn ~node ~from:from_ ~peer_cursor:cursor ~snap entries
        | Repair { positions } -> (
          match serve_one with
          | None -> ()
          | Some serve_one ->
            let entries =
              List.filter_map (fun pos -> serve_one ~node ~pos) positions
            in
            if entries <> [] then begin
              t.patches <- t.patches + 1;
              t.entries_pushed <- t.entries_pushed + List.length entries;
              Transport.send net ~src:node ~dst:src (Patch { entries })
            end)
        | Patch { entries } -> (
          match patch with None -> () | Some patch -> patch ~node entries))
  done;
  t

let pull t ~node ~from =
  t.pulls <- t.pulls + 1;
  for dst = 0 to Transport.n_nodes t.net - 1 do
    if dst <> node then Transport.send t.net ~src:node ~dst (Pull { from_ = from })
  done

let repair t ~node ~positions =
  if positions <> [] then begin
    t.repairs <- t.repairs + 1;
    for dst = 0 to Transport.n_nodes t.net - 1 do
      if dst <> node then
        Transport.send t.net ~src:node ~dst (Repair { positions })
    done
  end

let messages_sent t = Transport.messages_sent t.net
let pulls t = t.pulls
let pushes t = t.pushes
let entries_pushed t = t.entries_pushed
let snapshots_pushed t = t.snapshots_pushed
let repairs t = t.repairs
let patches t = t.patches
