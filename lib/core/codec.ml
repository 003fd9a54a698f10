(** Plain-text history format, for saving traces and checking them
    offline with the CLI.

    Line-oriented:
    {v
    objects <n>
    mop <id> <proc> <inv> <resp> [<op> ...]
    rf <reader> <obj> <writer>
    v}
    where an op is [r:<obj>:<value>] or [w:<obj>:<value>] and values
    are rendered as [i<int>], [b<bool>], [u] (unit) or [s<string>]
    (strings must not contain whitespace or [:]).  Lines starting with
    [#] and blank lines are ignored.  The initializer m-operation is
    implicit and must not appear. *)

let encode_value = function
  | Value.Int n -> "i" ^ string_of_int n
  | Value.Bool b -> "b" ^ string_of_bool b
  | Value.Unit -> "u"
  | Value.Str s -> "s" ^ s
  | Value.Pair _ | Value.List _ ->
    invalid_arg "Codec: structured values are not supported by the text format"

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* [Mop.make] for the m-operation on line [lineno], where a response
   before the invocation is a parse error like any other bad line. *)
let mop_at lineno ~id ~proc ~ops ~inv ~resp =
  if resp < inv then
    parse_error "line %d: response %d precedes invocation %d" lineno resp inv;
  Mop.make ~id ~proc ~ops ~inv ~resp

let decode_value s =
  if s = "" then parse_error "empty value"
  else
    match (s.[0], String.sub s 1 (String.length s - 1)) with
    | 'i', rest -> (
      match int_of_string_opt rest with
      | Some n -> Value.Int n
      | None -> parse_error "bad int value %S" s)
    | 'b', rest -> (
      match bool_of_string_opt rest with
      | Some b -> Value.Bool b
      | None -> parse_error "bad bool value %S" s)
    | 'u', "" -> Value.Unit
    | 's', rest -> Value.Str rest
    | _ -> parse_error "bad value %S" s

let encode_op = function
  | Op.Read (x, v) -> Fmt.str "r:%d:%s" x (encode_value v)
  | Op.Write (x, v) -> Fmt.str "w:%d:%s" x (encode_value v)

let decode_op s =
  match String.split_on_char ':' s with
  | [ "r"; x; v ] -> Op.read (int_of_string x) (decode_value v)
  | [ "w"; x; v ] -> Op.write (int_of_string x) (decode_value v)
  | _ -> parse_error "bad operation %S" s

let to_string h =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Fmt.str "# mmc history: %d m-operations@\n" (History.n_mops h - 1));
  Buffer.add_string buf (Fmt.str "objects %d@\n" (History.n_objects h));
  List.iter
    (fun (m : Mop.t) ->
      Buffer.add_string buf
        (Fmt.str "mop %d %d %d %d %s@\n" m.Mop.id m.Mop.proc m.Mop.inv
           m.Mop.resp
           (String.concat " " (List.map encode_op m.Mop.ops))))
    (History.real_mops h);
  List.iter
    (fun (e : History.rf_edge) ->
      Buffer.add_string buf
        (Fmt.str "rf %d %d %d@\n" e.History.reader e.History.obj
           e.History.writer))
    (History.rf h);
  Buffer.contents buf

let of_string s =
  let n_objects = ref None in
  let mops = ref [] in
  let rf = ref [] in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "objects"; n ] -> n_objects := Some (int_of_string n)
        | "mop" :: id :: proc :: inv :: resp :: ops ->
          let m =
            mop_at (lineno + 1) ~id:(int_of_string id)
              ~proc:(int_of_string proc) ~ops:(List.map decode_op ops)
              ~inv:(int_of_string inv) ~resp:(int_of_string resp)
          in
          mops := m :: !mops
        | [ "rf"; reader; obj; writer ] ->
          rf :=
            {
              History.reader = int_of_string reader;
              obj = int_of_string obj;
              writer = int_of_string writer;
            }
            :: !rf
        | _ -> parse_error "line %d: cannot parse %S" (lineno + 1) line)
    lines;
  match !n_objects with
  | None -> parse_error "missing 'objects <n>' line"
  | Some n_objects ->
    let mops =
      List.sort (fun (a : Mop.t) (b : Mop.t) -> compare a.Mop.id b.Mop.id)
        !mops
    in
    History.create ~n_objects mops ~rf:(List.rev !rf)

(** NDJSON streaming format: one m-operation per line, so million-op
    traces are piped through [mmc generate --stream] and
    [mmc check --stream] without materialising the whole history.

    {v
    {"objects":8}
    {"id":1,"proc":0,"inv":3,"resp":9,"ops":["w:0:i5"],"rf":[],"sync":0}
    {"id":2,"proc":1,"inv":4,"resp":4,"ops":["r:0:i5"],"rf":[[0,1]]}
    v}

    The first line is the header; every following non-blank line is one
    m-operation with its reads-from edges attached as [[object,
    writer-id]] pairs (writer 0 is the initializer) and, when the trace
    has a synchronization order, its atomic-broadcast position as
    ["sync"].  Ops reuse the text codec's operation strings. *)
module Stream = struct
  (* --- minimal JSON emission (ops strings contain no characters that
     need escaping: the text codec already rejects whitespace/colon in
     string values, and we reject quotes and backslashes here) --- *)

  let check_json_safe s =
    String.iter
      (fun c ->
        if c = '"' || c = '\\' || Char.code c < 0x20 then
          invalid_arg "Codec.Stream: op string not representable in NDJSON")
      s

  let mop_line ?sync (m : Mop.t) ~rf =
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Fmt.str {|{"id":%d,"proc":%d,"inv":%d,"resp":%d,"ops":[|} m.Mop.id
         m.Mop.proc m.Mop.inv m.Mop.resp);
    List.iteri
      (fun i op ->
        if i > 0 then Buffer.add_char buf ',';
        let s = encode_op op in
        check_json_safe s;
        Buffer.add_string buf (Fmt.str "%S" s))
      m.Mop.ops;
    Buffer.add_string buf {|],"rf":[|};
    List.iteri
      (fun i (x, w) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Fmt.str "[%d,%d]" x w))
      rf;
    Buffer.add_char buf ']';
    (match sync with
    | Some s -> Buffer.add_string buf (Fmt.str {|,"sync":%d|} s)
    | None -> ());
    Buffer.add_char buf '}';
    Buffer.contents buf

  let write_header oc ~n_objects =
    output_string oc (Fmt.str {|{"objects":%d}|} n_objects);
    output_char oc '\n'

  let write_mop oc ?sync m ~rf =
    output_string oc (mop_line ?sync m ~rf);
    output_char oc '\n'

  (* --- minimal JSON parsing: flat objects with int, string-array and
     int-pair-array values are all the format needs --- *)

  type json_field =
    | Jint of int
    | Jstrings of string list
    | Jpairs of (int * int) list

  let parse_line lineno line =
    let n = String.length line in
    let pos = ref 0 in
    let error fmt = parse_error ("line %d: " ^^ fmt) lineno in
    let skip_ws () =
      while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
    in
    let expect c =
      skip_ws ();
      if !pos >= n || line.[!pos] <> c then error "expected %C" c;
      incr pos
    in
    let peek () =
      skip_ws ();
      if !pos >= n then error "unexpected end of line";
      line.[!pos]
    in
    let parse_int () =
      skip_ws ();
      let start = !pos in
      if !pos < n && line.[!pos] = '-' then incr pos;
      while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do incr pos done;
      if !pos = start then error "expected an integer";
      int_of_string (String.sub line start (!pos - start))
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      while !pos < n && line.[!pos] <> '"' do
        if line.[!pos] = '\\' then error "escapes not supported";
        incr pos
      done;
      if !pos >= n then error "unterminated string";
      let s = String.sub line start (!pos - start) in
      incr pos;
      s
    in
    let parse_array elt =
      expect '[';
      if peek () = ']' then begin incr pos; [] end
      else begin
        let rec go acc =
          let v = elt () in
          match peek () with
          | ',' -> incr pos; go (v :: acc)
          | ']' -> incr pos; List.rev (v :: acc)
          | c -> error "expected ',' or ']', got %C" c
        in
        go []
      end
    in
    let parse_pair () =
      expect '[';
      let a = parse_int () in
      expect ',';
      let b = parse_int () in
      expect ']';
      (a, b)
    in
    expect '{';
    let fields = ref [] in
    if peek () = '}' then incr pos
    else begin
      let rec go () =
        let key = parse_string () in
        expect ':';
        let v =
          match peek () with
          | '[' -> (
            (* lookahead: array of strings or of pairs *)
            let save = !pos in
            incr pos;
            match peek () with
            | '"' -> pos := save; Jstrings (parse_array parse_string)
            | ']' -> incr pos; Jpairs []
            | _ -> pos := save; Jpairs (parse_array parse_pair))
          | _ -> Jint (parse_int ())
        in
        fields := (key, v) :: !fields;
        match peek () with
        | ',' -> incr pos; go ()
        | '}' -> incr pos
        | c -> error "expected ',' or '}', got %C" c
      in
      go ()
    end;
    skip_ws ();
    if !pos <> n then error "trailing characters after object";
    List.rev !fields

  let read_header ic =
    let rec next lineno =
      match In_channel.input_line ic with
      | None -> parse_error "empty stream: missing header line"
      | Some line when String.trim line = "" -> next (lineno + 1)
      | Some line -> (lineno, line)
    in
    let lineno, line = next 1 in
    match parse_line lineno (String.trim line) with
    | [ ("objects", Jint n) ] -> (n, lineno)
    | _ -> parse_error "line %d: expected header {\"objects\":N}" lineno

  let mop_of_fields lineno fields =
    let int_field k =
      match List.assoc_opt k fields with
      | Some (Jint v) -> v
      | _ -> parse_error "line %d: missing integer field %S" lineno k
    in
    let id = int_field "id" in
    let proc = int_field "proc" in
    let inv = int_field "inv" in
    let resp = int_field "resp" in
    let ops =
      match List.assoc_opt "ops" fields with
      | Some (Jstrings ss) -> List.map decode_op ss
      | Some (Jpairs []) -> []
      | _ -> parse_error "line %d: missing field \"ops\"" lineno
    in
    let rf =
      match List.assoc_opt "rf" fields with
      | Some (Jpairs ps) -> ps
      | Some (Jstrings []) -> []
      | None -> []
      | Some _ -> parse_error "line %d: bad field \"rf\"" lineno
    in
    let sync =
      match List.assoc_opt "sync" fields with
      | Some (Jint s) -> Some s
      | None -> None
      | Some _ -> parse_error "line %d: bad field \"sync\"" lineno
    in
    (mop_at lineno ~id ~proc ~ops ~inv ~resp, rf, sync)

  let fold ic ~init ~f =
    let n_objects, header_line = read_header ic in
    let rec go lineno acc =
      match In_channel.input_line ic with
      | None -> acc
      | Some line when String.trim line = "" -> go (lineno + 1) acc
      | Some line ->
        let m, rf, sync = mop_of_fields lineno (parse_line lineno (String.trim line)) in
        go (lineno + 1) (f acc ~n_objects m ~rf ~sync)
    in
    go (header_line + 1) init

  (* --- whole-history conveniences (the streaming callers above never
     materialize; these are for round-trips and small files) --- *)

  let to_channel oc ?sync_of h =
    write_header oc ~n_objects:(History.n_objects h);
    let rf_of = History.rf_of_reader h in
    List.iter
      (fun (m : Mop.t) ->
        let rf =
          List.map
            (fun (e : History.rf_edge) -> (e.History.obj, e.History.writer))
            (rf_of m.Mop.id)
        in
        let sync = Option.bind sync_of (fun f -> f m.Mop.id) in
        write_mop oc ?sync m ~rf)
      (History.real_mops h)

  let of_channel ic =
    let acc =
      fold ic ~init:(None, [], [])
        ~f:(fun (_, mops, rf) ~n_objects m ~rf:mop_rf ~sync ->
          ignore sync;
          let edges =
            List.map
              (fun (x, w) -> { History.reader = m.Mop.id; obj = x; writer = w })
              mop_rf
          in
          (Some n_objects, m :: mops, List.rev_append edges rf))
    in
    match acc with
    | None, _, _ -> parse_error "empty stream"
    | Some n_objects, mops, rf ->
      let mops =
        List.sort (fun (a : Mop.t) (b : Mop.t) -> compare a.Mop.id b.Mop.id)
          mops
      in
      History.create ~n_objects mops ~rf:(List.rev rf)
end

let to_file h path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string h))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
