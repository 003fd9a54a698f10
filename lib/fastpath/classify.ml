(** Static commutativity classifier for the coordination-avoidance
    fast path.

    The paper's execution constraints (definitions 4.8–4.12) say which
    pairs of m-operations a protocol must order: under WW every pair
    of updates, under OO every writer/accessor pair {e per object}.
    Conversely, two m-operations whose conservative touch sets are
    disjoint are unordered by OO and commute state-wise, so a protocol
    may apply them in either order at every replica and still produce
    an admissible history — this is the segment-confluence observation
    of invariant-confluence systems, instantiated with the paper's own
    constraint vocabulary.

    The classifier makes that check static: given an ownership
    partition of the object space, an m-operation invoked at process
    [p] is {e confluent} when its conservative touch set lies entirely
    in [p]'s home set.  Confluent operations issued by different
    processes are object-disjoint by construction (home sets are
    disjoint), hence pairwise commuting; confluent operations of the
    same process are ordered by its program order, which the [seg]
    store preserves.  Everything else — and under WW also every
    update whose write set leaves the home set — is {e sequenced}:
    it must go through the atomic broadcast.

    Soundness is never assumed: every run of the [seg] store is
    re-checked by the Theorem-7 oracle, and the deliberately broken
    {!Trust_labels} mode exists so tests can pin that a wrong
    classifier is {e caught}, not silently tolerated. *)

type verdict = Confluent | Sequenced

type mode =
  | Sound
      (** ownership rule: confluent iff the touch set is homed at the
          issuer *)
  | Off
      (** classify every update as sequenced — the broadcast-always
          A/B baseline ([--fastpath off]) *)
  | Trust_labels of string list
      (** DELIBERATELY WRONG: additionally trust any m-operation whose
          label starts with one of the prefixes (e.g. ["transfer"]) to
          be confluent, ignoring ownership.  Exists only so the test
          suite can verify the Theorem-7 oracle catches an unsound
          classifier. *)

let pp_verdict ppf = function
  | Confluent -> Fmt.string ppf "confluent"
  | Sequenced -> Fmt.string ppf "sequenced"

let pp_mode ppf = function
  | Sound -> Fmt.string ppf "sound"
  | Off -> Fmt.string ppf "off"
  | Trust_labels ps -> Fmt.pf ppf "trust-labels[%s]" (String.concat "," ps)

let mode_of_string = function
  | "sound" | "on" -> Some Sound
  | "off" -> Some Off
  | "wrong" -> Some (Trust_labels [ "transfer"; "move" ])
  | _ -> None

(** A mode is {e trusted} when its confluent class provably commutes;
    untrusted modes make the [seg] store record fast writes in
    per-replica version namespaces, so unsound interleavings surface
    as Theorem-7 FAIL verdicts instead of recorder crashes. *)
let trusted = function Sound | Off -> true | Trust_labels _ -> false

let label_matches prefixes label =
  List.exists
    (fun p ->
      String.length label >= String.length p
      && String.sub label 0 (String.length p) = p)
    prefixes

(** [classify mode ownership ~proc ~label ~may_touch] — verdict for an
    m-operation with the given conservative touch set invoked at
    [proc].  The touch set is the sound basis ([may_touch ⊇ may_write]
    and a superset of everything read): two operations with
    [proc]-homed touch sets at different processes touch disjoint
    objects, so they commute under WW and are unordered by OO. *)
let classify mode ownership ~proc ~label ~may_touch =
  match mode with
  | Off -> Sequenced
  | Sound ->
    if may_touch <> [] && Ownership.owns ownership ~proc may_touch then
      Confluent
    else Sequenced
  | Trust_labels prefixes ->
    if label_matches prefixes label then Confluent
    else if may_touch <> [] && Ownership.owns ownership ~proc may_touch then
      Confluent
    else Sequenced
