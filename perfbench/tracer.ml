(* In-memory span recorder for the traced run.

   A span wraps one call into a library layer, made from the
   benchmark's own code: name, start, end, parent, the words allocated
   across all domains while it was open, and an item count (bytes,
   requests, nodes) that turns its time into a per-item cost.  Spans
   are kept in memory and written out once the run ends.  With tracing
   off, [span] is a single branch around the call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;
  items : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : (int * string) list ref = ref []
let next_id = ref 0
let counters : (string * string, float) Hashtbl.t = Hashtbl.create 16

(* Words allocated so far by the calling domain: exact for the minor
   heap, and as of the last minor collection for blocks allocated
   directly in the major heap.  Layer calls run on the calling domain,
   so this is what a span charges them. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated so far across every domain the runtime has seen,
   terminated pool domains included.  The runtime publishes a domain's
   counts at its minor collections, so this forces one first; meant for
   iteration boundaries, not for spans. *)
let all_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let span ?(items = fun _ -> 0) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    stack := (id, name) :: !stack;
    let w0 = words () in
    let t0 = Unix.gettimeofday () in
    let close n =
      let t1 = Unix.gettimeofday () in
      let w1 = words () in
      stack := List.tl !stack;
      recorded := { id; parent; name; t0; t1; words = w1 -. w0; items = 0 } :: !recorded;
      let items = n () in
      match !recorded with
      | s :: rest -> recorded := { s with items } :: rest
      | [] -> ()
    in
    match f () with
    | r ->
        close (fun () -> items r);
        r
    | exception e ->
        close (fun () -> 0);
        raise e
  end

(* The root span a call runs under: the phase of the run. *)
let phase () = match List.rev !stack with (_, name) :: _ -> name | [] -> ""

(* A named tally kept alongside the spans (scheduler rounds, encoded
   bytes, sink events), per phase; only counted while tracing. *)
let count name n =
  if !enabled then begin
    let key = (phase (), name) in
    Hashtbl.replace counters key (n +. Option.value ~default:0.0 (Hashtbl.find_opt counters key))
  end

let counter ~phases name =
  List.fold_left
    (fun acc p -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt counters (p, name)))
    0.0 phases

(* Duration of the span closed last. *)
let last_duration () = match !recorded with s :: _ -> s.t1 -. s.t0 | [] -> 0.0

let spans () = List.rev !recorded

(* Self time and self words: a span's own figures minus what its direct
   children cover.  Calls are single-threaded and strictly nested, so
   the children's intervals are disjoint and their sum is their union. *)
let self_costs spans =
  let child_t = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_t s.parent (s.t1 -. s.t0);
        add child_w s.parent s.words
      end)
    spans;
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. get child_t s.id, s.words -. get child_w s.id))
    spans

(* The root span each span descends from. *)
let roots spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  fun s -> root s

let to_jsonl spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"words\":%.0f,\"items\":%d}\n"
           s.id s.parent s.name s.t0 s.t1 s.words s.items))
    spans;
  Buffer.contents b
