(* The benchmark's calls into each library layer, one wrapper per layer.

   The traced form of every workload reaches the program through these
   functions, making one by one the calls its entry point makes.  A
   wrapper names its span after the layer and counts the items the
   layer worked on: bytes parsed, dependence nodes, scheduled
   iterations, requests.  A memoized pipeline stage that answers from
   its memo table is still a call into the layer, but counts no items. *)

module Pipeline = Dp_pipeline.Pipeline
module Concrete = Dp_dependence.Concrete
module Request = Dp_trace.Request
module Hint = Dp_trace.Hint
module Bin = Dp_trace.Bin
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Oracle = Dp_oracle.Oracle
module Json_out = Dp_harness.Json_out
module Sink = Dp_obs.Sink

let policy_keys = [ "none"; "tpm"; "drpm"; "tpm-proactive"; "drpm-proactive"; "online" ]

let policy_key = function
  | Policy.No_pm -> "none"
  | Policy.Tpm { Policy.proactive; _ } -> if proactive then "tpm-proactive" else "tpm"
  | Policy.Drpm { Policy.proactive; _ } -> if proactive then "drpm-proactive" else "drpm"
  | Policy.Adaptive _ -> "online"

let policy_of_key k =
  match Dp_chaos.Scenario.policy_of_key k with
  | Some p -> p
  | None -> invalid_arg ("unknown policy key " ^ k)

(* A pipeline stage call: [items] counts only when the call built the
   stage (its build counter moved). *)
let stage name ctx built ~items f =
  let before = if !Tracer.enabled then built (Pipeline.stats ctx) else 0 in
  Tracer.span name
    ~items:(fun r -> if built (Pipeline.stats ctx) > before then items r else 0)
    f

let load path =
  Tracer.span "lang" ~items:(fun _ -> (Unix.stat path).Unix.st_size) (fun () -> Pipeline.load path)

let graph ctx =
  stage "dependence" ctx
    (fun s -> s.Pipeline.graph_builds)
    ~items:Concrete.instance_count
    (fun () -> Pipeline.graph ctx)

let rounds ?cluster ctx ~nodes ~procs mode =
  stage "restructure" ctx
    (fun s -> s.Pipeline.stream_builds)
    ~items:(fun r ->
      Option.iter
        (fun n ->
          Tracer.count "restructure.rounds" (float_of_int n);
          Tracer.count "restructure.builds" 1.0)
        r;
      nodes)
    (fun () -> Pipeline.rounds ?cluster ctx ~procs mode)

let trace ?cluster ctx ~procs mode =
  stage "trace" ctx
    (fun s -> s.Pipeline.trace_builds)
    ~items:List.length
    (fun () -> Pipeline.trace ?cluster ctx ~procs mode)

(* The trace summary is the trace layer's work too; it generates no
   request, so it adds time and no items. *)
let summarize reqs = Tracer.span "trace" (fun () -> Dp_trace.Generate.summarize reqs)

let hints_for ?cluster ctx ~trace ~procs ~policy mode =
  stage "oracle" ctx
    (fun s -> s.Pipeline.hint_builds)
    ~items:(fun _ -> List.length trace)
    (fun () -> Pipeline.hints_for ?cluster ctx ~procs ~policy mode)

let hints_of_trace ~space ~disks reqs =
  Tracer.span "oracle"
    ~items:(fun _ -> List.length reqs)
    (fun () -> Oracle.hints_of_trace ~space ~disks reqs)

let lower_bound ?space ~disks reqs =
  Tracer.span "oracle"
    ~items:(fun _ -> List.length reqs)
    (fun () -> Oracle.lower_bound ?space ~disks reqs)

let simulate ?model ?obs ?(hints = []) ~disks policy reqs =
  let n = List.length reqs in
  Tracer.span
    ("disksim." ^ policy_key policy)
    ~items:(fun _ -> n)
    (fun () -> Engine.simulate ?model ?obs ~hints ~disks policy reqs)

let encode ?hints reqs =
  Tracer.span "trace.bin.encode"
    ~items:(fun s ->
      let records = List.length reqs + List.length (Option.value ~default:[] hints) in
      Tracer.count "trace.bin.bytes" (float_of_int (String.length s));
      Tracer.count "trace.bin.records" (float_of_int records);
      records)
    (fun () -> Bin.encode ?hints reqs)

let decode s =
  Tracer.span "trace.bin.decode"
    ~items:(function Ok (r, h, _, _) -> List.length r + List.length h | Error _ -> 0)
    (fun () -> Bin.decode s)

(* One simulation with a streaming per-disk report sink, the way
   [dpsim --obs gaps] consumes the engine: events are folded as they
   arrive and none is retained. *)
let observed ?(hints = []) ~disks policy reqs =
  let events = ref 0 in
  let feed, finish = Dp_obs.Report.builder ~disks in
  let sink =
    Sink.stream (fun e ->
        incr events;
        feed e)
  in
  let n = List.length reqs in
  let r, reports =
    Tracer.span "obs.sink"
      ~items:(fun _ ->
        Tracer.count "obs.events" (float_of_int !events);
        Tracer.count "obs.requests" (float_of_int n);
        !events)
      (fun () ->
        let r = Engine.simulate ~obs:sink ~hints ~disks policy reqs in
        (r, finish ()))
  in
  (r, reports)

let render to_json v =
  Tracer.span "harness.render" ~items:String.length (fun () -> Json_out.to_string (to_json v))

(* The benchmark's own output checks. *)
let check f = Tracer.span "bench.check" f
