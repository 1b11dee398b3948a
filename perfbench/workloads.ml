(* The four workloads: [dpcc report], [dpcc serve], [dpsim] replay and
   [dpcc chaos].  Each has two forms of its iteration.  The measured
   form calls the library function the CLI calls
   ([Experiments.build_matrix], [Serve.run], [Chaos.soak]; the replay
   has none and calls [Bin] and [Engine.simulate] itself).  The traced
   form makes the same layer calls one by one through {!Layers}, so the
   traced run can time every layer.  [bless] pins the digest of the
   entry point's artifact, and both forms must reproduce it. *)

module Pipeline = Dp_pipeline.Pipeline
module Concrete = Dp_dependence.Concrete
module Version = Dp_harness.Version
module Runner = Dp_harness.Runner
module Experiments = Dp_harness.Experiments
module Json_out = Dp_harness.Json_out
module Request = Dp_trace.Request
module Hint = Dp_trace.Hint
module Bin = Dp_trace.Bin
module Engine = Dp_disksim.Engine
module Policy = Dp_disksim.Policy
module Oracle = Dp_oracle.Oracle
module Serve = Dp_serve.Serve
module Tenant = Dp_serve.Tenant
module Mux = Dp_serve.Mux
module Account = Dp_serve.Account
module Splitmix = Dp_util.Splitmix
module Fsx = Dp_util.Fsx
module Scenario = Dp_chaos.Scenario
module Check = Dp_chaos.Check
module Chaos = Dp_chaos.Chaos
module Sink = Dp_obs.Sink

(* What one iteration did: operations attempted, the name of the failed
   check for each operation that failed, and the requests it fed to
   [Engine.simulate]. *)
type outcome = { ops : int; failures : string list; sim : int }

(* A workload once set up: its measured and its traced iteration. *)
type iteration = { run : unit -> outcome; traced : unit -> outcome }

let digest s = Digest.to_hex (Digest.string s)

(* {1 Pinned digests} *)

let pins_file = "perfbench/digests.txt"

let read_pins () =
  let tbl = Hashtbl.create 64 in
  (match Fsx.read_file pins_file with
  | text ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ key; hex ] when line.[0] <> '#' -> Hashtbl.replace tbl key hex
          | _ -> ())
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> ());
  tbl

(* [None] when the artifact matches its pin, else the failed check. *)
let against pins key artifact =
  match Hashtbl.find_opt pins key with
  | Some hex when hex = digest artifact -> None
  | Some _ -> Some ("digest:" ^ key)
  | None -> Some ("digest-unpinned:" ^ key)

let conservation label r =
  match Engine.check_conservation r with
  | Ok () -> None
  | Error _ -> Some ("conservation:" ^ label)

(* Seeded workloads draw their inputs from one of [seed_classes] pinned
   input seeds, so every run checks its artifact against a pin. *)
let seed_classes = 16
let input_seed seed = ((seed mod seed_classes) + seed_classes) mod seed_classes

(* {1 paper-matrix: [dpcc report -p 4 --no-cache] on two programs} *)

let paper_sources = [ "examples/programs/ast.dpl"; "examples/programs/rsense.dpl" ]
let paper_procs = 4
let paper_versions = Version.multi_cpu @ Version.oracle

(* [Runner.run] for one version, call for call. *)
let run_cell ctx ~nodes ~procs v =
  match Version.oracle_space v with
  | Some space ->
      let trace = Layers.trace ctx ~procs Pipeline.Original in
      let bound = Layers.lower_bound ~space ~disks:(Pipeline.disks ctx) trace in
      let result =
        { bound.Oracle.base with Engine.policy = Version.name v; energy_j = bound.Oracle.energy_j }
      in
      { Runner.version = v; procs; result; summary = Layers.summarize trace; scheduler_rounds = None; obs = None }
  | None ->
      let mode = Version.mode v in
      let scheduler_rounds = Layers.rounds ctx ~nodes ~procs mode in
      let trace = Layers.trace ctx ~procs mode in
      let policy = Version.policy v in
      let hints =
        if Version.restructured v then Layers.hints_for ctx ~trace ~procs ~policy mode else []
      in
      let result = Layers.simulate ~hints ~disks:(Pipeline.disks ctx) policy trace in
      { Runner.version = v; procs; result; summary = Layers.summarize trace; scheduler_rounds; obs = None }

(* [Experiments.build_matrix] for one application with jobs 1, call
   for call. *)
let matrix_layers source =
  let app = Pipeline.app (Layers.load source) in
  let ctx = Runner.context app in
  let nodes = Concrete.instance_count (Layers.graph ctx) in
  [ (app, List.map (fun v -> (v, run_cell ctx ~nodes ~procs:paper_procs v)) paper_versions) ]

let matrix_entry source =
  let app = Pipeline.app (Pipeline.load source) in
  Experiments.build_matrix ~apps:[ app ] ~jobs:1 ~procs:paper_procs ~versions:paper_versions ()

let paper_key source = "paper-matrix/" ^ Filename.basename source

let paper_reference source =
  Json_out.to_string_precise (Json_out.of_matrix (matrix_entry source))

(* The cells of one application's matrix: its digest equals the pin,
   and every simulated cell conserves energy.  An oracle cell's engine
   run is the no-PM run of the original trace, the Base cell's run, so
   the Base cell's check covers it; its bound is covered by the digest. *)
let check_matrix pins source matrix =
  let cells = List.concat_map snd matrix in
  let failures =
    Layers.check (fun () ->
        match
          against pins (paper_key source) (Json_out.to_string_precise (Json_out.of_matrix matrix))
        with
        | Some f -> List.map (fun _ -> f) cells
        | None ->
            List.filter_map
              (fun (v, (r : Runner.run)) ->
                match Version.oracle_space v with
                | Some _ -> None
                | None -> conservation (Filename.basename source ^ ":" ^ Version.name v) r.Runner.result)
              cells)
  in
  let sim =
    List.fold_left
      (fun n (v, (r : Runner.run)) ->
        if Version.oracle_space v = None then n + r.Runner.summary.Dp_trace.Generate.requests else n)
      0 cells
  in
  { ops = List.length cells; failures; sim }

let paper_matrix ~seed:_ () =
  let pins = read_pins () in
  (* Set-up reads and parses both programs; the iteration loads them
     again, as every [dpcc report] invocation does. *)
  List.iter (fun source -> ignore (Layers.load source)) paper_sources;
  let iteration build () =
    List.fold_left
      (fun acc source ->
        let matrix = build source in
        ignore (Layers.render Json_out.of_matrix matrix);
        let o = check_matrix pins source matrix in
        { ops = acc.ops + o.ops; failures = acc.failures @ o.failures; sim = acc.sim + o.sim })
      { ops = 0; failures = []; sim = 0 } paper_sources
  in
  { run = iteration matrix_entry; traced = iteration matrix_layers }

(* {1 served-array: [dpcc serve --tenants 600 --jobs 1 --no-cache]} *)

let serve_tenants = 600

type served = {
  report : Serve.report;
  sims : (string * Engine.result * Account.summary) list;
  bound : Engine.result;
  merged : Request.t list;
}

(* [Serve.run] with jobs 1 and selection [all], call for call. *)
let serve_once (cfg : Serve.config) =
  let tenants = cfg.Serve.tenants and seed = cfg.Serve.seed in
  let disks = cfg.Serve.disks in
  let root = Splitmix.create seed in
  let pop_rng = Splitmix.split root in
  let mux_rng = Splitmix.split root in
  let population, merged, by_tenant =
    Tracer.span "serve.build"
      ~items:(fun (_, m, _) -> List.length m)
      (fun () ->
        let population = Tenant.population ~rng:pop_rng ~tenants ~disks () in
        let merged = Mux.merge ~rng:mux_rng ~jitter_ms:cfg.Serve.jitter_ms population in
        let by_tenant = Array.make tenants [] in
        List.iter (fun (r : Request.t) -> by_tenant.(r.proc) <- r :: by_tenant.(r.proc)) merged;
        (population, merged, Array.map List.rev by_tenant))
  in
  let offline_hints space =
    Tracer.span "oracle"
      ~items:(fun _ -> List.length merged)
      (fun () ->
        List.stable_sort Hint.compare_at
          (List.concat_map
             (fun stream -> Oracle.hints_of_trace ~space ~disks stream)
             (Array.to_list by_tenant)))
  in
  let sim label policy space =
    let hints = match space with None -> [] | Some s -> offline_hints s in
    let sink, finish = Account.recorder ~tenants ~disks () in
    let res = Layers.simulate ~obs:sink ~hints ~disks policy merged in
    let summary = Tracer.span "serve.account.finish" finish in
    ( {
        Serve.label;
        detail = Policy.describe policy;
        energy_j = res.Engine.energy_j;
        makespan_ms = res.Engine.makespan_ms;
        summary = Some summary;
        obs = None;
        frames = None;
      },
      (label, res, summary) )
  in
  let sims =
    List.map
      (fun (label, policy, space) -> sim label policy space)
      [
        ("base", Policy.No_pm, None);
        ("offline-tpm", Policy.tpm ~proactive:true (), Some Oracle.Tpm_space);
        ("offline-drpm", Policy.drpm ~proactive:true (), Some Oracle.Drpm_space);
        ("online", Policy.default_adaptive, None);
      ]
  in
  let b = Layers.lower_bound ~space:Oracle.Full_space ~disks merged in
  let oracle_row =
    {
      Serve.label = "oracle";
      detail = "offline-optimal lower bound (full space)";
      energy_j = b.Oracle.energy_j;
      makespan_ms = b.Oracle.base.Engine.makespan_ms;
      summary = None;
      obs = None;
      frames = None;
    }
  in
  let report =
    {
      Serve.config = cfg;
      requests = List.length merged;
      kinds =
        Array.of_list (List.map (fun (t : Tenant.t) -> Tenant.kind_name t.Tenant.kind) population);
      rows = List.map fst sims @ [ oracle_row ];
    }
  in
  { report; sims = List.map snd sims; bound = b.Oracle.base; merged }

let serve_key seed = Printf.sprintf "served-array/seed-%d" seed
let serve_config seed = Serve.config ~tenants:serve_tenants ~seed ()

let serve_reference seed =
  Json_out.to_string_precise (Json_out.of_serve (Serve.run (serve_config seed)))

(* The accounting sink in isolation: the base row's event stream,
   recorded once, replayed into a fresh recorder and summarized. *)
let account_replay (cfg : Serve.config) merged =
  let disks = cfg.Serve.disks and tenants = cfg.Serve.tenants in
  let ring = Sink.ring ~capacity:(16 * (List.length merged + 64)) () in
  ignore (Engine.simulate ~obs:ring ~disks Policy.No_pm merged);
  let events = Sink.events ring in
  Tracer.span "serve.account"
    ~items:(fun _ -> List.length merged)
    (fun () ->
      let sink, finish = Account.recorder ~tenants ~disks () in
      List.iter (Sink.emit sink) events;
      ignore (finish ()))

let last_served = ref None

(* The rows of a report: its digest equals the pin, and every
   simulated row's accounting summary carries the engine's energy bit
   for bit, with attributed + unattributed = total.  [extra] are the
   traced form's further checks, which need the engine results. *)
let check_report pins seed (report : Serve.report) extra =
  let rows = report.Serve.rows in
  let failures =
    Layers.check (fun () ->
        match against pins (serve_key seed) (Json_out.to_string_precise (Json_out.of_serve report)) with
        | Some f -> List.map (fun _ -> f) rows
        | None ->
            let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
            List.filter_map
              (fun (row : Serve.row) ->
                match row.Serve.summary with
                | Some sum ->
                    if
                      sum.Account.energy_j = row.Serve.energy_j
                      && close (sum.Account.attributed_j +. sum.Account.unattributed_j) sum.Account.energy_j
                    then None
                    else Some ("attribution:" ^ row.Serve.label)
                | None -> (* the oracle bound, covered by the digest *) None)
              rows
            @ extra ())
  in
  let simulated = List.length (List.filter (fun r -> r.Serve.summary <> None) rows) in
  { ops = List.length rows; failures; sim = simulated * report.Serve.requests }

let served_array ~seed () =
  let pins = read_pins () in
  let seed = input_seed seed in
  let cfg = serve_config seed in
  let run () =
    let report = Serve.run cfg in
    ignore (Layers.render Json_out.of_serve report);
    check_report pins seed report (fun () -> [])
  in
  let traced () =
    let s = serve_once cfg in
    last_served := Some (cfg, s.merged);
    ignore (Layers.render Json_out.of_serve s.report);
    check_report pins seed s.report (fun () ->
        List.filter_map (fun (label, r, _) -> conservation ("serve:" ^ label) r) s.sims
        @ Option.to_list (conservation "serve:oracle" s.bound))
  in
  { run; traced }

(* {1 trace-replay: [dpsim] over the six applications' binary traces} *)

type replay_trace = {
  name : string;
  disks : int;
  reqs : Request.t list;
  hints : Hint.t list;
}

(* The sink pass runs under the hinted proactive spin-down policy. *)
let sink_policy = "tpm-proactive"

(* [dpcc trace app:X --format bin] and [dpcc trace app:X --restructure
   --hints --format bin] for every application, at one processor.  [f]
   consumes each trace as it is made, so one application's traces are
   live at a time. *)
let replay_traces f =
  List.concat_map
    (fun app ->
      let ctx = Runner.context app in
      let disks = Pipeline.disks ctx in
      let nodes = Concrete.instance_count (Layers.graph ctx) in
      let make mode hinted suffix =
        ignore (Layers.rounds ctx ~nodes ~procs:1 mode);
        let reqs = Layers.trace ctx ~procs:1 mode in
        let hints =
          if hinted then Layers.hints_of_trace ~space:Oracle.Full_space ~disks reqs else []
        in
        f
          {
            name = app.Dp_workloads.App.name ^ suffix;
            disks;
            reqs = List.map Bin.quantize reqs;
            hints = List.map Bin.quantize_hint hints;
          }
      in
      let base = make Pipeline.Original false "/base" in
      [ base; make Pipeline.Reuse_single true "/restructured" ])
    (Dp_workloads.Workloads.all ())

let results_artifact results =
  Json_out.to_string_precise
    (Json_out.List
       (List.map
          (fun (name, key, (r : Engine.result)) ->
            Json_out.Obj
              [
                ("trace", Json_out.String name);
                ("policy", Json_out.String key);
                ("energy_j", Json_out.Float r.Engine.energy_j);
                ("io_time_ms", Json_out.Float r.Engine.io_time_ms);
                ("makespan_ms", Json_out.Float r.Engine.makespan_ms);
              ])
          results))

let replay_key = "trace-replay"

let replay_reference () =
  results_artifact
    (List.concat
       (replay_traces (fun t ->
            List.map
              (fun key ->
                ( t.name,
                  key,
                  Engine.simulate ~hints:t.hints ~disks:t.disks (Layers.policy_of_key key) t.reqs ))
              Layers.policy_keys)))

(* The sink pass: a streaming per-disk report must not change the
   result, and its per-disk energies must add up to it. *)
let sink_pass ~null t =
  let r, reports = Layers.observed ~hints:t.hints ~disks:t.disks (Layers.policy_of_key sink_policy) t.reqs in
  let total = Array.fold_left (fun acc d -> acc +. d.Dp_obs.Report.energy_j) 0.0 reports in
  if
    r.Engine.energy_j = null.Engine.energy_j
    && Float.abs (total -. r.Engine.energy_j) <= 1e-6 *. Float.max 1.0 r.Engine.energy_j
  then None
  else Some ("obs-report:" ^ t.name)

let replay_one t =
  let results =
    List.map
      (fun key ->
        let r = Layers.simulate ~hints:t.hints ~disks:t.disks (Layers.policy_of_key key) t.reqs in
        if key = sink_policy then Tracer.count "obs.null_s" (Tracer.last_duration ());
        (key, r))
      Layers.policy_keys
  in
  (results, sink_pass ~null:(List.assoc sink_policy results) t)

let trace_replay ~seed:_ () =
  let pins = read_pins () in
  (* Set-up keeps the traces as the binary files [dpcc trace] writes. *)
  let files = replay_traces (fun t -> ({ t with reqs = []; hints = [] }, Layers.encode ~hints:t.hints t.reqs)) in
  (* Per trace: the codec round trip, six policies and the sink pass. *)
  let ops = List.length files * (2 + List.length Layers.policy_keys) in
  let iteration () =
    (* One trace at a time through read, replay and write, as separate
       [dpsim] and [dpcc convert] invocations would: one decoded copy is
       live at a time. *)
    let replayed =
      List.map
        (fun (t, bytes) ->
          match Layers.decode bytes with
          | Ok (reqs, hints, _, _) ->
              let t = { t with reqs; hints } in
              let results = replay_one t in
              let written = Layers.encode ~hints t.reqs in
              (t, Layers.check (fun () -> String.equal written bytes), results)
          | Error _ -> (t, false, ([], Some ("decode:" ^ t.name))))
        files
    in
    let failures =
      Layers.check (fun () ->
          let results =
            List.concat_map
              (fun (t, _, (rs, _)) -> List.map (fun (key, r) -> (t.name, key, r)) rs)
              replayed
          in
          match against pins replay_key (results_artifact results) with
          | Some f -> List.init ops (fun _ -> f)
          | None ->
              List.concat_map
                (fun (t, same, (rs, sink)) ->
                  (if same then [] else [ "roundtrip:" ^ t.name ])
                  @ List.filter_map (fun (key, r) -> conservation (t.name ^ ":" ^ key) r) rs
                  @ Option.to_list sink)
                replayed)
    in
    (* Each trace is simulated under every policy and once more with the sink. *)
    let passes = List.length Layers.policy_keys + 1 in
    let sim = List.fold_left (fun n (t, _, _) -> n + (passes * List.length t.reqs)) 0 replayed in
    { ops; failures; sim }
  in
  (* [dpsim] has no library entry point of its own: both forms make the
     codec and engine calls through {!Layers}. *)
  { run = iteration; traced = iteration }

(* {1 chaos-soak: [dpcc chaos --seed S --budget 400]} *)

let chaos_budget = 400

(* One scenario's outcome as the pinned artifact records it.  Only this
   much is kept per scenario, so the benchmark holds no scenario beyond
   the one being checked. *)
type soaked = { token : string; runs : int; requests : int; findings : string list }

let soaked s (o : Check.outcome) =
  {
    token = Scenario.token_string s;
    runs = o.Check.runs;
    requests = o.Check.requests;
    findings = List.map (fun v -> v.Check.check) o.Check.violations;
  }

let chaos_artifact soak =
  Json_out.to_string_precise
    (Json_out.List
       (List.map
          (fun x ->
            Json_out.Obj
              [
                ("token", Json_out.String x.token);
                ("runs", Json_out.Int x.runs);
                ("requests", Json_out.Int x.requests);
                ("violations", Json_out.Int (List.length x.findings));
              ])
          soak))

let chaos_key seed = Printf.sprintf "chaos-soak/seed-%d" seed

(* [dpcc chaos --seed S --budget 400]. *)
let soak_entry seed =
  let seen = ref [] in
  ignore
    (Chaos.soak
       ~progress:(fun (_, s, o) -> seen := soaked s o :: !seen)
       {
         Chaos.default_config with
         Chaos.seed;
         budget = Some chaos_budget;
         out_dir = Filename.concat (Filename.get_temp_dir_name ()) "repros";
       });
  List.rev !seen

let chaos_reference seed = chaos_artifact (soak_entry seed)

(* The scenarios [Chaos.soak] draws from a seed. *)
let scenarios ~seed ~budget =
  let root = Splitmix.create seed in
  List.init budget (fun _ -> Scenario.generate (Splitmix.next_int64 root))

(* [Chaos.soak] without shrinking, call for call: draw a scenario from
   the seed's stream, then check it. *)
let soak_layers seed =
  let root = Splitmix.create seed in
  List.init chaos_budget (fun _ ->
      let s = Scenario.generate (Splitmix.next_int64 root) in
      soaked s (Tracer.span "chaos.check" ~items:(fun o -> o.Check.runs) (fun () -> Check.run s)))

let chaos_soak ~seed () =
  let pins = read_pins () in
  let seed = input_seed seed in
  Fsx.mkdirs (Filename.get_temp_dir_name ());
  let checked soak =
    let failures =
      Layers.check (fun () ->
          match against pins (chaos_key seed) (chaos_artifact soak) with
          | Some f -> List.map (fun _ -> f) soak
          | None ->
              List.filter_map
                (fun x ->
                  match x.findings with
                  | [] -> None
                  | check :: _ -> Some (Printf.sprintf "finding:%s:%s" x.token check))
                soak)
    in
    let sim = List.fold_left (fun n x -> n + (x.runs * x.requests)) 0 soak in
    { ops = List.length soak; failures; sim }
  in
  { run = (fun () -> checked (soak_entry seed)); traced = (fun () -> checked (soak_layers seed)) }

(* {1 Probes}

   Layers a workload's own calls do not reach are timed in the traced
   run by short probe calls made after the measured iterations; a
   layer's per-layer figure comes from the probes only when the
   workload's set-up and iterations never called it. *)

type probe_source = {
  source : string;  (** a [.dpl] file *)
  procs : int;
  mode : Pipeline.mode;
  cluster : Dp_restructure.Cluster.policy option;
}

let example_probe =
  [ { source = "examples/programs/transpose.dpl"; procs = 1; mode = Pipeline.Reuse_single; cluster = None } ]

(* The programs of a soak's first scenarios, written out as [.dpl]
   sources the way a reproducer directory carries them. *)
let scenario_probes ~seed n =
  List.mapi
    (fun i (s : Scenario.t) ->
      let stripes =
        List.map (fun (name, st) -> (name, Dp_lang.Emit.stripe_spec st)) s.Scenario.stripes
      in
      let source = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "probe-%d.dpl" i) in
      Fsx.atomic_write source (Dp_lang.Emit.to_string ~stripes s.Scenario.program);
      { source; procs = s.Scenario.procs; mode = s.Scenario.mode; cluster = Some s.Scenario.cluster })
    (scenarios ~seed:(input_seed seed) ~budget:n)

(* Every compiler and replay layer once over one program: parse,
   dependence graph, schedule, trace, hints and bound, each policy,
   the codec, a sink pass, the stage store and the JSON rendering. *)
let probe_pipeline store p =
  let ctx = Layers.load p.source in
  let nodes = Concrete.instance_count (Layers.graph ctx) in
  let cluster = p.cluster in
  let scheduler_rounds = Layers.rounds ?cluster ctx ~nodes ~procs:p.procs p.mode in
  let reqs = Layers.trace ?cluster ctx ~procs:p.procs p.mode in
  let disks = Pipeline.disks ctx in
  let hints = Layers.hints_of_trace ~space:Oracle.Full_space ~disks reqs in
  ignore (Layers.lower_bound ~disks reqs);
  let t = { name = p.source; disks; reqs = List.map Bin.quantize reqs; hints = List.map Bin.quantize_hint hints } in
  let bytes = Layers.encode ~hints:t.hints t.reqs in
  ignore (Layers.decode bytes);
  let results, _ = replay_one t in
  let key = Dp_cachefs.Cachefs.key ~parts:[ "perfbench-probe"; p.source ] in
  Tracer.span "cachefs.put" ~items:(fun _ -> String.length bytes) (fun () -> Dp_cachefs.Cachefs.put store ~key bytes);
  ignore (Tracer.span "cachefs.get" ~items:(fun _ -> String.length bytes) (fun () -> Dp_cachefs.Cachefs.get store ~key));
  (* The stage store as the pipeline uses it: a cold context misses and
     publishes, a warm one is answered from disk. *)
  let before = Dp_cachefs.Cachefs.counters store in
  for _ = 1 to 2 do
    let c = Pipeline.load ~cache:store p.source in
    ignore (Pipeline.trace ?cluster c ~procs:p.procs p.mode)
  done;
  let after = Dp_cachefs.Cachefs.counters store in
  Tracer.count "cachefs.hits" (float_of_int (after.hits - before.hits));
  Tracer.count "cachefs.lookups"
    (float_of_int (after.hits + after.misses - before.hits - before.misses));
  let run =
    {
      Runner.version = Version.Base;
      procs = p.procs;
      result = List.assoc "none" results;
      summary = Layers.summarize reqs;
      scheduler_rounds;
      obs = None;
    }
  in
  ignore (Layers.render Json_out.of_run run)

(* The oracle's own cost: the differential check of a scenario against
   the same engine runs made directly. *)
let probe_chaos ~seed n =
  List.iter
    (fun s ->
      ignore (Tracer.span "chaos.probe.check" (fun () -> Check.run s));
      Tracer.span "chaos.probe.direct" (fun () -> Check.run_direct s))
    (scenarios ~seed:(input_seed seed) ~budget:n)

let probes ~workload ~seed =
  let store_dir = Filename.concat (Filename.get_temp_dir_name ()) "probe-store" in
  Fsx.remove_tree store_dir;
  let store =
    match Dp_cachefs.Cachefs.open_store ~dir:store_dir () with
    | Ok s -> s
    | Error msg -> failwith ("probe store: " ^ msg)
  in
  let sources = if workload = "chaos-soak" then scenario_probes ~seed 8 else example_probe in
  List.iter (probe_pipeline store) sources;
  Fsx.remove_tree store_dir;
  (match !last_served with
  | Some (cfg, merged) when workload = "served-array" -> account_replay cfg merged
  | _ ->
      let cfg = Serve.config ~tenants:3 ~seed:1 () in
      account_replay cfg (serve_once cfg).merged);
  probe_chaos ~seed (if workload = "chaos-soak" then 8 else 3)

(* {1 Registry} *)

type t = {
  name : string;
  prepare : seed:int -> unit -> iteration;
      (** set-up, which reads the pinned digests and makes the inputs *)
}

let all =
  [
    { name = "paper-matrix"; prepare = paper_matrix };
    { name = "served-array"; prepare = served_array };
    { name = "trace-replay"; prepare = trace_replay };
    { name = "chaos-soak"; prepare = chaos_soak };
  ]

(* Every pinned artifact, computed through the entry points' library
   functions rather than the benchmark's layer-by-layer calls. *)
let references () =
  List.map (fun src -> (paper_key src, fun () -> paper_reference src)) paper_sources
  @ List.init seed_classes (fun s -> (serve_key s, fun () -> serve_reference s))
  @ [ (replay_key, replay_reference) ]
  @ List.init seed_classes (fun s -> (chaos_key s, fun () -> chaos_reference s))
