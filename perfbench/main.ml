(* The repository benchmark: command line and measurement loop.

   Usage (from the repository root, normally through perfbench/run.py):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe bless

   A run sets the workload up several times (the median is [setup_s]),
   then repeats its iteration for about [--seconds] seconds and checks
   every operation's output.  With [--trace 0] it reports the
   end-to-end metrics of the measured iterations, which call the CLIs'
   library entry points; with [--trace 1] it alternates measured
   iterations with traced ones, which make the same layer calls one by
   one, runs the probes, and reports the per-layer metrics.  Times are
   scaled to a reference machine speed (see Machine speed).  The last
   line of standard output is one JSON object; per-sample details and the recorded spans are
   written under [_perfbench/].  [bless] recomputes the pinned artifact
   digests in perfbench/digests.txt from the CLIs' library entry
   points. *)

module Fsx = Dp_util.Fsx

let out_dir = "_perfbench"
let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted and n = List.length sorted in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 Machine speed}

   The machines this runs on are shared, and a neighbour's load slows
   a run for tens of seconds at a time.  A fixed kernel, timed five
   times after every iteration and around every set-up sample, follows
   part of those swings.  It runs in a process of its own, [calib.exe]
   (see calib.ml), which this run starts once and which waits on a
   pipe in between, so it never touches the program's heap.

   A run's time does not follow the kernel's one for one: over runs of
   all three measured workloads, log median iteration time rose by
   about half the rise of log median kernel time (perfbench/README.md).
   So an iteration time is multiplied by the square root of
   [reference_kernel_s] over the run's median kernel time, and each
   set-up sample likewise by the kernel times taken next to it. *)

let reference_kernel_s = 0.035
let kernel_share = 0.5

let calib =
  lazy
    (let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
     let cmd_r, cmd_w = Unix.pipe ~cloexec:true () and res_r, res_w = Unix.pipe ~cloexec:true () in
     let pid = Unix.create_process exe [| exe |] cmd_r res_w Unix.stderr in
     Unix.close cmd_r;
     Unix.close res_w;
     let oc = Unix.out_channel_of_descr cmd_w and ic = Unix.in_channel_of_descr res_r in
     (* End of input stops it; every way out of this run waits for it. *)
     at_exit (fun () ->
         close_out_noerr oc;
         close_in_noerr ic;
         ignore (Unix.waitpid [] pid));
     (oc, ic))

let kernel_samples () =
  let oc, ic = Lazy.force calib in
  output_string oc "5\n";
  flush oc;
  List.map float_of_string (String.split_on_char ' ' (input_line ic))

let kernel_times = ref []
let time_kernel () = kernel_times := List.rev_append (kernel_samples ()) !kernel_times

let scale k = (reference_kernel_s /. k) ** kernel_share

(* The factor that turns this run's iteration times into reference
   seconds. *)
let speed_factor () = scale (median !kernel_times)

(* {1 Set-up and iterations} *)

type setup_sample = { raw_s : float; scaled_s : float }

(* Set the workload up repeatedly and keep every sample, raw and scaled
   by the kernel timed right before and after it.  A set-up shorter
   than 20 ms is timed in batches of 100 or 1000, so clock resolution
   and a single slow call do not dominate the sample.  The repetition
   count depends only on the set-up's order of magnitude, so runs of
   one workload make the same allocations before measuring. *)
let time_setup prepare =
  let iteration = ref None in
  let sample batch =
    let before = kernel_samples () in
    (* The previous set-up's inputs are garbage before the next one is
       built, so repeating set-up does not double the live heap. *)
    iteration := None;
    let t0 = now () in
    for _ = 1 to batch do
      iteration := Some (prepare ())
    done;
    let raw_s = (now () -. t0) /. float_of_int batch in
    let k = median (before @ kernel_samples ()) in
    { raw_s; scaled_s = raw_s *. scale k }
  in
  let first = sample 1 in
  let batch = if first.raw_s >= 0.02 then 1 else if first.raw_s >= 2e-4 then 100 else 1000 in
  let rest = List.init (if batch = 1 then 2 else 9) (fun _ -> sample batch) in
  (Option.get !iteration, if batch = 1 then first :: rest else rest)

type sample = {
  wall : float;
  cpu : float;
  words : float;
  sim : int;
  outcome : Workloads.outcome;
}

(* One iteration, then the machine-speed kernel outside the measured
   interval. *)
let run_iteration f =
  let w0 = Tracer.all_words () and c0 = Sys.time () and t0 = now () in
  let outcome = f () in
  let t1 = now () and c1 = Sys.time () and w1 = Tracer.all_words () in
  time_kernel ();
  { wall = t1 -. t0; cpu = c1 -. c0; words = w1 -. w0; sim = outcome.Workloads.sim; outcome }

(* Repeat [step] while the next one is expected to end within the
   budget; always at least once. *)
let repeat ~seconds step =
  let started = now () in
  let rec go acc costs =
    let elapsed = now () -. started in
    if acc <> [] && elapsed +. median costs > seconds then List.rev acc
    else
      let t0 = now () in
      let s = step () in
      go (s :: acc) ((now () -. t0) :: costs)
  in
  go [] []

(* The traced form under the root span "iteration"; the word counts and
   the kernel of [run_iteration] stay outside it. *)
let traced_iteration (it : Workloads.iteration) =
  run_iteration (fun () ->
      Tracer.enabled := true;
      Fun.protect
        ~finally:(fun () -> Tracer.enabled := false)
        (fun () -> Tracer.span "iteration" it.Workloads.traced))

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value = (if Float.is_finite value then value else 0.0); unit_ }

(* Per-iteration figures are totals over the run's iterations divided
   by their count: with three to eight iterations a run, their mean
   spread less from run to run than their median did (README). *)
let end_to_end samples ~setup =
  let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 samples in
  let per_iteration f = total f /. float_of_int (List.length samples) in
  let ops = List.fold_left (fun n s -> n + s.outcome.Workloads.ops) 0 samples in
  let failed = List.fold_left (fun n s -> n + List.length s.outcome.Workloads.failures) 0 samples in
  let top_heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  [
    m "wall_s" "s" (per_iteration (fun s -> s.wall));
    m "cpu_s" "s" (per_iteration (fun s -> s.cpu));
    m "sim_req_per_s" "req/s" (total (fun s -> float_of_int s.sim) /. total (fun s -> s.wall));
    m "peak_heap_mb" "MB" (top_heap *. float_of_int (Sys.word_size / 8) /. 1048576.0);
    m "alloc_mwords" "Mwords" (per_iteration (fun s -> s.words /. 1e6));
    m "setup_s" "s" (median (List.map (fun x -> x.scaled_s) setup));
    m "ok_frac" "frac" (1.0 -. (float_of_int failed /. float_of_int (max 1 ops)));
  ]

let on_path_phases = [ "setup"; "iteration" ]

let per_layer ~untraced ~traced =
  let spans = Tracer.spans () in
  let root_of = Tracer.roots spans in
  let costs =
    List.map (fun (s, self_s, self_w) -> (s, (root_of s).Tracer.name, self_s, self_w))
      (Tracer.self_costs spans)
  in
  (* A layer's spans from the workload's own calls, or from the probes
     when the workload never called it. *)
  let select pred =
    let mine = List.filter (fun (s, ph, _, _) -> pred s.Tracer.name && ph <> "probe") costs in
    if mine <> [] then (mine, on_path_phases)
    else (List.filter (fun (s, ph, _, _) -> pred s.Tracer.name && ph = "probe") costs, [ "probe" ])
  in
  let totals pred =
    let chosen, phases = select pred in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 chosen in
    ( sum (fun (_, _, t, _) -> t),
      sum (fun (_, _, _, w) -> w),
      sum (fun (s, _, _, _) -> float_of_int s.Tracer.items),
      List.length chosen,
      phases )
  in
  let layer name = totals (String.equal name) in
  let per_item name ~ns ~words item_unit =
    let t, w, items, _, _ = layer name in
    [ m ns ("ns/" ^ item_unit) (t *. 1e9 /. items) ]
    @ match words with Some wn -> [ m wn ("words/" ^ item_unit) (w /. items) ] | None -> []
  in
  let ratio ~phases a b = Tracer.counter ~phases a /. Tracer.counter ~phases b in
  let _, _, _, _, restructure_phases = layer "restructure" in
  let _, _, _, _, encode_phases = layer "trace.bin.encode" in
  let obs_t, _, _, _, obs_phases = layer "obs.sink" in
  let disk_t, _, _, disk_calls, _ = totals (String.starts_with ~prefix:"disksim.") in
  let check_t, _, _, n_scen, _ = layer "chaos.probe.check" in
  let direct_t, _, _, _, _ = layer "chaos.probe.direct" in
  let _, _, _, _, cache_phases = layer "cachefs.get" in
  let roots = List.filter (fun (s, _, _, _) -> s.Tracer.name = "iteration") costs in
  let root_self = List.fold_left (fun acc (_, _, t, _) -> acc +. t) 0.0 roots in
  let root_wall = List.fold_left (fun acc (s, _, _, _) -> acc +. (s.Tracer.t1 -. s.Tracer.t0)) 0.0 roots in
  let wall xs = median (List.map (fun s -> s.wall) xs) in
  List.concat
    [
      per_item "lang" ~ns:"lang.ns_per_byte" ~words:(Some "lang.words_per_byte") "byte";
      per_item "dependence" ~ns:"dependence.ns_per_node" ~words:(Some "dependence.words_per_node") "node";
      per_item "restructure" ~ns:"restructure.ns_per_iter" ~words:(Some "restructure.words_per_iter") "iter";
      [ m "restructure.rounds" "count" (ratio ~phases:restructure_phases "restructure.rounds" "restructure.builds") ];
      per_item "trace" ~ns:"trace.ns_per_req" ~words:(Some "trace.words_per_req") "req";
      per_item "oracle" ~ns:"oracle.ns_per_req" ~words:(Some "oracle.words_per_req") "req";
      per_item "trace.bin.encode" ~ns:"trace.bin.encode_ns_per_rec" ~words:None "rec";
      per_item "trace.bin.decode" ~ns:"trace.bin.decode_ns_per_rec"
        ~words:(Some "trace.bin.decode_words_per_rec") "rec";
      [ m "trace.bin.bytes_per_rec" "B/rec" (ratio ~phases:encode_phases "trace.bin.bytes" "trace.bin.records") ];
      List.concat_map
        (fun key ->
          let name = "disksim." ^ key in
          per_item name ~ns:(name ^ ".ns_per_req") ~words:(Some (name ^ ".words_per_req")) "req")
        Layers.policy_keys;
      [
        m "disksim.us_per_call" "us/call" (disk_t *. 1e6 /. float_of_int disk_calls);
        m "obs.ns_per_event" "ns/event"
          ((obs_t -. Tracer.counter ~phases:obs_phases "obs.null_s")
          *. 1e9 /. Tracer.counter ~phases:obs_phases "obs.events");
        m "obs.events_per_req" "events/req" (ratio ~phases:obs_phases "obs.events" "obs.requests");
      ];
      per_item "serve.build" ~ns:"serve.build_ns_per_req" ~words:None "req";
      per_item "serve.account" ~ns:"serve.account_ns_per_req" ~words:None "req";
      per_item "cachefs.get" ~ns:"cachefs.get_ns_per_byte" ~words:None "byte";
      per_item "cachefs.put" ~ns:"cachefs.put_ns_per_byte" ~words:None "byte";
      [
        m "cachefs.hit_ratio" "ratio" (ratio ~phases:cache_phases "cachefs.hits" "cachefs.lookups");
        m "chaos.oracle_ms_per_scenario" "ms/scenario" ((check_t -. direct_t) *. 1e3 /. float_of_int n_scen);
      ];
      per_item "harness.render" ~ns:"harness.render_ns_per_byte" ~words:None "byte";
      [
        m "traced.unattributed_frac" "frac" (root_self /. root_wall);
        m "traced.overhead_frac" "frac" ((wall traced -. wall untraced) /. wall untraced);
      ];
    ]

(* Times scale by the speed factor, rates by its inverse; counts,
   words and fractions stay as measured.  [setup_s] comes scaled
   sample by sample already. *)
let scaled factor x =
  let per prefix = String.starts_with ~prefix x.unit_ in
  if x.name = "setup_s" then x
  else if x.unit_ = "s" || per "ns/" || per "us/" || per "ms/" then { x with value = x.value *. factor }
  else if x.unit_ = "req/s" then { x with value = x.value /. factor }
  else x

(* {1 Output} *)

let json_float v = Printf.sprintf "%.17g" v

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
         metrics)
  ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed (metrics_json metrics)

let floats xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]"

let details ~workload ~seed ~trace ~setup samples metrics =
  let env name = Option.value ~default:"unknown" (Sys.getenv_opt name) in
  let failures = List.concat_map (fun s -> s.outcome.Workloads.failures) samples in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"commit\": %S, \"cores\": %d, \"ocaml\": %S, \
     \"setup_s\": %s, \"setup_scaled_s\": %s, \"wall_s\": %s, \"cpu_s\": %s, \"alloc_mwords\": %s, \"sim_requests\": %s, \
     \"kernel_s\": %s, \"kernel_share\": %s, \"speed_factor\": %s, \"failures\": [%s], \"metrics\": %s}\n"
    workload seed trace (env "PERFBENCH_COMMIT")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (floats (List.map (fun x -> x.raw_s) setup))
    (floats (List.map (fun x -> x.scaled_s) setup))
    (floats (List.map (fun s -> s.wall) samples))
    (floats (List.map (fun s -> s.cpu) samples))
    (floats (List.map (fun s -> s.words /. 1e6) samples))
    (floats (List.map (fun s -> float_of_int s.sim) samples))
    (floats (List.rev !kernel_times))
    (json_float kernel_share)
    (json_float (speed_factor ()))
    (String.concat ", " (List.map (Printf.sprintf "%S") failures))
    (metrics_json metrics)

(* {1 Commands} *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = workload) Workloads.all with
    | Some w -> w
    | None ->
        fail "unknown workload %s (expected %s)" workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all))
  in
  List.iter
    (fun f -> if not (Sys.file_exists f) then fail "missing %s: run from the repository root" f)
    (Workloads.pins_file :: Workloads.paper_sources);
  let prepare () =
    if trace then begin
      Tracer.enabled := true;
      let it = Tracer.span "setup" (fun () -> w.Workloads.prepare ~seed ()) in
      Tracer.enabled := false;
      it
    end
    else w.Workloads.prepare ~seed ()
  in
  let it, setup = time_setup prepare in
  let samples, metrics =
    if not trace then
      let samples = repeat ~seconds (fun () -> run_iteration it.Workloads.run) in
      (samples, end_to_end samples ~setup)
    else begin
      (* One unrecorded iteration grows the heap first, so neither side
         of the first pair pays for it; pairs then alternate which side
         runs first. *)
      let warm = run_iteration it.Workloads.run in
      let flip = ref false in
      let pairs =
        repeat ~seconds (fun () ->
            flip := not !flip;
            if !flip then
              let u = run_iteration it.Workloads.run in
              (u, traced_iteration it)
            else
              let t = traced_iteration it in
              (run_iteration it.Workloads.run, t))
      in
      Tracer.enabled := true;
      Tracer.span "probe" (fun () -> Workloads.probes ~workload ~seed);
      Tracer.enabled := false;
      let untraced = List.map fst pairs and traced = List.map snd pairs in
      ((warm :: untraced) @ traced, per_layer ~untraced ~traced)
    end
  in
  let metrics = List.map (scaled (speed_factor ())) metrics in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  Fsx.mkdirs (Filename.concat out_dir "runs");
  Fsx.atomic_write
    (Filename.concat out_dir (Filename.concat "runs" (tag ^ ".json")))
    (details ~workload ~seed ~trace:(if trace then 1 else 0) ~setup samples metrics);
  if trace then begin
    Fsx.mkdirs (Filename.concat out_dir "spans");
    Fsx.atomic_write
      (Filename.concat out_dir (Filename.concat "spans" (tag ^ ".jsonl")))
      (Tracer.to_jsonl (Tracer.spans ()))
  end;
  let attempted = List.fold_left (fun n s -> n + s.outcome.Workloads.ops) 0 samples in
  let failures = List.concat_map (fun s -> s.outcome.Workloads.failures) samples in
  List.iter (fun f -> prerr_endline ("perfbench: check failed: " ^ f)) (List.sort_uniq compare failures);
  print_endline
    (result_line ~correct:(failures = []) ~attempted ~failed:(List.length failures) metrics)

let bless () =
  let lines =
    List.map
      (fun (key, artifact) ->
        let t0 = now () in
        let hex = Workloads.digest (artifact ()) in
        Printf.eprintf "perfbench: blessed %s (%.1f s)\n%!" key (now () -. t0);
        key ^ " " ^ hex)
      (Workloads.references ())
  in
  Fsx.atomic_write Workloads.pins_file
    (String.concat "\n"
       ("# Pinned artifact digests (MD5 of Json_out.to_string_precise), one per workload input."
       :: "# Regenerate with: python3 perfbench/run.py bless"
       :: lines)
    ^ "\n")

let () =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Fsx.mkdirs tmp;
  Filename.set_temp_dir_name tmp;
  let cleanup () = Fsx.remove_tree tmp in
  at_exit cleanup;
  match Array.to_list Sys.argv with
  | [ _; "bless" ] -> bless ()
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | ("--workload" | "--seed" | "--seconds" | "--trace") as flag :: value :: rest ->
            parse ((flag, value) :: acc) rest
        | arg :: _ -> fail "unexpected argument %s" arg
      in
      let opts = parse [] args in
      let get flag =
        match List.assoc_opt flag opts with Some v -> v | None -> fail "missing %s" flag
      in
      let int flag =
        match int_of_string_opt (get flag) with Some n -> n | None -> fail "%s: not an integer" flag
      in
      let trace =
        match get "--trace" with "0" -> false | "1" -> true | v -> fail "--trace: expected 0 or 1, got %s" v
      in
      let seconds = int "--seconds" in
      if seconds < 1 then fail "--seconds must be at least 1";
      run ~workload:(get "--workload") ~seed:(int "--seed") ~seconds:(float_of_int seconds) ~trace
  | [] -> fail "no arguments"
