(* Multiprocessor restructuring demo on the Cholesky workload.

   Compares, at 4 processors, conventional parallelization (Section 6.1)
   against the disk-layout-aware scheme (Section 6.2): how well each
   localizes disk accesses to their owning processor, and what that does
   to disk energy under DRPM.

   Run with: dune exec examples/parallel_cholesky.exe *)

module App = Dp_workloads.App
module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete
module Parallelize = Dp_restructure.Parallelize
module Version = Dp_harness.Version
module Runner = Dp_harness.Runner
module Pipeline = Dp_pipeline.Pipeline

let procs = 4

let localization (ctx : Runner.ctx) (a : Parallelize.assignment) =
  let layout = Pipeline.layout ctx and prog = Pipeline.program ctx in
  let disks = layout.Layout.disk_count in
  let hits = ref 0 and total = ref 0 in
  let nest_of = Ir.nest_lookup prog in
  Array.iter
    (fun (inst : Concrete.instance) ->
      let nest = nest_of inst.Concrete.nest_id in
      List.iter
        (fun ((r : Ir.array_ref), coords) ->
          incr total;
          let d = Dp_layout.Layout.disk_of_element layout r.Ir.array coords in
          if
            Parallelize.proc_of_disk ~disks ~procs d
            = a.Parallelize.owner.(inst.Concrete.seq)
          then incr hits)
        (Ir.element_accesses nest inst.Concrete.iter))
    (Pipeline.graph ctx).Concrete.instances;
  float_of_int !hits /. float_of_int !total

let () =
  let app = Option.get (Dp_workloads.Workloads.by_name "Cholesky") in
  let ctx = Runner.context app in
  Format.printf "%s on %d processors, %d I/O nodes@." app.App.name procs
    (Pipeline.disks ctx);

  let conv = Parallelize.conventional app.App.program (Pipeline.graph ctx) ~procs in
  let aware =
    Parallelize.layout_aware (Pipeline.layout ctx) app.App.program (Pipeline.graph ctx)
      ~procs
  in
  Format.printf "access localization: conventional %.1f%%, layout-aware %.1f%%@."
    (100. *. localization ctx conv)
    (100. *. localization ctx aware);
  Format.printf "instances per processor (layout-aware):";
  Array.iter (Format.printf " %d") (Parallelize.proc_counts aware);
  Format.printf "@.";

  (* The energy consequence: the full version matrix at 4 processors. *)
  let base = Runner.run ctx ~procs Version.Base in
  Format.printf "Base: %.1f J, io %.1f s@." base.Runner.result.Dp_disksim.Engine.energy_j
    (base.Runner.result.Dp_disksim.Engine.io_time_ms /. 1000.);
  List.iter
    (fun v ->
      let r = Runner.run ctx ~procs v in
      Format.printf "%-10s normalized energy %.3f, perf %+.1f%%@." (Version.name v)
        (Runner.normalized_energy ~base r)
        (100. *. Runner.perf_degradation ~base r))
    [ Version.Drpm; Version.T_drpm_s; Version.T_drpm_m ]
