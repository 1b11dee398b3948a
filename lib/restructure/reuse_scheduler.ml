module Concrete = Dp_dependence.Concrete
module Minheap = Dp_util.Minheap

type schedule = { order : int array; rounds : int; visits : (int * int) list }

(* Semantics of one disk visit, mirroring the Omega-based algorithm of
   Fig. 3: the set of schedulable iterations is computed when the visit
   starts (Q_di restricted to satisfied dependences), then enumerated in
   original execution order.  An iteration whose dependence is satisfied
   {e during} the visit joins the set only when the dependence is
   intra-nest (the generated loop nest enumerates a nest's iterations in
   original order, so such dependences are honored by construction);
   iterations released by another nest — or by another disk's iterations
   — must wait for the next visit (Fig. 4: iteration 7 waits for the
   second round even though its predecessor 6 ran in the first). *)

(* The local index of a member seq (its position in the sorted
   [members]), or -1 for a non-member: O(1) when the members form a
   contiguous seq range (the whole program, or one nest's share under a
   block partition), a binary search otherwise. *)
let local_index members =
  let m = Array.length members in
  if m = 0 then fun _ -> -1
  else begin
    let lo = members.(0) and hi = members.(m - 1) in
    if hi - lo + 1 = m then fun seq -> if seq >= lo && seq <= hi then seq - lo else -1
    else fun seq ->
      if seq < lo || seq > hi then -1
      else begin
        let rec search l h =
          if l > h then -1
          else
            let mid = (l + h) / 2 in
            let v = members.(mid) in
            if v = seq then mid
            else if v < seq then search (mid + 1) h
            else search l (mid - 1)
        in
        search 0 (m - 1)
      end
  end

let schedule_subset ?(start_disk = 0) (g : Concrete.graph) (table : Cluster.table)
    ~members =
  Dp_obs.Prof.span "restructure.reuse-schedule" @@ fun () ->
  let n = Concrete.instance_count g in
  let m = Array.length members in
  Array.iteri
    (fun i seq ->
      if seq < 0 || seq >= n || (i > 0 && seq <= members.(i - 1)) then
        invalid_arg
          "Reuse_scheduler.schedule_subset: members must be increasing instance seqs")
    members;
  let local = local_index members in
  let disk_count =
    Array.fold_left
      (fun acc seq -> max acc (table.Cluster.key.(seq) + 1))
      table.Cluster.disks members
  in
  let indegree =
    Array.map
      (fun seq ->
        Array.fold_left (fun c src -> if local src >= 0 then c + 1 else c) 0 g.preds.(seq))
      members
  in
  (* Bucket 0: compute-only instances; bucket d+1: disk d.  [staged]
     holds instances that became ready since the disk's visit started;
     [active] is the frozen visit set (refilled from [staged] when a new
     visit begins). *)
  let staged = Array.init (disk_count + 1) (fun _ -> Minheap.create ()) in
  let active = Array.init (disk_count + 1) (fun _ -> Minheap.create ()) in
  let bucket_of seq =
    let k = table.Cluster.key.(seq) in
    if k < 0 then 0 else k + 1
  in
  Array.iteri
    (fun i seq -> if indegree.(i) = 0 then Minheap.add staged.(bucket_of seq) seq)
    members;
  let order = Array.make m (-1) in
  let scheduled = ref 0 in
  let visits = ref [] in
  (* The nest whose iterations the current visit is emitting; used to
     decide whether a newly released instance may chain into the visit. *)
  let current_visit_disk = ref (-1) in
  let release ~from_nest seq =
    Array.iter
      (fun dst ->
        let j = local dst in
        if j >= 0 then begin
          indegree.(j) <- indegree.(j) - 1;
          if indegree.(j) = 0 then begin
            let b = bucket_of dst in
            let same_nest =
              g.Concrete.instances.(dst).Concrete.nest_id = from_nest
            in
            if b = 0 then Minheap.add staged.(0) dst
            else if b - 1 = !current_visit_disk && same_nest then
              Minheap.add active.(b) dst
            else Minheap.add staged.(b) dst
          end
        end)
      g.succs.(seq)
  in
  let emit seq =
    order.(!scheduled) <- seq;
    incr scheduled;
    release ~from_nest:g.Concrete.instances.(seq).Concrete.nest_id seq
  in
  (* Compute-only instances are transparent to disk power: drain them as
     soon as they are ready. *)
  let drain_compute_only () =
    let c = ref 0 in
    while not (Minheap.is_empty staged.(0)) do
      emit (Minheap.pop_min staged.(0));
      incr c
    done;
    !c
  in
  let rounds = ref 0 in
  while !scheduled < m do
    incr rounds;
    for dd = 0 to disk_count - 1 do
      let d = (start_disk + dd) mod disk_count in
      current_visit_disk := d;
      let in_visit = ref (drain_compute_only ()) in
      (* Freeze the visit set: everything staged before the visit. *)
      while not (Minheap.is_empty staged.(d + 1)) do
        Minheap.add active.(d + 1) (Minheap.pop_min staged.(d + 1))
      done;
      while not (Minheap.is_empty active.(d + 1)) do
        emit (Minheap.pop_min active.(d + 1));
        incr in_visit;
        in_visit := !in_visit + drain_compute_only ()
      done;
      current_visit_disk := -1;
      if !in_visit > 0 then visits := (d, !in_visit) :: !visits
    done
  done;
  Dp_obs.Prof.count "restructure.reuse-schedule" !rounds;
  { order; rounds = !rounds; visits = List.rev !visits }

let schedule ?start_disk g table =
  schedule_subset ?start_disk g table ~members:(Concrete.original_order g)

let disk_switches (table : Cluster.table) order =
  let last = ref (-1) and switches = ref 0 in
  Array.iter
    (fun seq ->
      let k = table.Cluster.key.(seq) in
      if k >= 0 then begin
        if !last >= 0 && k <> !last then incr switches;
        last := k
      end)
    order;
  !switches
