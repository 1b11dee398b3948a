module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

type policy = First_ref | Min_disk | Majority

let policy_name = function
  | First_ref -> "first-ref"
  | Min_disk -> "min-disk"
  | Majority -> "majority"

let all_policies = [ First_ref; Min_disk; Majority ]

let disks_of_instance layout prog (inst : Concrete.instance) =
  let accesses = Ir.element_accesses (Ir.nest_lookup prog inst.nest_id) inst.iter in
  let disks =
    List.map (fun ((r : Ir.array_ref), coords) -> Layout.disk_of_element layout r.array coords) accesses
  in
  Dp_util.Listx.uniq ( = ) disks

let key_of_disks policy all_disks =
  match all_disks with
  | [] -> -1
  | first :: _ -> (
      match policy with
      | First_ref -> first
      | Min_disk -> List.fold_left min first all_disks
      | Majority -> (
          match
            Dp_util.Listx.max_by
              (fun (_, group) -> List.length group)
              (Dp_util.Listx.group_by Fun.id all_disks)
          with
          | Some (d, _) -> d
          | None -> first))

type table = { key : int array; touched : int array array; disks : int }

let build_table ?(policy = First_ref) layout prog (g : Concrete.graph) =
  Dp_obs.Prof.span "restructure.cluster-table" @@ fun () ->
  let n = Concrete.instance_count g in
  let key = Array.make n (-1) in
  let touched = Array.make n [||] in
  let nest_of = Ir.nest_lookup prog in
  Array.iter
    (fun (inst : Concrete.instance) ->
      let accesses = Ir.element_accesses (nest_of inst.nest_id) inst.iter in
      let all_disks =
        List.map
          (fun ((r : Ir.array_ref), coords) -> Layout.disk_of_element layout r.array coords)
          accesses
      in
      (* Majority voting looks at every access; [touched] stores the
         distinct nodes only. *)
      key.(inst.seq) <- key_of_disks policy all_disks;
      touched.(inst.seq) <- Array.of_list (Dp_util.Listx.uniq ( = ) all_disks))
    g.instances;
  { key; touched; disks = layout.Layout.disk_count }
