module Ir = Dp_ir.Ir
module Layout = Dp_layout.Layout
module Concrete = Dp_dependence.Concrete

(** Mapping iteration instances to the I/O nodes they touch, and picking
    the single node an instance is clustered under when it touches
    several (the paper notes perfect disk reuse is impossible when "a
    given loop iteration can access different array elements that reside
    in different disks"; a clustering key resolves this). *)

type policy =
  | First_ref  (** the node of the textually first reference (default) *)
  | Min_disk  (** the smallest-numbered node touched *)
  | Majority  (** the node holding the most of the iteration's accesses *)

val policy_name : policy -> string
val all_policies : policy list

val disks_of_instance :
  Layout.t -> Ir.program -> Concrete.instance -> int list
(** Distinct I/O nodes the instance accesses, in first-touch order.
    Compute-only iterations (no references) yield []. *)

type table = {
  key : int array;  (** seq -> clustering key node (-1 for compute-only) *)
  touched : int array array;  (** seq -> distinct nodes touched *)
  disks : int;  (** I/O nodes of the layout the table was built for *)
}

val build_table : ?policy:policy -> Layout.t -> Ir.program -> Concrete.graph -> table
(** The whole-program table: one {!Ir.element_accesses} and one
    {!Layout.disk_of_element} per access of every instance, O(n) in the
    instance count.  It depends only on the layout, the program and the
    policy, so build it once and pass it to every
    {!Reuse_scheduler.schedule_subset} call over the same program (a
    multi-processor stream build schedules one subset per processor, or
    per processor and nest).  Runs under the [restructure.cluster-table]
    {!Dp_obs.Prof} span. *)
