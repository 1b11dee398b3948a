module Concrete = Dp_dependence.Concrete

(** The paper's core contribution for single-processor execution: the
    disk-reuse code-restructuring algorithm of Fig. 3, realized over the
    concrete iteration-instance dependence graph.

    The algorithm visits I/O nodes round-robin starting from node 0.
    A visit of node [d] schedules — in original execution order — the
    iterations clustered under [d] whose dependence predecessors were all
    scheduled {e when the visit started} (the Omega-computed set Q_di of
    Fig. 3), extended dynamically only by same-nest, same-disk successors
    (the generated loop nest enumerates a nest's iterations in original
    order, so intra-nest dependences are honored by construction).
    Iterations released by another nest or another disk wait for a later
    visit, exactly as in the Fig. 4 walkthrough, where iteration 7 runs
    in the second while-loop round although its predecessor 6 ran in the
    first.  A dependence-free program is fully scheduled in one round,
    visiting each disk exactly once. *)

type schedule = {
  order : int array;
      (** instance [seq] ids in their new execution order (a permutation) *)
  rounds : int;  (** executed iterations of the Fig.-3 while-loop *)
  visits : (int * int) list;
      (** per disk visit in order: (disk, iterations scheduled) — empty
          visits are omitted *)
}

val schedule : ?start_disk:int -> Concrete.graph -> Cluster.table -> schedule
(** Restructure the whole program: {!schedule_subset} over every
    instance.  Compute-only instances (touching no disk) are scheduled
    greedily as soon as they become ready, attached to the current
    visit.  [start_disk] rotates the round-robin visit order (default
    0); with several processors each one starts its tour on a different
    disk so the tours do not contend.  The clustering policy is the one
    the [table] was built with. *)

val schedule_subset :
  ?start_disk:int -> Concrete.graph -> Cluster.table -> members:int array -> schedule
(** Restructure only the instances listed in [members], a strictly
    increasing array of instance seqs (used to apply the
    single-processor algorithm to one processor's share of a
    parallelized program; {!Parallelize.members} and
    {!Parallelize.nest_members} produce such arrays in one pass).
    Dependences from non-member instances are ignored — the caller is
    responsible for inter-processor ordering.

    Cost: the [table] is read, never rebuilt, so build it once per
    program and layout ({!Cluster.build_table}, O(n)) and share it
    across calls.  Every per-call structure (indegrees, visit heaps,
    the disk count) is sized from the subset: a call costs
    O((|members| + edges) log |members|), where [edges] counts the
    dependence edges incident to members; the log factor is the heap
    plus, when the members are not one contiguous seq range, a binary
    search per edge endpoint.
    @raise Invalid_argument if [members] is not strictly increasing
    within [\[0, n)]. *)

val disk_switches : Cluster.table -> int array -> int
(** Number of adjacent pairs in an order whose clustering keys differ —
    the locality metric the restructuring minimizes (lower is better).
    Compute-only instances ([-1] keys) are transparent. *)
