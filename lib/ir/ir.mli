(** Loop-nest intermediate representation.

    A {!program} is a sequence of perfectly-nested affine loop nests over
    disk-resident arrays — the input class the paper targets (Section 2:
    "large scientific applications that operate on disk-resident arrays
    using nested loops and exhibit regular data access patterns").

    Loop bounds are inclusive affine expressions over the enclosing loop
    indices; subscripts are affine expressions over all indices of the
    owning nest.  One array element stands for one disk page (the paper
    accesses disk-resident data "at a page block granularity"), so an
    array declaration's [elem_size] is the I/O request size its accesses
    generate. *)

type access_mode = Read | Write

type array_ref = {
  array : string;
  subscripts : Dp_affine.Affine.t list;  (** one per array dimension *)
  mode : access_mode;
}

type stmt = {
  stmt_id : int;  (** unique within the program *)
  refs : array_ref list;  (** in textual order *)
  work_cycles : int;  (** CPU cost of one instance, in cycles *)
  label : string option;
}

type loop = {
  index : string;
  lo : Dp_affine.Affine.t;  (** inclusive lower bound *)
  hi : Dp_affine.Affine.t;  (** inclusive upper bound *)
}

type nest = {
  nest_id : int;  (** unique within the program *)
  loops : loop list;  (** outermost first; never empty *)
  body : stmt list;
}

type array_decl = {
  name : string;
  dims : int list;  (** extents, outermost first; never empty *)
  elem_size : int;  (** bytes per element (= per disk page) *)
  file : string;  (** backing file name (one array per file, Section 2) *)
}

type program = { arrays : array_decl list; nests : nest list }

(** {1 Construction helpers} *)

val array_decl : ?elem_size:int -> ?file:string -> string -> int list -> array_decl
(** [elem_size] defaults to 8 (a double); [file] defaults to ["<name>.dat"]. *)

val read : string -> Dp_affine.Affine.t list -> array_ref
val write : string -> Dp_affine.Affine.t list -> array_ref
val stmt : ?label:string -> ?work_cycles:int -> int -> array_ref list -> stmt
(** [stmt id refs]; [work_cycles] defaults to 1000. *)

val loop : string -> Dp_affine.Affine.t -> Dp_affine.Affine.t -> loop
val nest : int -> loop list -> stmt list -> nest
val program : array_decl list -> nest list -> program

(** {1 Validation} *)

type error =
  | Unknown_array of { nest_id : int; array : string }
  | Arity_mismatch of { nest_id : int; array : string; expected : int; got : int }
  | Unbound_variable of { nest_id : int; var : string }
  | Duplicate_index of { nest_id : int; var : string }
  | Duplicate_array of string
  | Duplicate_nest_id of int
  | Empty_nest of int

val pp_error : Format.formatter -> error -> unit
val validate : program -> (unit, error list) result
(** Check well-formedness: declared arrays, subscript arity, variables in
    scope, unique ids.  All passes assume a validated program. *)

(** {1 Queries} *)

val find_array : program -> string -> array_decl option
val array_elems : array_decl -> int
(** Total number of elements (product of extents). *)

val array_bytes : array_decl -> int
val total_bytes : program -> int
val nest_position : program -> int -> int
(** [nest_position prog] indexes the program's nests by [nest_id] once;
    the returned function maps an id to its nest's position in
    [prog.nests] in O(1).  Partially apply it outside per-instance loops.
    @raise Invalid_argument (from the returned function) for an id no
    nest carries. *)

val nest_lookup : program -> int -> nest
(** [nest_lookup prog] is {!nest_position} returning the nest itself: the
    one id-to-nest lookup of every per-instance pass. *)

val nest_depth : nest -> int
val nest_indices : nest -> string list
val arrays_referenced : nest -> string list
(** Distinct array names, in first-reference order. *)

(** {1 Iteration enumeration}

    Iteration vectors list index values outermost-first, in the order of
    [nest.loops]. *)

val iter_nest : nest -> (Dp_util.Ivec.t -> unit) -> unit
(** Enumerate the nest's iteration vectors in original (lexicographic)
    execution order.  Bounds that reference outer indices (triangular
    loops) are evaluated on the fly. *)

val nest_iterations : nest -> Dp_util.Ivec.t list
(** All iteration vectors, in execution order.  Intended for the scaled
    workloads (up to a few hundred thousand iterations). *)

val iteration_count : nest -> int

val env_of_iteration : nest -> Dp_util.Ivec.t -> string -> int
(** Environment mapping the nest's loop indices to their values in the
    given iteration vector.
    @raise Not_found for a name that is not an index of this nest. *)

val element_accesses : nest -> Dp_util.Ivec.t -> (array_ref * int list) list
(** Concrete (reference, element coordinates) pairs an iteration touches. *)

val iteration_work : nest -> int
(** Total [work_cycles] of one iteration of the nest body. *)

(** {1 Pretty-printing} *)

val pp_ref : Format.formatter -> array_ref -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_nest : Format.formatter -> nest -> unit
val pp_program : Format.formatter -> program -> unit
