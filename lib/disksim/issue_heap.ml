type t = { keys : float array; heap : int array; mutable size : int }

let create ~keys ~capacity = { keys; heap = Array.make (max capacity 1) 0; size = 0 }
let is_empty h = h.size = 0

(* [p] is issued before [q].  The annotation keeps the loads unboxed and
   the comparisons on floats, not polymorphic. *)
let before (keys : float array) p q =
  let kp = keys.(p) and kq = keys.(q) in
  kp < kq || (kp = kq && p < q)

let push h p =
  if h.size = Array.length h.heap then invalid_arg "Issue_heap.push: heap is full";
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && before h.keys p h.heap.((!i - 1) / 2) do
    h.heap.(!i) <- h.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.heap.(!i) <- p

(* Place [p] at the root's hole and let it sink to its slot. *)
let sift_down h p =
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= h.size then sinking := false
    else begin
      let c = if l + 1 < h.size && before h.keys h.heap.(l + 1) h.heap.(l) then l + 1 else l in
      if before h.keys h.heap.(c) p then begin
        h.heap.(!i) <- h.heap.(c);
        i := c
      end
      else sinking := false
    end
  done;
  h.heap.(!i) <- p

let min h =
  if h.size = 0 then invalid_arg "Issue_heap.min: empty heap";
  h.heap.(0)

let pop h =
  if h.size = 0 then invalid_arg "Issue_heap.pop: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h h.heap.(h.size)

let fix_min h = if h.size > 0 then sift_down h h.heap.(0)
