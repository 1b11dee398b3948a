(* The machine-speed kernel, run in a process of its own.

   [main.exe] starts this once per run and keeps it waiting on a pipe.
   Each line it reads holds a sample count [n]; it then times the
   kernel [n] times and answers with one line of [n] durations in
   seconds.  It exits at end of input.

   The kernel builds a list of 60000 boxed pairs and sorts it: about
   35 ms of allocation, promotion, collection and pointer chasing, the
   kind of work the benchmarked program does.  It runs in its own
   process so that it neither grows nor collects the program's heap,
   and so that a change to the program's collector settings does not
   change the kernel. *)

let kernel () =
  let l = List.init 60_000 (fun i -> ((i * 7919) mod 60_013, float_of_int i)) in
  ignore (Sys.opaque_identity (List.length (List.sort compare l)))

let () =
  (* Grow the heap once, so the first sample does not pay for it. *)
  kernel ();
  try
    while true do
      let n = int_of_string (String.trim (input_line stdin)) in
      let times =
        List.init n (fun _ ->
            let t0 = Unix.gettimeofday () in
            kernel ();
            Unix.gettimeofday () -. t0)
      in
      print_endline (String.concat " " (List.map (Printf.sprintf "%.9f") times));
      flush stdout
    done
  with End_of_file -> ()
