(* Monotonic time in seconds with nanosecond resolution: sub-10 us
   reply latencies need finer steps than [Unix.gettimeofday]'s. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
