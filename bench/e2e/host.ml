(* Host-speed probe.  The machine this benchmark runs on is shared, and
   its speed swings by 20-40% over seconds: two identical runs of the same
   seed have differed by a quarter in wall throughput while both kept a
   full core.  A fixed probe, timed about ten times a second during the
   run, measures those swings; wall-clock results are divided by the
   mean probe speed, which puts them at the reference host speed.

   The probe is this benchmark's own code, so no change to the library
   moves it.  It allocates like the service does (short lists, sorting,
   small arrays), but only into a minor heap that [Gc.minor] has just
   emptied and never past its size, so no collection runs inside the
   timed part and the probe's time does not depend on the service's
   heap. *)

let now = Unix.gettimeofday

(* Seconds the probe kernel takes on an unloaded host of the reference
   machine (2.1 GHz Xeon, the one the committed numbers in README.md
   were measured on). *)
let reference_s = 165e-6

let kernel () =
  let acc = ref 0 in
  for i = 1 to 20 do
    let l = List.init 200 (fun j -> ((j * 7919) + i) land 0xffff) in
    let l = List.sort compare l in
    acc := !acc + List.hd l + Hashtbl.hash (Array.of_list l)
  done;
  ignore (Sys.opaque_identity !acc)

type t = {
  mutable speed_sum : float;
  mutable probes : int;
  mutable spent : float;  (** wall seconds spent probing, GC included *)
  mutable last : float;
  mutable steps : int;
}

let create () = { speed_sum = 0.; probes = 0; spent = 0.; last = now (); steps = 0 }

let probe h =
  let t0 = now () in
  Gc.minor ();
  let t1 = now () in
  kernel ();
  let t2 = now () in
  h.speed_sum <- h.speed_sum +. (reference_s /. Float.max 1e-6 (t2 -. t1));
  h.probes <- h.probes + 1;
  h.spent <- h.spent +. (t2 -. t0);
  h.last <- t2

(* Per scheduler step: probe when a tenth of a second has passed. *)
let on_step h () =
  h.steps <- h.steps + 1;
  if h.steps land 255 = 0 && now () -. h.last >= 0.1 then probe h

(* Mean speed relative to the reference host (1 = as fast). *)
let speed h = if h.probes = 0 then 1. else h.speed_sum /. float_of_int h.probes
