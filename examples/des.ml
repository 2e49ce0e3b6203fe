(* Discrete-event simulation of an M/M/1 queue with the k-LSM as the
   event list.

   Run with:  dune exec examples/des.exe

   Event lists are the original priority-queue workload: near-monotone
   timestamps, one delete-min per insert — exactly the access pattern the
   LSM's sorted blocks digest well.  One thread drives the queue, and
   local ordering (a thread's own items come back in exact priority
   order) makes the k-LSM the paper's §3 sequential LSM: every delete-min
   returns the earliest pending event.  We simulate an M/M/1 queue and
   check the measured averages against the analytic steady-state results
   (utilization rho, mean number in system rho/(1-rho), Little's law). *)

module Klsm = Klsm_core.Klsm.Default
module Xoshiro = Klsm_primitives.Xoshiro

type event = Arrival | Departure

let () =
  let lambda = 0.7 (* arrivals per time unit *) in
  let mu = 1.0 (* service rate *) in
  let horizon = 2_000_000.0 in
  let rng = Xoshiro.create ~seed:31 in
  let exp_sample rate = -.log (1.0 -. Xoshiro.float rng) /. rate in
  (* Event keys are timestamps scaled to integer microticks. *)
  let scale = 1e6 in
  let key_of_time t = int_of_float (t *. scale) in

  let events = Klsm.register (Klsm.create_with ~num_threads:1 ()) 0 in
  Klsm.insert events (key_of_time (exp_sample lambda)) Arrival;

  let in_system = ref 0 in
  let served = ref 0 in
  let busy_time = ref 0.0 in
  let area_customers = ref 0.0 (* time-integral of #in-system *) in
  let last_time = ref 0.0 in
  let total_delay = ref 0.0 in
  let arrivals_fifo = Queue.create () in

  let continue_sim = ref true in
  while !continue_sim do
    match Klsm.try_delete_min events with
    | None -> continue_sim := false
    | Some (key, ev) ->
        let now = float_of_int key /. scale in
        if now > horizon then continue_sim := false
        else begin
          let dt = now -. !last_time in
          area_customers := !area_customers +. (dt *. float_of_int !in_system);
          if !in_system > 0 then busy_time := !busy_time +. dt;
          last_time := now;
          match ev with
          | Arrival ->
              Queue.push now arrivals_fifo;
              incr in_system;
              (* Next arrival. *)
              Klsm.insert events (key_of_time (now +. exp_sample lambda)) Arrival;
              (* If the server was idle, start service. *)
              if !in_system = 1 then
                Klsm.insert events (key_of_time (now +. exp_sample mu)) Departure
          | Departure ->
              decr in_system;
              incr served;
              total_delay := !total_delay +. (now -. Queue.pop arrivals_fifo);
              if !in_system > 0 then
                Klsm.insert events (key_of_time (now +. exp_sample mu)) Departure
        end
  done;

  let t = !last_time in
  let rho = lambda /. mu in
  let measured_util = !busy_time /. t in
  let measured_l = !area_customers /. t in
  let analytic_l = rho /. (1.0 -. rho) in
  let measured_w = !total_delay /. float_of_int !served in
  let analytic_w = 1.0 /. (mu -. lambda) in
  Printf.printf "M/M/1, lambda=%.2f mu=%.2f, simulated %.0f time units, %d served\n"
    lambda mu t !served;
  Printf.printf "utilization: measured %.4f, analytic %.4f\n" measured_util rho;
  Printf.printf "mean in system L: measured %.3f, analytic %.3f\n" measured_l analytic_l;
  Printf.printf "mean sojourn W:   measured %.3f, analytic %.3f (Little: L/lambda=%.3f)\n"
    measured_w analytic_w (measured_l /. lambda);
  let close a b tol = abs_float (a -. b) /. b < tol in
  let ok =
    close measured_util rho 0.02
    && close measured_l analytic_l 0.05
    && close measured_w analytic_w 0.05
  in
  Printf.printf "within tolerance of theory: %s\n" (if ok then "OK" else "FAIL");
  if not ok then exit 1
