(* Workload long-exec: the tier contract (streaming certification plus
   aggressive pruning, the configuration of `c11test run --scale tier`)
   at about 10^5 memory actions per execution.  Each round runs one
   execution of the correct mcs-lock, mpmc-queue and spsc-queue and of
   the seeded-bug spsc-queue.  An operation is one execution. *)

open Pb_util

(* (workload, seeded-bug variant, scale): scales put each correct
   execution near 10^5 actions, some twenty certifier retirement windows
   of 4096 actions; the seeded-bug spsc-queue is far costlier per action
   (its prior sets grow with the run), so it runs shorter *)
let specs =
  [
    ("mcs-lock", false, 1800);
    ("mpmc-queue", false, 2500);
    ("spsc-queue", false, 8000);
    ("spsc-queue", true, 800);
  ]

type prog = { p_label : string; p_buggy : bool; p_body : unit -> unit }

let programs ~scale_div =
  Array.of_list
    (List.map
       (fun (name, buggy, scale) ->
         let w = Option.get (Registry.find name) in
         {
           p_label = Printf.sprintf "%s/%s" name (if buggy then "buggy" else "correct");
           p_buggy = buggy;
           p_body =
             w.Registry.run
               ~variant:(if buggy then Variant.Buggy else Variant.Correct)
               ~scale:(max 1 (scale / scale_div));
         })
       specs)

let prune = Pruner.Aggressive { window = 4096; interval = 64 }

let config ?(certify = true) seed =
  {
    (Tool.config ~seed ~prune ~max_steps:30_000_000 Tool.C11tester) with
    Engine.certify;
  }

(* A run holds only about four rounds, and the cost and heap of one
   execution swing by up to 2.5x between schedules of the same program
   (the same work, a different live set), so a run drawing fresh
   schedules would measure its inputs more than the program.  Rounds
   therefore take their seeds from a fixed pool of [pool] rounds: every
   run covers the whole pool, and --seed picks the round it starts
   from. *)
let pool = 4

let exec_seed ctx ~round k =
  let r = (((ctx.seed + round) mod pool) + pool) mod pool in
  Rng.substream 0x10e6L ~index:((r * 4) + k)

(* Traced mode: round 0's executions again, through Tester.run and
   Engine.run with certification, and through Engine.run without it, all
   without handles: the engine's per-call cost, Tester's own time, and
   what certification adds per execution. *)
let engine_probe ctx ps =
  let tester_s = ref 0. and engine_s = ref 0. in
  let run_us = ref [] and words = ref [] and steps = ref 0 in
  let cert_us = ref [] and cert_words = ref [] in
  Array.iteri
    (fun k p ->
      let seed = exec_seed ctx ~round:0 k in
      let _, dt, _ =
        measure (fun () ->
            span ctx.tr "tester.run" (fun () ->
                Tester.run ~config:(config seed) ~iters:1 p.p_body))
      in
      tester_s := !tester_s +. dt;
      (* Tester.run's only execution runs under substream seed 0 *)
      let eseed = Rng.substream seed ~index:0 in
      let engine certify =
        measure (fun () ->
            span ctx.tr
              (if certify then "engine.run" else "engine.run.uncertified")
              (fun () -> Engine.run (config ~certify eseed) p.p_body))
      in
      let o, dt_on, w_on = engine true in
      let _, dt_off, w_off = engine false in
      engine_s := !engine_s +. dt_on;
      run_us := (dt_on *. 1e6) :: !run_us;
      words := w_on :: !words;
      steps := !steps + o.Engine.steps;
      cert_us := ((dt_on -. dt_off) *. 1e6) :: !cert_us;
      cert_words := (w_on -. w_off) :: !cert_words)
    ps;
  [
    ("engine.run_us", median !run_us);
    ("engine.alloc_words", mean !words);
    ("engine.steps", float_of_int !steps);
    ("tester.self_ms", (!tester_s -. !engine_s) *. 1e3);
    ("check.certify_us", mean !cert_us);
    ("check.alloc_words", mean !cert_words);
  ]

let run ctx =
  let ps, setup_s =
    repeat_setup (fun () ->
        timed (fun () ->
            (* warm-up: one short execution of every program, under
               fixed seeds so that set-up is the same work in every run *)
            Array.iteri
              (fun k p ->
                ignore
                  (Tester.run ~config:(config (Rng.substream 0x3a4dL ~index:k))
                     ~iters:1 p.p_body))
              (programs ~scale_div:50);
            programs ~scale_div:1))
  in
  let np = Array.length ps in
  let cs = ref [] in
  let times = Array.make np [] in
  let dirty = Array.make np 0 and races = Array.make np 0 in
  let p_ops = Array.make np 0 and p_cert = Array.make np 0 and p_retired = Array.make np 0 in
  let execs = ref 0 and certified = ref 0 and rejected = ref 0 in
  let cert_ops = ref 0 and retired_ops = ref 0 and step_limits = ref 0 in
  let slices =
    rounds ~seconds:ctx.seconds ~min_rounds:pool (fun r ->
        let ops = ref 0 in
        let (), wall, alloc =
          measure (fun () ->
              Array.iteri
                (fun k p ->
                  let s, dt, _ =
                    measure (fun () ->
                        span ctx.tr "tester.run" (fun () ->
                            Tester.run ~metrics:ctx.metrics ~profile:ctx.profile
                              ~config:(config (exec_seed ctx ~round:r k))
                              ~iters:1 p.p_body))
                  in
                  times.(k) <- (dt *. 1e3) :: times.(k);
                  p_ops.(k) <- s.Tester.total_atomic_ops + s.Tester.total_na_ops;
                  p_cert.(k) <- p_cert.(k) + s.Tester.certified_ops;
                  p_retired.(k) <- p_retired.(k) + s.Tester.retired_prefix_ops;
                  ops := !ops + s.Tester.total_atomic_ops + s.Tester.total_na_ops;
                  execs := !execs + s.Tester.executions;
                  certified := !certified + s.Tester.certified_executions;
                  rejected := !rejected + s.Tester.cert_rejected_executions;
                  cert_ops := !cert_ops + s.Tester.certified_ops;
                  retired_ops := !retired_ops + s.Tester.retired_prefix_ops;
                  step_limits := !step_limits + s.Tester.step_limit_hits;
                  races.(k) <- races.(k) + s.Tester.race_executions;
                  dirty.(k) <-
                    dirty.(k) + s.Tester.race_executions
                    + s.Tester.assert_executions + s.Tester.deadlocks)
                ps)
        in
        {
          sl_wall = wall;
          sl_execs = np;
          sl_ops = !ops;
          sl_programs = np;
          sl_alloc = alloc;
          sl_heap = read_heap_peak ();
        })
  in
  let nrounds = List.length slices in
  let retired_share =
    float_of_int !retired_ops /. float_of_int (max 1 !cert_ops)
  in
  check cs "every execution is certified"
    (!certified = !execs && !rejected = 0)
    (Printf.sprintf "%d of %d certified, %d rejected" !certified !execs !rejected);
  Array.iteri
    (fun k p ->
      if p.p_buggy then
        check cs ("race found in " ^ p.p_label) (races.(k) > 0)
          "no racy execution in the run"
      else
        check cs
          ("no race, assertion failure or deadlock in " ^ p.p_label)
          (dirty.(k) = 0)
          (Printf.sprintf "%d faulty executions" dirty.(k)))
    ps;
  check cs "at least 95% of certified actions retired" (retired_share >= 0.95)
    (Printf.sprintf "%.4f of %d certified actions retired" retired_share !cert_ops);
  check cs "the step limit is never hit" (!step_limits = 0)
    (Printf.sprintf "%d executions hit it" !step_limits);
  (* each program's median, averaged: one slow execution moves one
     program's median, not the figure *)
  let medians = Array.map median times in
  Array.iteri
    (fun k p ->
      Printf.printf "  %s: median %.1f ms per execution, %d actions, %.4f retired\n"
        p.p_label medians.(k) p_ops.(k)
        (float_of_int p_retired.(k) /. float_of_int (max 1 p_cert.(k))))
    ps;
  let exec_ms_p50 = mean (Array.to_list medians) in
  let round_s = round_s slices in
  (* the rounds run different pool rounds: rates over the whole run *)
  let e2e = end_to_end ~rate:total_per_s ~setup_s ~exec_ms_p50 slices in
  let layers =
    if not ctx.traced then []
    else
      core_layer ctx ~rounds:nrounds
      @ engine_probe ctx ps
      @ [
          ("check.retired_share", retired_share);
          ("trace.round_ms", round_s *. 1e3);
        ]
  in
  {
    attempted = !execs;
    failed = !step_limits;
    checks = checks_of cs;
    metrics_out = e2e @ layers;
    round_s;
  }
