(* Workload run-mix: the `c11test run` path.  Tester.run with the default
   C11Tester engine configuration (no certification, coverage or
   pruning) over every registry workload, seeded-bug and correct
   variants.  An operation is one execution, and each round adds one
   more: the known -j 2 parity probe below. *)

open Pb_util

(* executions per variant per round *)
let iters = 60

type variant = { v_name : string; v_buggy : bool; v_body : unit -> unit }

let variants () =
  Array.of_list
    (List.concat_map
       (fun (w : Registry.t) ->
         List.map
           (fun buggy ->
             {
               v_name = w.Registry.name;
               v_buggy = buggy;
               v_body =
                 w.Registry.run
                   ~variant:(if buggy then Variant.Buggy else Variant.Correct)
                   ~scale:w.Registry.default_scale;
             })
           [ true; false ])
       Registry.all)

let label v = Printf.sprintf "%s/%s" v.v_name (if v.v_buggy then "buggy" else "correct")

(* jsbench has no seeded bug: both of its variants must run clean *)
let must_be_clean v = (not v.v_buggy) || v.v_name = "jsbench"

let config seed = Tool.config ~seed Tool.C11tester

let batch_seed ctx ~round ~nv i =
  Rng.substream (Int64.of_int ctx.seed) ~index:((round * nv) + i)

(* One Tester.run batch.  The closure stamps the clock as each execution
   starts, so execution k lasts from its stamp to the next one (the last
   to the return of Tester.run); the stamps touch no model state. *)
let stamps = Array.make (iters + 1) 0

let run_batch ?metrics ?profile ~config body durations =
  let k = ref 0 in
  let f () =
    if !k <= iters then stamps.(!k) <- now_ns ();
    incr k;
    body ()
  in
  let s = Tester.run ?metrics ?profile ~config ~iters f in
  let t_end = now_ns () in
  let n = min !k iters in
  for i = 0 to n - 1 do
    let t1 = if i + 1 < n then stamps.(i + 1) else t_end in
    durations := (float_of_int (t1 - stamps.(i)) *. 1e-6) :: !durations
  done;
  (s, !k)

let summary_string s = Jsonx.to_string (Tester.summary_to_json s)

(* The summary with its race list sorted: equal for two summaries that
   differ only in the order of their races. *)
let canonical_string s =
  let races =
    List.sort compare
      (List.map (fun r -> Jsonx.to_string (Race.report_to_json r)) s.Tester.distinct_races)
  in
  summary_string { s with Tester.distinct_races = [] } ^ String.concat "\n" races

(* Par.Merge orders races first seen in the same execution by hash-table
   order, which changes with the sharding (see README.md), so some
   batches list their races in another order at -j 2 than at -j 1.  The
   known one does not depend on --seed: the seeded-bug treiber-stack
   batch of round 0 at seed 102.  Every round runs it at -j 1 and -j 2
   as one more operation, which fails while the two summaries differ. *)
let known_parity_seed = Rng.substream 102L ~index:20
let known_parity_workload = "treiber-stack"

let known_parity_probe body =
  let config = config known_parity_seed in
  let j1 = Tester.run ~config ~iters body in
  let j2 = Tester.run_parallel ~jobs:2 ~config ~iters body in
  summary_string j1 = summary_string j2

(* Traced mode: replay round 0's executions one Engine.run at a time
   (execution i of a batch runs under [Rng.substream seed ~index:i],
   exactly as inside Tester.run) next to the same batches through
   Tester.run, both without handles and in alternating order.  Gives the
   engine's per-call time and words, and Tester's own time as the
   difference. *)
let engine_probe ctx vs cs =
  let nv = Array.length vs in
  let tester_s = ref 0. and engine_s = ref 0. in
  let run_us = ref [] and words = ref [] and steps = ref 0 in
  let tester_steps = ref 0. in
  Array.iteri
    (fun i v ->
      let config = config (batch_seed ctx ~round:0 ~nv i) in
      let engine () =
        for k = 0 to iters - 1 do
          let seed = Rng.substream config.Engine.seed ~index:k in
          let o, dt, w =
            measure (fun () ->
                span ctx.tr "engine.run" (fun () ->
                    Engine.run { config with Engine.seed } v.v_body))
          in
          engine_s := !engine_s +. dt;
          run_us := (dt *. 1e6) :: !run_us;
          words := w :: !words;
          steps := !steps + o.Engine.steps
        done
      in
      let tester () =
        let s, dt, _ =
          measure (fun () ->
              span ctx.tr "tester.run" (fun () -> Tester.run ~config ~iters v.v_body))
        in
        tester_s := !tester_s +. dt;
        tester_steps := !tester_steps +. (s.Tester.mean_steps *. float_of_int iters)
      in
      (* whichever side runs second finds warmer caches: alternate *)
      if i land 1 = 0 then (engine (); tester ()) else (tester (); engine ()))
    vs;
  check cs "engine probe replays Tester.run's executions"
    (Float.abs (float_of_int !steps -. !tester_steps) < 0.5)
    (Printf.sprintf "%d engine steps vs %.0f in Tester summaries" !steps !tester_steps);
  [
    ("engine.run_us", median !run_us);
    ("engine.alloc_words", mean !words);
    ("engine.steps", float_of_int !steps);
    ("tester.self_ms", (!tester_s -. !engine_s) *. 1e3);
  ]

let run ctx =
  let vs, setup_s =
    repeat_setup (fun () ->
        timed (fun () ->
            let vs = variants () in
            (* warm-up: a few executions of every variant, under fixed
               seeds so that set-up is the same work in every run *)
            Array.iteri
              (fun i v ->
                let seed = Rng.substream 0x3a4dL ~index:i in
                ignore (Tester.run ~config:(config seed) ~iters:10 v.v_body))
              vs;
            vs))
  in
  let probe_body =
    (Option.get
       (Array.find_opt
          (fun v -> v.v_name = known_parity_workload && v.v_buggy)
          vs))
      .v_body
  in
  let probe_failed = ref 0 in
  let nv = Array.length vs in
  let cs = ref [] in
  let durations = ref [] in
  let bugs = Array.make nv 0 in
  let dirty = Array.make nv 0 in
  let short_batches = ref 0 in
  let step_limits = ref 0 in
  let round0 = Array.make nv None in
  let slices =
    rounds ~seconds:ctx.seconds ~min_rounds:3 (fun r ->
        let ops = ref 0 in
        let (), wall, alloc =
          measure (fun () ->
              Array.iteri
                (fun i v ->
                  let config = config (batch_seed ctx ~round:r ~nv i) in
                  let s, k =
                    span ctx.tr "tester.run" (fun () ->
                        run_batch ~metrics:ctx.metrics ~profile:ctx.profile
                          ~config v.v_body durations)
                  in
                  if k <> iters then incr short_batches;
                  ops := !ops + s.Tester.total_atomic_ops + s.Tester.total_na_ops;
                  bugs.(i) <- bugs.(i) + s.Tester.buggy_executions;
                  dirty.(i) <-
                    dirty.(i) + s.Tester.race_executions
                    + s.Tester.assert_executions + s.Tester.deadlocks;
                  step_limits := !step_limits + s.Tester.step_limit_hits;
                  if r = 0 then round0.(i) <- Some s)
                vs)
        in
        let heap = read_heap_peak () in
        if not (known_parity_probe probe_body) then incr probe_failed;
        {
          sl_wall = wall;
          sl_execs = nv * iters;
          sl_ops = !ops;
          sl_programs = nv;
          sl_alloc = alloc;
          sl_heap = heap;
        })
  in
  let nrounds = List.length slices in
  check cs "every batch ran its executions" (!short_batches = 0)
    (Printf.sprintf "%d batches ran a different number of executions" !short_batches);
  Array.iteri
    (fun i v ->
      if must_be_clean v then
        check cs
          ("no race, assertion failure or deadlock in " ^ label v)
          (dirty.(i) = 0)
          (Printf.sprintf "%d faulty executions" dirty.(i))
      else
        check cs
          ("seeded bug exposed in " ^ label v)
          (bugs.(i) > 0) "no buggy execution in the run")
    vs;
  (* The same round-0 campaigns sharded over two domains.  A batch whose
     summary differs only in the order of its races shows the Par.Merge
     fault above; whether a batch does depends on --seed, so it is named
     on stdout rather than counted.  Any other difference fails. *)
  let reordered = ref [] and mismatched = ref [] in
  Array.iteri
    (fun i v ->
      let config = config (batch_seed ctx ~round:0 ~nv i) in
      let s = Tester.run_parallel ~jobs:2 ~config ~iters v.v_body in
      let s0 = Option.get round0.(i) in
      if summary_string s <> summary_string s0 then
        if canonical_string s = canonical_string s0 then reordered := label v :: !reordered
        else mismatched := label v :: !mismatched)
    vs;
  check cs "round-0 summaries equal the -j 2 campaign" (!mismatched = [])
    ("differ: " ^ String.concat ", " (List.rev !mismatched));
  if !reordered <> [] then
    Printf.printf "  races listed in another order at -j 2 (Par.Merge): %s\n"
      (String.concat ", " (List.rev !reordered));
  let e2e = end_to_end ~setup_s ~exec_ms_p50:(median !durations) slices in
  let round_s = round_s slices in
  let layers =
    if not ctx.traced then []
    else
      core_layer ctx ~rounds:nrounds
      @ engine_probe ctx vs cs
      @ [
          ("exec_ms_p99", quantile 0.99 !durations);
          ("trace.round_ms", round_s *. 1e3);
        ]
  in
  {
    attempted = nrounds * ((nv * iters) + 1);
    failed = !step_limits + !probe_failed;
    checks = checks_of cs;
    metrics_out = e2e @ layers;
    round_s;
  }
