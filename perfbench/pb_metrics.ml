(* Every metric the benchmark prints, with its unit.  BENCHMARK.json
   declares the same names and units; perfbench/test.py checks that the
   two lists agree.

   End-to-end metrics are printed by every untraced run.  Per-layer
   metrics are printed by every traced run; a layer the workload does not
   use in this process reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("exec_per_s", "1/s");
    ("ops_per_s", "1/s");
    ("exec_ms_p50", "ms");
    ("programs_per_s", "1/s");
    ("alloc_mwords", "Mwords");
    ("top_heap_mwords", "Mwords");
  ]

let per_layer =
  [
    (* dsl: Engine and Tester *)
    ("engine.run_us", "us");
    ("engine.alloc_words", "words");
    ("engine.steps", "count");
    ("tester.self_ms", "ms");
    ("exec_ms_p99", "ms");
    (* core: the engine's own counters and spans *)
    ("sched.picks", "count");
    ("execution.mrf_candidates", "count");
    ("clockvec.merge_ms", "ms");
    ("race.checks", "count");
    ("race.epoch_hits", "count");
    ("race.check_ms", "ms");
    ("execution.prior_set_ms", "ms");
    ("execution.may_read_from_ms", "ms");
    ("mograph.edges_added", "count");
    ("mograph.update_ms", "ms");
    ("pruner.sweep_ms", "ms");
    ("pruner.stores_pruned", "count");
    (* check *)
    ("check.certify_us", "us");
    ("check.alloc_words", "words");
    ("check.retired_share", "ratio");
    (* cov *)
    ("cov.fingerprint_us", "us");
    ("cov.merge_ms", "ms");
    ("distinct_shapes", "count");
    (* fuzz *)
    ("fuzz.generate_us", "us");
    ("fuzz.run_one_us", "us");
    ("fuzz.execs_per_program", "count");
    ("fuzz.shrink_ms", "ms");
    ("fuzz.shrink_steps", "count");
    ("fuzz.merge_ms", "ms");
    (* lint *)
    ("lint.analyze_us", "us");
    ("lint.potential", "count");
    (* corpus *)
    ("corpus.mutate_us", "us");
    ("corpus.store_ms", "ms");
    ("corpus.load_ms", "ms");
    ("corpus.admitted", "count");
    ("corpus.admit_share", "ratio");
    ("corpus.plan_digest_ms", "ms");
    (* svc: Svc and Cache *)
    ("svc.overhead_ms", "ms");
    ("svc.spawned", "count");
    ("svc.waves", "count");
    ("cache.entries", "count");
    ("cache.bytes", "bytes");
    ("replay_ms", "ms");
    (* the traced run's own round wall, against the untraced one *)
    ("trace.round_ms", "ms");
  ]

(* [select ~traced measured] lists the declared metrics of the mode in
   declaration order with their units and values; per-layer metrics a
   workload did not measure read 0.  [Error name] when an end-to-end
   metric is missing or a value is not finite. *)
let select ~traced measured =
  let declared = if traced then per_layer else end_to_end in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, unit) :: rest -> (
      match List.assoc_opt name measured with
      | Some v when Float.is_finite v -> go ((name, unit, v) :: acc) rest
      | Some _ -> Error name
      | None when traced -> go ((name, unit, 0.) :: acc) rest
      | None -> Error name)
  in
  go [] declared
