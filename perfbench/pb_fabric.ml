(* Workload fabric-corpus: the fuzz-corpus campaign through
   Svc.run_campaign with one worker process.  Each round makes a cold
   pass into a fresh result cache (the coordinator spawns a c11test
   worker per 250-program wave and stores each wave's shard).  After the
   rounds the campaign is replayed warm from the last round's cache,
   which spawns no worker and runs no execution.  An operation is one
   program of a cold pass. *)

open Pb_util

(* warm replays, after the rounds, of the last cold pass's cache *)
let replays = 3

let run_fabric ctx cache campaign =
  match Svc.run_campaign ~exe:ctx.exe ~cache ~workers:1 ~jobs:1 campaign with
  | Ok (Svc.M_fuzz r, st) -> (r, st)
  | Ok _ -> failwith "Svc.run_campaign: not a fuzz report"
  | Error e -> failwith ("Svc.run_campaign: " ^ e)

let open_cache dir =
  match Cache.open_dir dir with Ok c -> c | Error e -> failwith e

let run ctx =
  if not (Sys.file_exists ctx.exe) then failwith ("worker binary missing: " ^ ctx.exe);
  let plan, setup_s, load_s = Pb_fuzz.setup ctx in
  let cs = ref [] in
  let cfg = Pb_fuzz.cfg plan in
  let campaign = Svc.Fuzz_c { cfg; coverage = true; range = None } in
  let digest r = Digest.string (Pb_fuzz.report_string r) in
  let cold_digests = ref [] and warm_digests = ref [] in
  let cold_lost = ref 0 and warm_bad = ref [] in
  let replay_s = ref [] and failed = ref 0 in
  let last = ref None in
  let slices =
    rounds ~seconds:ctx.seconds ~min_rounds:3 (fun _ ->
        let cdir = new_dir ctx.work "cache" in
        let cache = open_cache cdir in
        let (r, st), wall, alloc =
          measure (fun () ->
              span ctx.tr "svc.run_campaign.cold" (fun () -> run_fabric ctx cache campaign))
        in
        let heap = read_heap_peak () in
        cold_digests := digest r :: !cold_digests;
        if st.Svc.st_failed <> [] then incr cold_lost;
        failed := !failed + Pb_fuzz.failed_programs r;
        last := Some (r, st, Cache.stats cache, cdir);
        let cov = Option.get r.Fuzz.r_coverage in
        {
          sl_wall = wall;
          sl_execs = cov.Cov.s_executions;
          sl_ops = cov.Cov.s_events;
          sl_programs = r.Fuzz.r_programs;
          sl_alloc = alloc;
          sl_heap = heap;
        })
  in
  let r, st, cstats, cdir = Option.get !last in
  let entries = count_files cdir in
  for _ = 1 to replays do
    let warm = open_cache cdir in
    let (w, wst), dt, _ =
      measure (fun () ->
          span ctx.tr "svc.run_campaign.warm" (fun () -> run_fabric ctx warm campaign))
    in
    replay_s := dt :: !replay_s;
    warm_digests := digest w :: !warm_digests;
    if wst.Svc.st_spawned <> 0 || wst.Svc.st_executions_run <> 0 || wst.Svc.st_failed <> []
    then
      warm_bad :=
        Printf.sprintf "spawned %d, ran %d executions, lost %d ranges" wst.Svc.st_spawned
          wst.Svc.st_executions_run
          (List.length wst.Svc.st_failed)
        :: !warm_bad
  done;
  (* the same campaign in-process: the reference report *)
  let inproc, inproc_s, _ =
    measure (fun () -> span ctx.tr "fuzz.campaign" (fun () -> Fuzz.campaign cfg))
  in
  let ref_digest = digest inproc in
  let off l = List.length (List.filter (fun d -> d <> ref_digest) l) in
  check cs "cold reports equal the in-process report" (off !cold_digests = 0)
    (Printf.sprintf "%d of %d differ" (off !cold_digests) (List.length !cold_digests));
  check cs "warm reports equal the in-process report" (off !warm_digests = 0)
    (Printf.sprintf "%d of %d differ" (off !warm_digests) (List.length !warm_digests));
  check cs "cold passes lose no range" (!cold_lost = 0)
    (Printf.sprintf "%d passes lost ranges" !cold_lost);
  check cs "warm replays spawn no worker, run no execution, lose no range"
    (!warm_bad = []) (String.concat "; " !warm_bad);
  Pb_fuzz.check_report cs inproc;
  Printf.printf "  cold pass walls (s): %s; warm replays (s): %s\n"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.sl_wall) slices))
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !replay_s));
  let nrounds = List.length slices in
  let round_s = round_s slices in
  let cold_ms = median (List.map (fun s -> s.sl_wall *. 1e3) slices) in
  let e2e = end_to_end ~setup_s ~exec_ms_p50:(ms_per_exec slices) slices in
  let layers =
    if not ctx.traced then []
    else begin
      let adm = List.length (Pb_fuzz.admitted r) in
      [
        ("svc.overhead_ms", cold_ms -. (inproc_s *. 1e3));
        ("svc.spawned", float_of_int st.Svc.st_spawned);
        ("svc.waves", float_of_int cstats.Cache.stores);
        ("cache.entries", float_of_int entries);
        ("cache.bytes", float_of_int cstats.Cache.store_bytes);
        ("replay_ms", median !replay_s *. 1e3);
        ("corpus.load_ms", load_s *. 1e3);
        ("corpus.admitted", float_of_int adm);
        ("corpus.admit_share", float_of_int adm /. float_of_int r.Fuzz.r_programs);
        ("corpus.plan_digest_ms", Pb_fuzz.plan_digest_ms ctx plan (Pb_fuzz.admitted r));
        ("distinct_shapes", float_of_int (Cov.distinct_shapes (Option.get r.Fuzz.r_coverage)));
        ("lint.potential", float_of_int r.Fuzz.r_lint_potential);
        ("fuzz.shrink_steps", float_of_int r.Fuzz.r_shrink_steps);
        ("trace.round_ms", round_s *. 1e3);
      ]
    end
  in
  {
    attempted = nrounds * Pb_fuzz.programs;
    failed = !failed;
    checks = checks_of cs;
    metrics_out = e2e @ layers;
    round_s;
  }
