(* Workload fuzz-corpus: a corpus-guided Fuzz.campaign (seed 1, mixed
   profile, default generator) of 5000 programs.  Set-up writes a corpus
   snapshot with a campaign of another seed (derived from --seed) and
   reads it back with Corpus.load; every pass runs the campaign from that
   snapshot, and the entries the campaign admits are stored once per run
   and read back.  Every program is linted, certified and fingerprinted.
   An operation is one program. *)

open Pb_util

(* Program 4684 of seed 1 falls in a 5000-program campaign: the certifier
   rejects its execution on the correct engine (see README.md), so every
   pass counts exactly one failed program until that fault is mended. *)
let programs = 5000
let snapshot_programs = 1000

let cfg plan =
  {
    Fuzz.default_campaign_cfg with
    Fuzz.c_programs = programs;
    c_seed = 1L;
    c_jobs = 1;
    c_gen = Fuzz.default_gen_cfg;
    c_corpus = Some plan;
  }

let open_corpus dir =
  match Corpus.open_dir dir with Ok c -> c | Error e -> failwith e

let admitted r =
  match r.Fuzz.r_corpus with Some k -> k.Fuzz.k_admitted | None -> []

let store_all c entries = List.iter (fun e -> ignore (Corpus.store c e)) entries

(* Set-up shared with fabric-corpus: the snapshot campaign and the
   read-back of its admissions, repeated.  The admissions are written to
   disk once, between the first campaign and its read-back, and that
   write is not timed: on a shared disk its time follows the disk rather
   than the program (see README.md).  Returns the plan and the median
   Corpus.load time. *)
let setup ctx =
  let dir = new_dir ctx.work "snapshot" in
  let c = open_corpus dir in
  let stored = ref false in
  let load_s = ref [] in
  let snap =
    {
      Fuzz.default_campaign_cfg with
      Fuzz.c_programs = snapshot_programs;
      c_seed = Rng.substream 0x5eedL ~index:ctx.seed;
      c_corpus = Some (Corpus.plan []);
      (* the snapshot needs the admissions only: shrinking at one
         execution per candidate, so that a finding at some seeds adds
         little to their set-up *)
      c_shrink_execs = 1;
    }
  in
  let plan, setup_s =
    repeat_setup (fun () ->
        let r, campaign_s, _ = measure (fun () -> Fuzz.campaign snap) in
        if not !stored then begin
          store_all c (admitted r);
          stored := true
        end;
        let entries, dt, _ =
          measure (fun () -> span ctx.tr "corpus.load" (fun () -> Corpus.load c))
        in
        load_s := dt :: !load_s;
        (Corpus.plan entries, campaign_s +. dt))
  in
  (plan, setup_s, median !load_s)

let report_string r = Jsonx.to_string (Fuzz.report_to_json r)

let failed_programs r =
  r.Fuzz.r_cert_rejected + r.Fuzz.r_crashes + r.Fuzz.r_lint_unsound

(* Checks on a campaign report that hold for any sharding. *)
let check_report cs (r : Fuzz.report) =
  check cs "every program is certified or a finding"
    (r.Fuzz.r_certified + r.Fuzz.r_cert_rejected + r.Fuzz.r_crashes
     >= r.Fuzz.r_programs
    && (failed_programs r = 0 || r.Fuzz.r_findings <> []))
    (Printf.sprintf "%d programs, %d certified, %d rejected, %d crashed, %d findings"
       r.Fuzz.r_programs r.Fuzz.r_certified r.Fuzz.r_cert_rejected
       r.Fuzz.r_crashes (List.length r.Fuzz.r_findings));
  check cs "lint_unsound is 0" (r.Fuzz.r_lint_unsound = 0)
    (Printf.sprintf "%d lint-unsound programs" r.Fuzz.r_lint_unsound);
  let config = Fuzz.engine_config ~mutation:None in
  List.iter
    (fun (f : Fuzz.finding) ->
      let valid = Fuzz.validate f.Fuzz.f_repro = Ok () in
      let reproduces =
        match
          Fuzz.run_one ~config ~certify:true ~seed:f.Fuzz.f_exec_seed f.Fuzz.f_repro
        with
        | Fuzz.Failed k -> Fuzz.finding_key k = f.Fuzz.f_key
        | Fuzz.Passed _ -> false
      in
      check cs
        (Printf.sprintf "finding at program %d: shrunk repro validates and reproduces"
           f.Fuzz.f_index)
        (valid && reproduces)
        (Printf.sprintf "valid %b, reproduces %b (key %s)" valid reproduces f.Fuzz.f_key))
    r.Fuzz.r_findings

(* Traced mode: per-call costs of the layers a campaign drives, over the
   first [sample] freshly generated programs of the campaign. *)
let sample = 300

let layer_probe ctx plan =
  let gen = Fuzz.default_gen_cfg in
  let config = Fuzz.engine_config ~mutation:None in
  let progs =
    List.init sample (fun i -> Fuzz.generate ~cfg:gen ~seed:(Rng.substream 1L ~index:i))
  in
  let timed_us name f =
    let x, dt, w = measure (fun () -> span ctx.tr name f) in
    (x, dt *. 1e6, w)
  in
  let lint_us = ref [] in
  let cert_us = ref [] and cert_words = ref [] and fp_us = ref [] in
  let engine_us = ref [] and engine_words = ref [] and steps = ref 0 in
  let cert_ops = ref 0 and retired = ref 0 in
  let acc = [| Cov.create (); Cov.create () |] in
  List.iteri
    (fun i p ->
      let seed = Fuzz.exec_seed p ~attempt:0 in
      let _, us, _ = timed_us "lint.analyze" (fun () -> Lint.analyze p) in
      lint_us := us :: !lint_us;
      let _, us_on, w_on =
        timed_us "fuzz.run_one" (fun () -> Fuzz.run_one ~config ~certify:true ~seed p)
      in
      let _, us_off, w_off =
        timed_us "fuzz.run_one.uncertified" (fun () ->
            Fuzz.run_one ~config ~certify:false ~seed p)
      in
      cert_us := (us_on -. us_off) :: !cert_us;
      cert_words := (w_on -. w_off) :: !cert_words;
      let run coverage =
        timed_us "engine.run" (fun () ->
            Engine.run
              { config with Engine.seed; certify = true; coverage }
              (Fuzz.to_closure p))
      in
      let o, us_cov, w = run true in
      let _, us_plain, _ = run false in
      fp_us := (us_cov -. us_plain) :: !fp_us;
      engine_us := us_cov :: !engine_us;
      engine_words := w :: !engine_words;
      steps := !steps + o.Engine.steps;
      cert_ops := !cert_ops + o.Engine.certified_ops;
      retired := !retired + o.Engine.retired_prefix_ops;
      match o.Engine.shape with
      | Some sg -> ignore (Cov.observe acc.(i land 1) ~index:i sg)
      | None -> ())
    progs;
  let shards = Array.to_list (Array.map Cov.shard acc) in
  let _, cov_merge_s, _ = measure (fun () -> span ctx.tr "cov.merge" (fun () -> Cov.merge shards)) in
  let snapshot = Array.of_list plan.Corpus.pl_entries in
  let mutate_us =
    List.init sample (fun i ->
        let rng = Rng.create (Rng.substream 0x3a7a7eL ~index:i) in
        let e = snapshot.(i mod Array.length snapshot) in
        let _, us, _ =
          timed_us "corpus.mutate" (fun () -> Corpus.mutate ~rng e.Corpus.en_program)
        in
        us)
  in
  (* Fuzz's shard merge over a two-shard campaign of 1000 programs *)
  let mcfg = { Fuzz.default_campaign_cfg with Fuzz.c_programs = 1000 } in
  let fshards =
    List.init 2 (fun start -> Fuzz.campaign_shard ~cfg:mcfg ~start ~stride:2 ())
  in
  let _, fuzz_merge_s, _ =
    measure (fun () -> span ctx.tr "fuzz.merge" (fun () -> Fuzz.merge_shard_list mcfg fshards))
  in
  let per_pass = float_of_int programs /. float_of_int sample in
  [
    ("lint.analyze_us", median !lint_us);
    ("check.certify_us", mean !cert_us);
    ("check.alloc_words", mean !cert_words);
    ("check.retired_share", float_of_int !retired /. float_of_int (max 1 !cert_ops));
    ("cov.fingerprint_us", mean !fp_us);
    ("cov.merge_ms", cov_merge_s *. 1e3);
    ("engine.run_us", median !engine_us);
    ("engine.alloc_words", mean !engine_words);
    ("engine.steps", float_of_int !steps *. per_pass);
    ("corpus.mutate_us", median mutate_us);
    ("fuzz.merge_ms", fuzz_merge_s *. 1e3);
  ]

(* The campaign's execution budget per program, from its report: the
   primary execution, plus c_lint_execs lint-steered probes for each
   race-potential program (fewer when a probe fails first). *)
let execs_per_program (c : Fuzz.campaign_cfg) (r : Fuzz.report) =
  let primary = (Option.get r.Fuzz.r_coverage).Cov.s_executions in
  let probes = r.Fuzz.r_lint_potential * c.Fuzz.c_lint_execs in
  float_of_int (primary + probes) /. float_of_int r.Fuzz.r_programs

let plan_digest_ms ctx plan extra =
  let p = { plan with Corpus.pl_entries = plan.Corpus.pl_entries @ extra } in
  1e3
  *. median
       (List.init 3 (fun _ ->
            let _, dt, _ =
              measure (fun () -> span ctx.tr "corpus.plan_digest" (fun () -> Corpus.plan_digest p))
            in
            dt))

let run ctx =
  let plan, setup_s, load_s = setup ctx in
  let cs = ref [] in
  let c = cfg plan in
  let first = ref None in
  let reports_differ = ref 0 and failed = ref 0 in
  let slices =
    rounds ~seconds:ctx.seconds ~min_rounds:3 (fun _ ->
        let r, wall, alloc =
          measure (fun () ->
              span ctx.tr "fuzz.campaign" (fun () ->
                  Fuzz.campaign ~profile:ctx.profile ~metrics:ctx.metrics c))
        in
        let heap = read_heap_peak () in
        (match !first with
        | None -> first := Some r
        | Some r0 -> if report_string r <> report_string r0 then incr reports_differ);
        failed := !failed + failed_programs r;
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
  let nrounds = List.length slices in
  let r0 = Option.get !first in
  check cs "every pass reports the same campaign" (!reports_differ = 0)
    (Printf.sprintf "%d passes differ from the first" !reports_differ);
  (* The campaign's admissions go to disk once per run, outside the
     passes: on a shared disk their time varies far more than the
     campaign's (see README.md).  corpus.store_ms reports it. *)
  let dir = new_dir ctx.work "admitted" in
  let (), store_s, _ =
    measure (fun () ->
        span ctx.tr "corpus.store" (fun () -> store_all (open_corpus dir) (admitted r0)))
  in
  let want = List.sort_uniq compare (List.map (fun e -> e.Corpus.en_digest) (admitted r0)) in
  let got = List.map (fun e -> e.Corpus.en_digest) (Corpus.load (open_corpus dir)) in
  check cs "every admitted entry reloads under its own digest" (got = want)
    (Printf.sprintf "%d admitted digests, %d reloaded" (List.length want) (List.length got));
  check_report cs r0;
  let j2 = Fuzz.campaign { c with Fuzz.c_jobs = 2 } in
  check cs "the report equals the -j 2 campaign's" (report_string j2 = report_string r0)
    "reports differ";
  Printf.printf "  pass walls (s): %s; admissions stored in %.3f s\n"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.sl_wall) slices))
    store_s;
  let round_s = round_s slices in
  let e2e = end_to_end ~setup_s ~exec_ms_p50:(ms_per_exec slices) slices in
  let layers =
    if not ctx.traced then []
    else begin
      let span_ms name =
        match Profile.snapshot ctx.profile name with
        | Some s -> float_of_int s.Profile.total_ns *. 1e-6 /. float_of_int nrounds
        | None -> 0.
      in
      let span_us name =
        match Profile.snapshot ctx.profile name with
        | Some s -> s.Profile.mean_ns /. 1e3
        | None -> 0.
      in
      let adm = List.length (admitted r0) in
      layer_probe ctx plan
      @ [
          ("fuzz.generate_us", span_us "fuzz_generate");
          ("fuzz.run_one_us", span_us "fuzz_execute");
          ("fuzz.execs_per_program", execs_per_program c r0);
          ("fuzz.shrink_ms", span_ms "fuzz_shrink");
          ("fuzz.shrink_steps", float_of_int r0.Fuzz.r_shrink_steps);
          ("lint.potential", float_of_int r0.Fuzz.r_lint_potential);
          ("distinct_shapes", float_of_int (Cov.distinct_shapes (Option.get r0.Fuzz.r_coverage)));
          ("corpus.store_ms", store_s *. 1e3);
          ("corpus.load_ms", load_s *. 1e3);
          ("corpus.admitted", float_of_int adm);
          ("corpus.admit_share", float_of_int adm /. float_of_int r0.Fuzz.r_programs);
          ("corpus.plan_digest_ms", plan_digest_ms ctx plan (admitted r0));
          ("trace.round_ms", round_s *. 1e3);
        ]
    end
  in
  {
    attempted = nrounds * programs;
    failed = !failed;
    checks = checks_of cs;
    metrics_out = e2e @ layers;
    round_s;
  }
