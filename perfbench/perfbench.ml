(* The pipeline benchmark's entry point.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds, checks its outputs and prints,
   as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The exit status
   speaks of the benchmark's own checks only: 0 when every check passed,
   1 (naming the workload and each failed check on stderr) otherwise, 2
   on a usage error.  Scratch files go below .perfbench/ in the current
   directory. *)

open Pb_util

let workloads =
  [
    ("run-mix", Pb_runmix.run);
    ("fuzz-corpus", Pb_fuzz.run);
    ("long-exec", Pb_long.run);
    ("fabric-corpus", Pb_fabric.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (run-mix|fuzz-corpus|long-exec|fabric-corpus) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (
    match List.assoc_opt w workloads with
    | Some f -> (w, f, s, secs, t)
    | None -> usage ())
  | _ -> usage ()

(* every figure with all its digits; never nan or inf (see Pb_metrics) *)
let json_float v = Printf.sprintf "%.17g" v

let () =
  let name, run, seed, seconds, traced = parse_args () in
  let root = Sys.getcwd () in
  let top = Filename.concat root ".perfbench" in
  let work = fresh_dir (Filename.concat top name) in
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "c11test.exe")
  in
  let ctx =
    {
      seed;
      seconds;
      traced;
      work;
      exe;
      tr = tracer traced;
      metrics = (if traced then Metrics.create () else Metrics.null);
      profile = (if traced then Profile.create () else Profile.null);
    }
  in
  let res =
    try run ctx
    with e ->
      rm_rf work;
      Printf.eprintf "perfbench: %s: check failed: %s\n" name
        (match e with Failure msg -> msg | e -> Printexc.to_string e);
      exit 1
  in
  write_spans ctx.tr (Filename.concat top (name ^ "-spans.ndjson"));
  rm_rf work;
  let metrics =
    match Pb_metrics.select ~traced res.metrics_out with
    | Ok ms -> ms
    | Error m ->
      Printf.eprintf "perfbench: %s: metric %s was not measured\n" name m;
      exit 1
  in
  let failed_checks = List.filter (fun (_, ok, _) -> not ok) res.checks in
  Printf.printf "perfbench: %s seed %d, %d checks, median round %.3f s\n" name
    seed (List.length res.checks) res.round_s;
  List.iter
    (fun (m, unit, v) -> Printf.printf "  %-28s %16.6g %s\n" m v unit)
    metrics;
  List.iter
    (fun (c, _, detail) ->
      Printf.eprintf "perfbench: %s: check failed: %s (%s)\n" name c detail)
    failed_checks;
  let correct = failed_checks = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (m, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m (json_float v) unit)
          metrics));
  exit (if correct then 0 else 1)
