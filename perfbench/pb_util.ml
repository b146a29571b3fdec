(* Shared machinery of the pipeline benchmark: clocks and Gc counters,
   order statistics, the round loop, scratch directories, the span
   recorder of the traced mode, and the result a workload hands back. *)

(* ------------------------------------------------------------------ *)
(* Clocks and allocation *)

let now_ns () = Profile.now_ns ()
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words allocated by this domain so far: minor + major - promoted, so a
   promoted word is counted once. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Peak major-heap size since the last [reset_heap_peak], sampled at the
   end of every major GC cycle and on reading. *)
let heap_peak = ref 0

let sample_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !heap_peak then heap_peak := h

let _alarm = Gc.create_alarm sample_heap

let reset_heap_peak () = heap_peak := (Gc.quick_stat ()).Gc.heap_words

let read_heap_peak () =
  sample_heap ();
  float_of_int !heap_peak

(* [measure f] runs [f] and returns its result, wall seconds and the
   words it allocated. *)
let measure f =
  let a0 = alloc_words () in
  let t0 = now_ns () in
  let x = f () in
  let dt = secs_since t0 in
  (x, dt, alloc_words () -. a0)

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* The round loop *)

(* What one round measured, with tracing off. *)
type slice = {
  sl_wall : float;  (** seconds *)
  sl_execs : int;  (** engine executions *)
  sl_ops : int;  (** atomic + non-atomic memory actions *)
  sl_programs : int;  (** programs tested *)
  sl_alloc : float;  (** words allocated by this process *)
  sl_heap : float;  (** major-heap peak in words over the timed phase *)
}

(* [rounds ~seconds ~min_rounds f] calls [f r] for r = 0, 1, ... and
   starts another round only while fewer than [seconds] have passed
   since the first began (and always at least [min_rounds]).  Every
   round is the same whole set of operations, so per-round shares of
   failed operations never depend on how long a run lasts.  Before each
   round the heap is collected (Gc.compact) and its peak reset, so that
   a round's peak carries as little of an earlier round's heap as the
   runtime gives back; [f] reads the peak ({!read_heap_peak}) when its
   timed phase ends. *)
let rounds ~seconds ~min_rounds f =
  let t0 = now_ns () in
  let rec go r acc =
    if r >= min_rounds && secs_since t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      reset_heap_peak ();
      let s = f r in
      go (r + 1) (s :: acc)
    end
  in
  go 0 []

let per_s f slices =
  median (List.map (fun s -> float_of_int (f s) /. s.sl_wall) slices)

(* the run's total over its total wall, for runs whose rounds differ *)
let total_per_s f slices =
  let sum g = List.fold_left (fun a s -> a +. g s) 0. slices in
  sum (fun s -> float_of_int (f s)) /. sum (fun s -> s.sl_wall)

let round_s slices = median (List.map (fun s -> s.sl_wall) slices)

(* mean execution time within each round, median over rounds *)
let ms_per_exec slices =
  median (List.map (fun s -> s.sl_wall *. 1e3 /. float_of_int s.sl_execs) slices)

(* The end-to-end metrics every workload reports; only the execution
   latency, and for some workloads the rates, are measured differently
   from one workload to another. *)
let end_to_end ?(rate = per_s) ~setup_s ~exec_ms_p50 slices =
  [
    ("setup_s", setup_s);
    ("exec_per_s", rate (fun s -> s.sl_execs) slices);
    ("ops_per_s", rate (fun s -> s.sl_ops) slices);
    ("exec_ms_p50", exec_ms_p50);
    ("programs_per_s", rate (fun s -> s.sl_programs) slices);
    ("alloc_mwords", median (List.map (fun s -> s.sl_alloc /. 1e6) slices));
    ("top_heap_mwords", median (List.map (fun s -> s.sl_heap /. 1e6) slices));
  ]

(* ------------------------------------------------------------------ *)
(* Scratch directories (always below the benchmark's work directory) *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir;
  dir

(* A directory no earlier step of the run used.  Scratch is removed only
   when the run ends, so no deletion lands inside a timed round. *)
let scratch_count = ref 0

let new_dir work name =
  incr scratch_count;
  let d = Filename.concat work (Printf.sprintf "%s-%d" name !scratch_count) in
  mkdir_p d;
  d

let rec count_files dir =
  Array.fold_left
    (fun n e ->
      let p = Filename.concat dir e in
      if Sys.is_directory p then n + count_files p else n + 1)
    0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Span recorder (traced mode only)

   Spans wrap the benchmark's own calls into the library's layers; they
   are kept in memory and written out as NDJSON when the run ends.  With
   tracing off [span] is a direct call. *)

type span = { sp_id : int; sp_parent : int; sp_name : string; sp_t0 : int; sp_t1 : int }

type tracer = {
  tr_on : bool;
  mutable tr_next : int;
  mutable tr_stack : int list;
  mutable tr_spans : span list;
}

let tracer on = { tr_on = on; tr_next = 1; tr_stack = []; tr_spans = [] }

let span tr name f =
  if not tr.tr_on then f ()
  else begin
    let id = tr.tr_next in
    tr.tr_next <- id + 1;
    let parent = match tr.tr_stack with p :: _ -> p | [] -> 0 in
    tr.tr_stack <- id :: tr.tr_stack;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        tr.tr_stack <- List.tl tr.tr_stack;
        tr.tr_spans <-
          { sp_id = id; sp_parent = parent; sp_name = name; sp_t0 = t0; sp_t1 = t1 }
          :: tr.tr_spans)
      f
  end

let write_spans tr path =
  if tr.tr_on then begin
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n"
          s.sp_id s.sp_parent s.sp_name s.sp_t0 (s.sp_t1 - s.sp_t0))
      (List.rev tr.tr_spans);
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* Run context and result *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  work : string;  (** scratch directory of this run *)
  exe : string;  (** the c11test binary (fabric workers) *)
  tr : tracer;
  metrics : Metrics.t;  (** engine counters; {!Metrics.null} untraced *)
  profile : Profile.t;  (** engine spans; {!Profile.null} untraced *)
}

type result = {
  attempted : int;
  failed : int;
  checks : (string * bool * string) list;  (** name, passed, detail *)
  metrics_out : (string * float) list;  (** by name; units from {!Pb_metrics} *)
  round_s : float;  (** median round wall (reported, not gated) *)
}

(* A check list under construction. *)
type checks = (string * bool * string) list ref

let check (cs : checks) name ok detail = cs := (name, ok, detail) :: !cs
let checks_of (cs : checks) = List.rev !cs

(* Set-up is repeated and its median reported, so one slow set-up does
   not move [setup_s].  [f ()] returns its result and the seconds it
   spent on timed work; the result of the last repetition is kept. *)
let setup_reps = 7

let repeat_setup f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    let x, dt = f () in
    times := dt :: !times;
    last := Some x
  done;
  (Option.get !last, median !times)

(* [timed f] is [f ()] with its wall seconds, for {!repeat_setup}. *)
let timed f =
  let x, dt, _ = measure f in
  (x, dt)

(* Engine counters and span totals accumulated in the traced handles,
   per round, under the per-layer metric names. *)
let core_layer ctx ~rounds =
  let per_round x = x /. float_of_int (max 1 rounds) in
  let count name = per_round (float_of_int (Metrics.counter_value ctx.metrics name)) in
  let hist_total name =
    match Metrics.histo_snapshot ctx.metrics name with
    | Some h -> per_round h.Metrics.total
    | None -> 0.
  in
  let ms name =
    match Profile.snapshot ctx.profile name with
    | Some s -> per_round (float_of_int s.Profile.total_ns *. 1e-6)
    | None -> 0.
  in
  [
    ("sched.picks", count "sched.picks");
    ("execution.mrf_candidates", hist_total "mrf.candidates");
    ("clockvec.merge_ms", ms "cv_merge");
    ("race.checks", count "race.checks");
    ("race.epoch_hits", count "race.epoch_hits");
    ("race.check_ms", ms "race_check");
    ("execution.prior_set_ms", ms "prior_set");
    ("execution.may_read_from_ms", ms "may_read_from");
    ("mograph.edges_added", count "mograph.edges_added");
    ("mograph.update_ms", ms "mo_graph_update");
    ("pruner.sweep_ms", ms "prune_sweep");
    ("pruner.stores_pruned", count "prune.stores");
  ]
