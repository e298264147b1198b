(* In-process layer pass of the end-to-end benchmark (perfbench/run.py).

     layers trace --workload W --seed N --jobs J --spans 0|1 --store DIR
                  --out FILE
       Redo the work of the workload's command (all, frontier, or the
       serve warm-up wave) by calling each layer's public entry points in
       pipeline order, with a span around every call (--spans 1) or none
       (--spans 0: the untraced twin run whose wall time, subtracted from
       the traced one, is the tracing overhead); then rerun it warm over
       the store the cold pass filled. Writes per-layer self times,
       counts, memo counters and the spans (Chrome trace events) as JSON
       to FILE, the rendered output of the cold and warm passes to
       FILE.out and FILE.warm.out, and the leaves' execution-context
       telemetry to FILE.telemetry.

     layers gc --dir DIR --out FILE -- PROG ARGS...
       Run PROG with the OCaml runtime's event ring enabled
       (OCAML_RUNTIME_EVENTS_START) and follow its GC phases, and those of
       every process it forks, through Runtime_events cursors. Writes
       collection counts, pause time and the depth-0 GC phases as JSON;
       PROG also prints the runtime's exit report (OCAMLRUNPARAM=v=0x400).

   The simulator itself is not modified: the spans sit around calls made
   from here, and the GC phases come from the runtime's own event ring. *)

module C = Vliw_vp.Config
module SU = Vliw_vp.Spec_unit

let now = Unix.gettimeofday

(* --- spans ------------------------------------------------------------ *)

type span = {
  name : string;
  t0 : float;
  t1 : float;
  id : int;
  parent : int;
  iter : int;
  tid : int;
  words : float;  (** words allocated by the span's domain while open *)
}

let tracing = ref true
let lock = Mutex.create ()
let spans : span list ref = ref []
let counts : (string, float) Hashtbl.t = Hashtbl.create 16
let next_id = Atomic.make 1
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let iteration = Domain.DLS.new_key (fun () -> ref 0)
let iteration_set n = Domain.DLS.get iteration := n

let count name n =
  if !tracing then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counts name
          (n +. Option.value ~default:0.0 (Hashtbl.find_opt counts name)))

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [span name f] runs [f] as a child of the innermost open span of the
   calling domain. *)
let span name f =
  if not !tracing then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let id = Atomic.fetch_and_add next_id 1 in
    stack := id :: !stack;
    let w0 = allocated_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let words = allocated_words () -. w0 in
      stack := List.tl !stack;
      let s =
        {
          name; t0; t1; id; parent; iter = !(Domain.DLS.get iteration);
          tid = (Domain.self () :> int); words;
        }
      in
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    Fun.protect ~finally:finish f
  end

(* --- the layer pass ----------------------------------------------------- *)

(* The pass redoes what [vliw_vp all], [vliw_vp frontier] and the serve
   warm-up wave compute: the same experiment leaves, declared on a
   [Vp_exec.Graph] in the same order under the same content keys, each
   leaf evaluating its pipelines through a copy of [Pipeline.run_program]
   with a span around every layer call. Memoized entry points are the
   program's own ([Spec_unit], [Region_unit], [Workload.generate],
   [Experiments.summarize]) called with the program's arguments, so the
   memo counters and the rendered output can be checked against the
   program's (perfbench/run.py does). *)

let live_in = Vliw_vp.Pipeline.live_in
let lanes = Domain.DLS.new_key Vp_engine.Compiled.Lanes.create

(* The reference execution the pipeline simulates against: each load takes
   the first value of its stream (fresh replayable instances). *)
let block_reference workload (block : Vp_ir.Block.t) =
  let values = Hashtbl.create 8 in
  List.iter
    (fun (op : Vp_ir.Operation.t) ->
      match op.stream with
      | Some s ->
          Hashtbl.replace values op.id
            (Vp_workload.Value_stream.next
               (Vp_workload.Workload.stream workload s))
      | None -> ())
    (Vp_ir.Block.loads block);
  Vp_engine.Reference.run block ~load_values:(Hashtbl.find values) ~live_in

type prep = {
  sb : Vp_vspec.Spec_block.t;
  reference : Vp_engine.Reference.t;
  rates : float array;
  vectors : (Vp_engine.Scenario.t * float) list;
  recovery : Vp_baseline.Static_recovery.t;
}

let prep_spec (config : C.t) workload (wb : Vp_ir.Program.weighted_block) sb =
  let reference =
    span "vp_engine.reference" (fun () -> block_reference workload wb.block)
  in
  let recovery =
    span "vp_baseline" (fun () ->
        Vp_baseline.Static_recovery.build ~branch_penalty:config.branch_penalty
          (C.machine config) sb)
  in
  let rates = Array.map (fun p -> p.Vp_vspec.Spec_block.rate) sb.predicted in
  let n = Array.length rates in
  let vectors =
    if n <= config.max_enumerated_predictions then
      List.map
        (fun o -> (o, Vp_engine.Scenario.probability ~rates o))
        (Vp_engine.Scenario.enumerate n)
    else
      let rng =
        Vp_util.Rng.split_named
          (Vp_util.Rng.create config.seed)
          (Vp_ir.Block.label wb.block)
      in
      let w = 1.0 /. float_of_int config.monte_carlo_draws in
      List.init config.monte_carlo_draws (fun _ ->
          (Vp_engine.Scenario.sample rng ~rates, w))
  in
  { sb; reference; rates; vectors; recovery }

(* One block's scenario batch: compile the kernel, run every outcome
   vector through the bit-parallel lanes. *)
let simulate_batch (config : C.t) p =
  let compiled =
    span "vp_engine.compile" (fun () ->
        SU.compiled ?ccb_capacity:config.ccb_capacity
          ~cce_retire_width:config.cce_retire_width ~live_in p.sb
          ~reference:p.reference)
  in
  let n = Array.length p.rates in
  let draws = Array.of_list (List.map fst p.vectors) in
  let nvec = Array.length draws in
  let vectors =
    Array.append draws
      [|
        Vp_engine.Scenario.all_correct n; Vp_engine.Scenario.all_incorrect n;
      |]
  in
  let all =
    span "vp_engine.scenario" (fun () ->
        Vp_engine.Compiled.run_bitset compiled (Domain.DLS.get lanes) ~vectors)
  in
  let seen = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace seen v ()) draws;
  (Array.to_list (Array.sub all 0 nvec), all.(nvec), all.(nvec + 1),
   Hashtbl.length seen)

let eval_of_prep p (results, best, worst, unique) =
  let scenarios =
    span "vp_baseline" (fun () ->
        List.map2
          (fun (outcomes, probability) result ->
            {
              Vliw_vp.Pipeline.outcomes;
              probability;
              result;
              recovery_cycles =
                Vp_baseline.Static_recovery.cycles p.recovery ~outcomes;
              recovery_compensation =
                Vp_baseline.Static_recovery.compensation_cycles p.recovery
                  ~outcomes;
            })
          p.vectors results)
  in
  let n = Array.length p.rates in
  {
    Vliw_vp.Pipeline.sb = p.sb;
    rates = p.rates;
    scenarios;
    draws = List.length p.vectors;
    unique_scenarios = unique;
    best;
    worst;
    p_all_correct =
      Vp_engine.Scenario.probability ~rates:p.rates
        (Vp_engine.Scenario.all_correct n);
    p_all_incorrect =
      Vp_engine.Scenario.probability ~rates:p.rates
        (Vp_engine.Scenario.all_incorrect n);
    recovery = p.recovery;
  }

let fresh_profile (config : C.t) workload program =
  span "vp_profile" (fun () ->
      Vp_profile.Value_profile.profile ~program
        ?predictors:config.profile_predictors
        ~rates:(SU.profile_rates workload) workload)

(* [Pipeline.run_program_fresh]: schedule, transform and prepare every
   block in order; simulate the speculated ones as jobs on a sequential,
   storeless context (experiment leaves call the pipeline without one);
   reattach. *)
let evaluate ~(config : C.t) ~profile workload program =
  span "vliw_vp.pipeline" @@ fun () ->
  let descr = C.machine config in
  let profile =
    match profile with
    | Some profile -> profile
    | None -> fresh_profile config workload program
  in
  let digest = Vliw_vp.Region_unit.digest_of program in
  let pre =
    Array.mapi
      (fun index (wb : Vp_ir.Program.weighted_block) ->
        let rates =
          Array.map
            (fun (op : Vp_ir.Operation.t) ->
              if Vp_ir.Operation.is_load op then
                Vp_profile.Value_profile.rate profile ~block:index ~op:op.id
              else None)
            (Vp_ir.Block.ops wb.block)
        in
        let ident = Option.map (fun d -> (d, index)) digest in
        let schedule =
          span "vp_sched" (fun () -> SU.schedule ?ident descr wb.block)
        in
        match
          span "vp_vspec" (fun () ->
              SU.transform ?ident ~policy:config.policy descr ~rates wb.block)
        with
        | Vp_vspec.Transform.Unchanged reason ->
            (index, wb, schedule, Some reason, None)
        | Vp_vspec.Transform.Speculated sb ->
            (index, wb, schedule, None, Some (prep_spec config workload wb sb)))
      (Vp_ir.Program.blocks program)
  in
  let jobs =
    Array.to_list pre
    |> List.filter_map (fun (index, _, _, _, prep) ->
           Option.map
             (fun p ->
               Vp_exec.Job.make
                 ~key:(Printf.sprintf "scenario-batch-uncached:%d" index)
                 (fun _ -> simulate_batch config p))
             prep)
  in
  let results = ref (Vp_exec.Context.map_exn Vp_exec.Context.sequential jobs) in
  let next () =
    let r = List.hd !results in
    results := List.tl !results;
    r
  in
  let blocks =
    Array.map
      (fun (index, (wb : Vp_ir.Program.weighted_block), schedule, skip_reason,
            prep) ->
        {
          Vliw_vp.Pipeline.index;
          count = wb.count;
          original_cycles = Vp_sched.Schedule.length schedule;
          original_instructions = Vp_sched.Schedule.num_instructions schedule;
          skip_reason;
          spec = Option.map (fun p -> eval_of_prep p (next ())) prep;
        })
      pre
  in
  {
    Vliw_vp.Pipeline.config;
    model = Vp_workload.Workload.model workload;
    workload;
    program;
    profile;
    blocks;
  }

(* The program's whole-run memo: physical program and workload, structural
   config, physical profile argument. *)
let memo_lock = Mutex.create ()

let runs :
    (Vp_ir.Program.t
    * Vp_workload.Workload.t
    * C.t
    * Vp_profile.Value_profile.t option
    * Vliw_vp.Pipeline.t)
    list
    ref =
  ref []

let run_memo_hits = Atomic.make 0
let run_memo_misses = Atomic.make 0

let run_program ~config ?profile workload program =
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false
  in
  let find () =
    List.find_map
      (fun (p, w, c, pr, r) ->
        if p == program && w == workload && C.structural_equal c config
           && same pr profile
        then Some r
        else None)
      !runs
  in
  match Mutex.protect memo_lock find with
  | Some r ->
      Atomic.incr run_memo_hits;
      r
  | None ->
      let r = evaluate ~config ~profile workload program in
      Atomic.incr run_memo_misses;
      Mutex.protect memo_lock (fun () ->
          runs := (program, workload, config, profile, r) :: !runs);
      r

(* The program's profile memo: one profile per (model, seed, predictors). *)
let profiles = ref []

let memo_profile (config : C.t) model workload program =
  let find () =
    List.find_map
      (fun (m, s, pr, p) ->
        if m == model && s = config.seed && pr = config.profile_predictors
        then Some p
        else None)
      !profiles
  in
  match Mutex.protect memo_lock find with
  | Some p -> p
  | None ->
      let p = fresh_profile config workload program in
      Mutex.protect memo_lock (fun () ->
          profiles := (model, config.seed, config.profile_predictors, p)
                      :: !profiles);
      p

let generate (config : C.t) model =
  span "vp_workload" (fun () ->
      Vp_workload.Workload.generate ~seed:config.seed model)

(* [Pipeline.run] *)
let pipeline_run ~config model =
  let workload = generate config model in
  let program = Vp_workload.Workload.program workload in
  let profile = memo_profile config model workload program in
  run_program ~config ~profile workload program

(* [Experiments.run_benchmark]; [summarize] holds the memoized
   instruction-cache comparison. *)
let run_benchmark ~config model =
  let p = pipeline_run ~config model in
  span "vp_cache" (fun () -> Vliw_vp.Experiments.summarize p)

(* A region's speculation budget scales with its size. *)
let region_config (config : C.t) (params : Vp_region.Superblock.params) =
  let k = params.max_blocks in
  {
    config with
    cce_retire_width = config.cce_retire_width * k;
    policy =
      {
        config.policy with
        max_predictions = config.policy.max_predictions * k;
        max_sync_bits = config.policy.max_sync_bits * k;
      };
  }

let region_row ~store ~(config : C.t) ~params (model : Vp_workload.Spec_model.t)
    =
  let workload = generate config model in
  let cfg =
    span "vp_workload" (fun () ->
        Vp_workload.Cfg.derive ~seed:config.seed workload)
  in
  let sb_program, traces =
    span "vp_region.form" (fun () ->
        count "vp_region.calls" 1.0;
        Vliw_vp.Region_unit.superblock ~store ~seed:config.seed workload cfg
          params)
  in
  let base =
    run_program ~config workload (Vp_workload.Workload.program workload)
  in
  let region =
    run_program ~config:(region_config config params) workload sb_program
  in
  let stats = Vliw_vp.Pipeline.stats in
  let multi =
    List.filter
      (fun (t : Vp_region.Superblock.trace) -> List.length t.blocks >= 2)
      traces
  in
  {
    Vliw_vp.Experiments.region_bench = model.name;
    base_ratio = (Vp_metrics.Summary.table3 (stats base)).best;
    region_ratio = (Vp_metrics.Summary.table3 (stats region)).best;
    base_speedup = Vp_metrics.Summary.expected_speedup (stats base);
    region_speedup = Vp_metrics.Summary.expected_speedup (stats region);
    formed_traces = List.length multi;
    mean_trace_blocks =
      Vp_util.Stats.mean
        (List.map
           (fun (t : Vp_region.Superblock.trace) ->
             float_of_int (List.length t.blocks))
           multi);
  }

(* Overlap validation: a dynamic block sequence on the shared-clock
   sequence engine against the per-block dual-engine accountings. *)
let overlap_row ~(config : C.t) ~executions (model : Vp_workload.Spec_model.t) =
  let p = pipeline_run ~config model in
  let rng =
    Vp_util.Rng.split_named (Vp_util.Rng.create config.seed) "overlap"
  in
  let weights =
    Array.map
      (fun (b : Vliw_vp.Pipeline.block_eval) -> float_of_int b.count)
      p.blocks
  in
  let descr = C.machine config in
  span "vp_engine.overlap" @@ fun () ->
  let items =
    List.init executions (fun _ ->
        let bi = Vp_util.Rng.weighted_index rng weights in
        let b = p.blocks.(bi) in
        let reference = Vliw_vp.Pipeline.reference_of_block p bi in
        match b.spec with
        | None ->
            let wb = Vp_ir.Program.nth p.program bi in
            let s =
              span "vp_sched" (fun () ->
                  Vp_sched.List_scheduler.schedule_block descr wb.block)
            in
            ( Vp_engine.Sequence_engine.Plain (s, reference),
              b.original_cycles,
              b.original_cycles )
        | Some spec ->
            let outcomes = Vp_engine.Scenario.sample rng ~rates:spec.rates in
            let solo =
              Vp_engine.Dual_engine.run
                ~cce_retire_width:config.cce_retire_width spec.sb ~reference
                ~live_in ~outcomes
            in
            ( Vp_engine.Sequence_engine.Speculated
                { sb = spec.sb; reference; outcomes },
              solo.vliw_cycles,
              solo.cycles ))
  in
  let r =
    Vp_engine.Sequence_engine.run ~cce_retire_width:config.cce_retire_width
      ~live_in
      (List.map (fun (i, _, _) -> i) items)
  in
  {
    Vliw_vp.Experiments.overlap_bench = model.name;
    sequence_total = r.total_cycles;
    sum_vliw = List.fold_left (fun a (_, v, _) -> a + v) 0 items;
    sum_drain = List.fold_left (fun a (_, _, d) -> a + d) 0 items;
    sequence_stalls = r.stall_cycles;
    sequence_ok = r.state_ok;
  }

(* --- the experiment graph --------------------------------------------------- *)

module G = Vp_exec.Graph

(* The experiment layer's content keys, so the graph dedups the leaves the
   program's graph dedups (Table 4's narrow width onto run_all's). *)
let job_key ~kind ~(config : C.t) payload =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (kind, SU.version, payload, config)
          [ Marshal.Closures ]))

(* Marshals like the experiment layer's [Superblock_point params]. *)
type region_point = Superblock_point of Vp_region.Superblock.params

let region_key ~config params (model : Vp_workload.Spec_model.t) =
  job_key ~kind:"region" ~config (Superblock_point params, model)

let leaves_run = Atomic.make 0

(* A cached leaf, as [Context.with_store] wraps one: look the key up in the
   store, compute on a miss, write the result back. *)
let leaf g ~store ~key f =
  let declared = now () in
  G.node g ~cache:false ~key (fun _ ->
      count "vp_exec.queue_wait_s" (now () -. declared);
      count "vp_exec.jobs" 1.0;
      iteration_set (Atomic.fetch_and_add leaves_run 1);
      span "vp_exec.leaf" @@ fun () ->
      match span "vp_exec.store_read" (fun () -> Vp_exec.Store.find store ~key) with
      | Vp_exec.Store.Hit v -> v
      | Miss | Evicted ->
          let v = f () in
          span "vp_exec.store_write" (fun () -> Vp_exec.Store.put store ~key v);
          v)

let reduce g ~kind ~config ~payload leaves f =
  G.node g ~cache:false
    ~key:(job_key ~kind:("reduce-" ^ kind) ~config payload)
    ~deps:(List.map G.pack leaves)
    (fun _ -> f ())

let bench_leaf g ~store ~config (model : Vp_workload.Spec_model.t) =
  leaf g ~store ~key:(job_key ~kind:"benchmark" ~config model) (fun () ->
      run_benchmark ~config model)

let run_all g ~store ~config models =
  let leaves = List.map (bench_leaf g ~store ~config) models in
  reduce g ~kind:"run_all" ~config ~payload:models leaves (fun () ->
      List.map G.value leaves)

let table4 g ~store ~config models =
  let pairs =
    List.map
      (fun model ->
        ( model,
          bench_leaf g ~store ~config:(C.with_width 4 config) model,
          bench_leaf g ~store ~config:(C.with_width 8 config) model ))
      models
  in
  reduce g ~kind:"table4" ~config ~payload:(models, 4, 8)
    (List.concat_map (fun (_, n, w) -> [ n; w ]) pairs)
    (fun () ->
      List.map
        (fun ((m : Vp_workload.Spec_model.t), n, w) ->
          let (n : Vliw_vp.Experiments.benchmark_summary) = G.value n
          and (w : Vliw_vp.Experiments.benchmark_summary) = G.value w in
          {
            Vliw_vp.Experiments.bench = m.name;
            narrow_fraction = n.fractions.best;
            narrow_ratio = n.ratios.best;
            wide_fraction = w.fractions.best;
            wide_ratio = w.ratios.best;
          })
        pairs)

let regions g ~store ~config models =
  let params = Vp_region.Superblock.default_params in
  let leaves =
    List.map
      (fun model ->
        leaf g ~store ~key:(region_key ~config params model) (fun () ->
            region_row ~store ~config ~params model))
      models
  in
  reduce g ~kind:"regions" ~config ~payload:(models, params) leaves (fun () ->
      List.map G.value leaves)

let overlap g ~store ~config models =
  let executions = 400 in
  let leaves =
    List.map
      (fun model ->
        leaf g ~store
          ~key:(job_key ~kind:"overlap" ~config (model, executions))
          (fun () -> overlap_row ~config ~executions model))
      models
  in
  reduce g ~kind:"overlap" ~config ~payload:(models, executions) leaves
    (fun () -> List.map G.value leaves)

let hardware g ~store ~config models =
  let executions : int option = None in
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        leaf g ~store
          ~key:
            (job_key ~kind:"hardware" ~config
               (model, executions, Vliw_vp.Trace_sim.version))
          (fun () ->
            let p = pipeline_run ~config model in
            ( model.name,
              span "vliw_vp.trace_sim" (fun () -> Vliw_vp.Trace_sim.run p) )))
      models
  in
  reduce g ~kind:"hardware" ~config
    ~payload:(models, executions, Vliw_vp.Trace_sim.version) leaves
    (fun () -> List.map G.value leaves)

let frontier g ~store ~config models =
  let points =
    List.concat_map
      (fun mb ->
        List.concat_map
          (fun mp -> List.map (fun w -> (mb, mp, w)) [ 4; 8 ])
          [ 0.50; 0.65; 0.80 ])
      [ 2; 4; 8 ]
  in
  let leaves =
    List.concat_map
      (fun (model : Vp_workload.Spec_model.t) ->
        List.map
          (fun (mb, mp, w) ->
            let params =
              { Vp_region.Superblock.default_params with
                max_blocks = mb; min_probability = mp }
            in
            let config = C.with_width w config in
            ( (model, mb, mp, w),
              leaf g ~store ~key:(region_key ~config params model) (fun () ->
                  region_row ~store ~config ~params model) ))
          points)
      models
  in
  reduce g ~kind:"regions-frontier" ~config
    ~payload:(models, [ 2; 4; 8 ], [ 0.50; 0.65; 0.80 ], [ 4; 8 ])
    (List.map snd leaves)
    (fun () ->
      List.map
        (fun (((m : Vp_workload.Spec_model.t), mb, mp, w), n) ->
          let (r : Vliw_vp.Experiments.region_row) = G.value n in
          {
            Vliw_vp.Experiments.frontier_bench = m.name;
            frontier_max_blocks = mb;
            frontier_min_probability = mp;
            frontier_width = w;
            frontier_ratio = r.region_ratio;
            frontier_speedup = r.region_speedup;
            frontier_base_speedup = r.base_speedup;
            frontier_traces = r.formed_traces;
            frontier_mean_blocks = r.mean_trace_blocks;
          })
        leaves)

(* Declare the workload's experiments, as the program does, and render
   what it prints: [vliw_vp all], [vliw_vp frontier], or the served bytes
   of the warm-up wave's artifacts. *)
let pass ~workload ~seed ~exec ~store =
  let module E = Vliw_vp.Experiments in
  let config = { C.default with seed } in
  let models = Vp_workload.Spec_model.all in
  let g = G.create exec in
  let await n = G.await g n in
  match workload with
  | "suite-cold" ->
      let summaries = run_all g ~store ~config models in
      let t4 = table4 g ~store ~config models in
      let rg = regions g ~store ~config models in
      let ov = overlap g ~store ~config models in
      let s = await summaries in
      String.concat "\n"
        [
          E.render_table2 s; E.render_table3 s; E.render_table4 (await t4);
          E.render_figure8 s; E.render_comparison s; E.render_regions (await rg);
          E.render_overlap (await ov);
          Format.asprintf "%a@." Vliw_vp.Example.describe ();
        ]
  | "sweep-cold" -> E.render_regions_frontier (await (frontier g ~store ~config models))
  | _ ->
      (* serve-mixed: the warm-up wave's artifacts, in its order *)
      let summaries = run_all g ~store ~config models in
      let rg = regions g ~store ~config models in
      let hw = hardware g ~store ~config models in
      let s = await summaries in
      String.concat "\n"
        [
          E.render_table2 s; E.render_table3 s; E.render_figure8 s;
          E.render_comparison s; E.render_regions (await rg);
          Vliw_vp.Trace_sim.render (await hw); "";
        ]

(* --- JSON output ---------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Self time of a span: its duration minus the part of it that its child
   spans (on the same domain) cover. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let covered =
        List.fold_left
          (fun acc c -> if c.tid = s.tid then acc +. (c.t1 -. c.t0) else acc)
          0.0
          (Option.value ~default:[] (Hashtbl.find_opt children s.id))
      in
      (s, s.t1 -. s.t0 -. covered))
    spans

let trace_main ~workload ~seed ~jobs ~traced ~store_dir ~out =
  tracing := traced;
  let store = Vp_exec.Store.create ~dir:store_dir () in
  (* The leaves' context publishes the library's own telemetry (worker
     utilization), for comparison with the busy share the leaf spans
     measure. The pass does the store lookups itself, inside spans. *)
  let opts =
    { Vp_exec.Cli.default with jobs; no_cache = true;
      telemetry = Some (out ^ ".telemetry") }
  in
  let exec = Vp_exec.Cli.context opts in
  let bitset0 = Vp_engine.Compiled.bitset_stats () in
  Vliw_vp.Trace_sim.clear_stats ();
  let t0 = now () in
  let output = pass ~workload ~seed ~exec ~store in
  let wall = now () -. t0 in
  Vp_exec.Cli.emit_telemetry opts exec;
  (* A warm rerun, as a user's second run is: a fresh graph over the store
     the cold pass filled, so every leaf is read back instead of computed. *)
  let t1 = now () in
  let warm_output =
    pass ~workload ~seed ~store
      ~exec:(Vp_exec.Cli.context { opts with telemetry = None })
  in
  let warm_wall = now () -. t1 in
  write_file (out ^ ".out") output;
  write_file (out ^ ".warm.out") warm_output;
  let bitset1 = Vp_engine.Compiled.bitset_stats () in
  let ts = Vliw_vp.Trace_sim.stats () in
  let selfs = self_times !spans in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, tot, words, dur =
        Option.value ~default:(0, 0.0, 0.0, 0.0)
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        (n + 1, tot +. self, words +. s.words, dur +. (s.t1 -. s.t0)))
    selfs;
  let b = Buffer.create 65536 in
  Printf.bprintf b "{\"workload\": %s, \"seed\": %d, \"jobs\": %d,\n"
    (json_string workload) seed jobs;
  Printf.bprintf b "\"spans\": %b, \"wall_s\": %.6f, \"warm_wall_s\": %.6f,\n"
    traced wall warm_wall;
  Printf.bprintf b
    "\"bitset\": {\"words\": %d, \"vectors\": %d},\n"
    (bitset1.Vp_engine.Compiled.words - bitset0.Vp_engine.Compiled.words)
    (bitset1.vectors - bitset0.vectors);
  Printf.bprintf b
    "\"trace_sim\": {\"memo_hits\": %d, \"engine_replays\": %d},\n"
    ts.memo_hits ts.engine_replays;
  let memo name (s : SU.stats) =
    Printf.sprintf "%s: [%d, %d, %d]" (json_string name) s.hits s.misses
      s.evictions
  in
  Printf.bprintf b "\"memos\": {%s, %s, %s, %s},\n"
    (memo "spec_unit" (SU.stats ()))
    (memo "region_unit" (Vliw_vp.Region_unit.stats ()))
    (memo "comparison" (Vliw_vp.Experiments.comparison_stats ()))
    (memo "run_memo"
       {
         SU.hits = Atomic.get run_memo_hits;
         misses = Atomic.get run_memo_misses;
         evictions = 0;
       });
  Buffer.add_string b "\"layers\": {";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare
  |> List.iteri (fun i (name, (n, self, words, dur)) ->
         Printf.bprintf b
           "%s\n  %s: {\"calls\": %d, \"self_s\": %.6f, \"total_s\": %.6f, \
            \"alloc_mwords\": %.6f}"
           (if i = 0 then "" else ",")
           (json_string name) n self dur (words /. 1e6));
  Buffer.add_string b "},\n\"counts\": {";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare
  |> List.iteri (fun i (name, v) ->
         Printf.bprintf b "%s%s: %.6f" (if i = 0 then "" else ", ")
           (json_string name) v);
  Buffer.add_string b "},\n\"events\": [";
  List.iteri
    (fun i (s, _) ->
      Printf.bprintf b
        "%s\n{\"name\": %s, \"ph\": \"X\", \"ts\": %.1f, \"dur\": %.1f, \
         \"pid\": \"layers\", \"tid\": %d, \"args\": {\"id\": %d, \
         \"parent\": %d, \"iter\": %d}}"
        (if i = 0 then "" else ",")
        (json_string s.name) (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.tid s.id s.parent s.iter)
    (List.sort (fun (a, _) (b, _) -> compare a.t0 b.t0) selfs);
  Buffer.add_string b "]}\n";
  write_file out (Buffer.contents b)

(* --- GC phases of a child process tree --------------------------------- *)

type ring = {
  mutable depth : int;
  mutable opened : int64;
  mutable minors : int;
  mutable majors : int;
  mutable pause_ns : int64;
}

let gc_main ~dir ~out argv =
  let env =
    Array.append
      [|
        "OCAML_RUNTIME_EVENTS_START=1";
        "OCAML_RUNTIME_EVENTS_DIR=" ^ dir;
        "OCAML_RUNTIME_EVENTS_PRESERVE=1";
        "OCAML_RUNTIME_EVENTS_LOG_WSIZE=18";
        (* every process of the tree reports its heap at exit *)
        "OCAMLRUNPARAM=v=0x400";
      |]
      (Unix.environment ())
  in
  let pid =
    Unix.create_process_env argv.(0) argv env Unix.stdin Unix.stdout
      Unix.stderr
  in
  let cursors : (int, Runtime_events.cursor) Hashtbl.t = Hashtbl.create 4 in
  let rings : (int * int, ring) Hashtbl.t = Hashtbl.create 4 in
  let events = Buffer.create 65536 in
  let n_events = ref 0 and lost = ref 0 in
  let ring_of p r =
    match Hashtbl.find_opt rings (p, r) with
    | Some x -> x
    | None ->
        let x =
          { depth = 0; opened = 0L; minors = 0; majors = 0; pause_ns = 0L }
        in
        Hashtbl.replace rings (p, r) x;
        x
  in
  let callbacks p =
    let counted = function
      | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
      | _ -> true
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun r ts phase ->
        let x = ring_of p r in
        (match phase with
        | EV_MINOR -> x.minors <- x.minors + 1
        | EV_MAJOR_GC_CYCLE_DOMAINS -> x.majors <- x.majors + 1
        | _ -> ());
        if counted phase then begin
          if x.depth = 0 then x.opened <- Runtime_events.Timestamp.to_int64 ts;
          x.depth <- x.depth + 1
        end)
      ~runtime_end:(fun r ts phase ->
        let x = ring_of p r in
        if counted phase && x.depth > 0 then begin
          x.depth <- x.depth - 1;
          if x.depth = 0 then begin
            let t = Runtime_events.Timestamp.to_int64 ts in
            let d = Int64.sub t x.opened in
            x.pause_ns <- Int64.add x.pause_ns d;
            if !n_events < 50_000 then begin
              incr n_events;
              Printf.bprintf events
                "%s\n{\"name\": %s, \"ph\": \"X\", \"ts\": %.1f, \"dur\": \
                 %.1f, \"pid\": \"gc %d\", \"tid\": %d}"
                (if !n_events = 1 then "" else ",")
                (json_string (Runtime_events.runtime_phase_name phase))
                (Int64.to_float x.opened /. 1e3)
                (Int64.to_float d /. 1e3) p r
            end
          end
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let attach () =
    Array.iter
      (fun f ->
        match Filename.chop_suffix_opt ~suffix:".events" f with
        | Some p -> (
            match int_of_string_opt p with
            | Some p when not (Hashtbl.mem cursors p) -> (
                match Runtime_events.create_cursor (Some (dir, p)) with
                | c -> Hashtbl.replace cursors p c
                | exception Failure _ -> ())
            | _ -> ())
        | None -> ())
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  (* A cursor opened while the child is still initialising its ring can
     stay blind; reopen cursors that have not delivered an event yet. *)
  let live = Hashtbl.create 4 in
  let poll () =
    attach ();
    Hashtbl.iter
      (fun p c ->
        if Runtime_events.read_poll c (callbacks p) None > 0 then
          Hashtbl.replace live p ()
        else if not (Hashtbl.mem live p) then begin
          Runtime_events.free_cursor c;
          Hashtbl.remove cursors p
        end)
      (Hashtbl.copy cursors)
  in
  let rec wait () =
    poll ();
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Unix.sleepf 0.002;
        wait ()
    | _, status -> status
  in
  let status = wait () in
  poll ();
  Hashtbl.iter (fun _ c -> Runtime_events.free_cursor c) cursors;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".events" then
        Sys.remove (Filename.concat dir f))
    (try Sys.readdir dir with Sys_error _ -> [||]);
  (* Per process, every domain's ring sees each stop-the-world collection;
     count collections on the busiest ring and pauses on all of them. *)
  let per_proc = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (p, _) x ->
      let mi, ma, pause =
        Option.value ~default:(0, 0, 0L) (Hashtbl.find_opt per_proc p)
      in
      Hashtbl.replace per_proc p
        (max mi x.minors, max ma x.majors, Int64.add pause x.pause_ns))
    rings;
  let minors, majors, pause =
    Hashtbl.fold
      (fun _ (mi, ma, pa) (a, b, c) -> (a + mi, b + ma, Int64.add c pa))
      per_proc (0, 0, 0L)
  in
  write_file out
    (Printf.sprintf
       "{\"processes\": %d, \"minor_collections\": %d, \
        \"major_collections\": %d, \"pause_s\": %.6f, \"lost_events\": %d, \
        \"events\": [%s]}\n"
       (Hashtbl.length per_proc) minors majors
       (Int64.to_float pause /. 1e9)
       !lost (Buffer.contents events));
  match status with
  | Unix.WEXITED c -> exit c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit 2

let () =
  let usage () =
    prerr_endline
      "usage: layers trace --workload W --seed N --jobs J --spans 0|1 \
       --store DIR --out FILE\n\
      \       layers gc --dir DIR --out FILE -- PROG ARGS...";
    exit 2
  in
  let rec opts acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | [] -> (List.rev acc, [])
    | _ -> usage ()
  in
  match Array.to_list Sys.argv with
  | _ :: mode :: rest -> (
      let kv, argv = opts [] rest in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      match mode with
      | "trace" ->
          trace_main ~workload:(get "--workload")
            ~seed:(int_of_string (get "--seed"))
            ~jobs:(int_of_string (get "--jobs"))
            ~traced:(get "--spans" = "1")
            ~store_dir:(get "--store") ~out:(get "--out")
      | "gc" when argv <> [] ->
          gc_main ~dir:(get "--dir") ~out:(get "--out") (Array.of_list argv)
      | _ -> usage ())
  | _ -> usage ()
