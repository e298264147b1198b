(* Test-only oracle for [Vliw_vp.Trace_sim.run]: the per-execution loop the
   phased kernels must reproduce. Each dynamic block execution is drawn
   from the trace RNG, each of its predicted loads reads the next value of
   its stream and makes one [Vp_table.predict_and_train] call, in schedule
   order, and every speculated execution replays the compiled engine — no
   mask memo, no slot batching, no state shared with the library. Built
   from public names only. *)

type run = {
  result : Vliw_vp.Trace_sim.result;
  speculated : int;  (** block executions that ran a speculated block *)
}

let run ?(executions = 5000) ~table (p : Vliw_vp.Pipeline.t) =
  let config = p.config in
  let rng =
    Vp_util.Rng.split_named
      (Vp_util.Rng.create config.Vliw_vp.Config.seed)
      "hardware-trace"
  in
  let weights =
    Array.map
      (fun (b : Vliw_vp.Pipeline.block_eval) -> float_of_int b.count)
      p.blocks
  in
  (* Occurrence [k] of a predicted load reads position [k] of its
     stream. *)
  let stream_pos =
    Array.make (Vp_workload.Workload.num_streams p.workload) 0
  in
  let next_value id =
    let k = stream_pos.(id) in
    stream_pos.(id) <- k + 1;
    (Vp_workload.Workload.arena p.workload id ~min_len:(k + 1)).(k)
  in
  let arena = Vp_engine.Compiled.Arena.create () in
  let compiled = Array.make (Array.length p.blocks) None in
  let compiled_for bi (spec : Vliw_vp.Pipeline.spec_eval) =
    match compiled.(bi) with
    | Some c -> c
    | None ->
        let c =
          Vp_engine.Compiled.compile ?ccb_capacity:config.ccb_capacity
            ~cce_retire_width:config.cce_retire_width spec.sb
            ~reference:(Vliw_vp.Pipeline.reference_of_block p bi)
            ~live_in:Vliw_vp.Pipeline.live_in
        in
        compiled.(bi) <- Some c;
        c
  in
  let cycles = ref 0 and original_cycles = ref 0 in
  let predictions = ref 0 and mispredictions = ref 0 in
  let speculated = ref 0 in
  for _ = 1 to executions do
    let bi = Vp_util.Rng.weighted_index rng weights in
    let b = p.blocks.(bi) in
    original_cycles := !original_cycles + b.original_cycles;
    match b.spec with
    | None -> cycles := !cycles + b.original_cycles
    | Some spec ->
        incr speculated;
        let preds = spec.sb.predicted in
        let outcomes = Array.make (Array.length preds) false in
        Array.iteri
          (fun i (pl : Vp_vspec.Spec_block.predicted_load) ->
            let actual = next_value (Option.get pl.stream) in
            let correct =
              Vp_predict.Vp_table.predict_and_train table
                ~pc:(Vliw_vp.Trace_sim.pc_of ~block:bi ~op:pl.orig_load_id)
                ~actual
            in
            incr predictions;
            if not correct then incr mispredictions;
            outcomes.(i) <- correct)
          preds;
        let r =
          Vp_engine.Compiled.run_scenario (compiled_for bi spec) arena
            ~outcomes
        in
        cycles := !cycles + Vliw_vp.Config.effective_cycles config r
  done;
  let cycles = !cycles and original_cycles = !original_cycles in
  let predictions = !predictions and mispredictions = !mispredictions in
  {
    result =
      {
        executions;
        cycles;
        original_cycles;
        speedup =
          (if cycles = 0 then 1.0
           else float_of_int original_cycles /. float_of_int cycles);
        predictions;
        mispredictions;
        accuracy =
          (if predictions = 0 then 0.0
           else
             float_of_int (predictions - mispredictions)
             /. float_of_int predictions);
        profile_speedup =
          Vp_metrics.Summary.expected_speedup (Vliw_vp.Pipeline.stats p);
      };
    speculated = !speculated;
  }
