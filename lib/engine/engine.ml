type report = Report.t
type sim = Report.sim
type schedule_choice = Pipeline.schedule_choice =
  | Optimal
  | Classic
  | Untiled
  | Permuted of int array
  | Fixed of int array

let analyze ?sims ?shared spec ~m = Pipeline.run (Pipeline.request ?sims ?shared spec ~m)

let analyze_checked ?sims ?shared ?deadline spec ~m =
  Pipeline.run_checked ?deadline (Pipeline.request ?sims ?shared spec ~m)

let run_checked = Pipeline.run_checked
let sweep = Pipeline.sweep
let sweep_checked = Pipeline.sweep_checked
let partition_checked = Pipeline.partition_checked
let partition_validate = Pipeline.partition_validate

let sweep_grid ?jobs ?sims ?shared specs ~ms =
  let reqs =
    List.concat_map
      (fun spec -> List.map (fun m -> Pipeline.request ?sims ?shared spec ~m) ms)
      specs
  in
  Pipeline.sweep ?jobs reqs

let simulate ?policy ?line_words spec ~m choice =
  Pipeline.simulate spec ~m (Pipeline.sim ?policy ?line_words choice)

let words_moved ?policy ?line_words spec ~m choice =
  (simulate ?policy ?line_words spec ~m choice).Report.words_moved

let lower_bound = Pipeline.lower_bound
let solve_lp = Pipeline.solve_lp
let tile = Pipeline.tile
let tile_shared = Pipeline.tile_shared
let hierarchy = Pipeline.hierarchy
let cache_stats = Pipeline.cache_stats
let reset_caches = Pipeline.reset_caches
let cache_snapshot = Pipeline.cache_snapshot
let cache_restore = Pipeline.cache_restore

type plan_mode = Pipeline.plan_mode = Plan_inline | Plan_deferred

let set_plan_mode = Pipeline.set_plan_mode
let plan_mode = Pipeline.plan_mode
let plan_of = Pipeline.plan_of
let install_plan = Pipeline.install_plan
let compile_pending = Pipeline.compile_pending
