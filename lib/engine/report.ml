type sim = {
  label : string;
  schedule : Schedules.t;
  policy : Policy.t;
  line_words : int;
  stats : Cache.stats;
  words_moved : int;
  ratio : float;
}

type t = {
  spec : Spec.t;
  m : int;
  beta : Rat.t array;
  bound : Lower_bound.bound;
  lp : Tiling.lp_solution;
  tile : int array;
  tile_shared : int array option;
  tile_volume : int;
  tile_max_footprint : int;
  tiles : int;
  traffic : Tiling.traffic;
  attainment : float;
  sims : sim list;
  timings : (string * float) list;
  from_cache : bool;
}

let pp_sim ~bound ~m fmt s =
  Format.fprintf fmt
    "@[<v>schedule: %s   policy: %s   cache: %d words@,\
     accesses %d   hits %d   misses %d   writebacks %d@,\
     words moved: %d   lower bound: %.0f   ratio: %.3f@]"
    s.label (Policy.to_string s.policy) m s.stats.Cache.accesses s.stats.Cache.hits
    s.stats.Cache.misses s.stats.Cache.writebacks s.words_moved bound.Lower_bound.words
    s.ratio

let pp fmt r =
  Format.fprintf fmt
    "@[<v>%a@,%a@,tile = %a  (volume %d, max footprint %d / M = %d, %d tiles)@,\
     tiled schedule traffic: %.4g reads + %.4g writes@,\
     attainment (traffic / lower bound) = %.3f@]"
    Spec.pp r.spec Lower_bound.pp_bound r.bound (Tiling.pp r.spec) r.tile r.tile_volume
    r.tile_max_footprint r.m r.tiles r.traffic.Tiling.reads r.traffic.Tiling.writes
    r.attainment;
  (match r.tile_shared with
  | Some t ->
    Format.fprintf fmt "@.tile (shared cache of M words): %a  volume %d" (Tiling.pp r.spec) t
      (Tiling.volume t)
  | None -> ());
  List.iter (fun s -> Format.fprintf fmt "@.%a" (pp_sim ~bound:r.bound ~m:r.m) s) r.sims

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let jstr = Jsonlite.quote

let jfloat f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let jarr items = "[" ^ String.concat "," items ^ "]"
let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jints a = jarr (List.map string_of_int (Array.to_list a))
let jrats a = jarr (List.map (fun r -> jstr (Rat.to_string r)) (Array.to_list a))

let json_of_sim s =
  jobj
    [
      ("schedule", jstr s.label);
      ("policy", jstr (Policy.to_string s.policy));
      ("line_words", string_of_int s.line_words);
      ("accesses", string_of_int s.stats.Cache.accesses);
      ("hits", string_of_int s.stats.Cache.hits);
      ("misses", string_of_int s.stats.Cache.misses);
      ("writebacks", string_of_int s.stats.Cache.writebacks);
      ("words_moved", string_of_int s.words_moved);
      ("ratio", jfloat s.ratio);
    ]

let to_json ?(timings = true) r =
  let b = r.bound in
  let base =
    [
      ("kernel", jstr r.spec.Spec.name);
      ("loops", jarr (List.map jstr (Array.to_list r.spec.Spec.loops)));
      ("bounds", jints r.spec.Spec.bounds);
      ("m", string_of_int r.m);
      ("beta", jrats r.beta);
      ("k_hat", jstr (Rat.to_string b.Lower_bound.exponent.Lower_bound.k_hat));
      ( "witness_q",
        jarr (List.map string_of_int b.Lower_bound.exponent.Lower_bound.witness_q) );
      ("lower_bound_words", jfloat b.Lower_bound.words);
      ("lower_bound_words_paper", jfloat b.Lower_bound.words_paper);
      ("lower_bound_words_classic", jfloat b.Lower_bound.words_classic);
      ("lp_value", jstr (Rat.to_string r.lp.Tiling.value));
      ("lambda", jrats r.lp.Tiling.lambda);
      ("tile", jints r.tile);
      ( "tile_shared",
        match r.tile_shared with None -> "null" | Some t -> jints t );
      ("tile_volume", string_of_int r.tile_volume);
      ("tile_max_footprint", string_of_int r.tile_max_footprint);
      ("tiles", string_of_int r.tiles);
      ("analytic_reads", jfloat r.traffic.Tiling.reads);
      ("analytic_writes", jfloat r.traffic.Tiling.writes);
      ("attainment", jfloat r.attainment);
      ("simulations", jarr (List.map json_of_sim r.sims));
    ]
  in
  let extra =
    if timings then
      [
        ( "timings",
          jobj (List.map (fun (stage, s) -> (stage, jfloat s)) r.timings) );
        ("from_cache", if r.from_cache then "true" else "false");
      ]
    else []
  in
  jobj (base @ extra)

let json_of_reports ?timings rs =
  jarr (List.map (to_json ?timings) rs)

let schema_version = 1

let json_of_sweep ?timings ?obs rs =
  let fields = [ ("v", string_of_int schema_version); ("reports", json_of_reports ?timings rs) ] in
  jobj (match obs with None -> fields | Some obs -> fields @ [ ("obs", obs) ])
