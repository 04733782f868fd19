(* Pointwise-convolution layer sweep — the paper's machine-learning
   motivation (Sections 1 and 6.2).

   1x1 ("pointwise") convolutions appear throughout depthwise-separable
   architectures (MobileNet-style). Their channel counts are often small,
   so the classical square tiling is infeasible and the classical lower
   bound is wrong; the arbitrary-bounds machinery handles every layer
   uniformly. The whole stack goes through the engine as one sweep
   (parallel across layers when domains are available); for each layer we
   print the lower bound and the simulated traffic of (a) our tiling,
   (b) the clamped classical tiling and (c) the untiled loops.

     dune exec examples/conv_layers.exe
*)

type layer = { name : string; b : int; c : int; k : int; w : int; h : int }

(* Shapes follow the pointwise (1x1) convolutions of a MobileNet-v1-style
   network, scaled down so the cache simulation stays fast. *)
let layers =
  [
    { name = "pw1"; b = 4; c = 8; k = 16; w = 28; h = 28 };
    { name = "pw2"; b = 4; c = 16; k = 32; w = 14; h = 14 };
    { name = "pw3"; b = 4; c = 32; k = 64; w = 7; h = 7 };
    { name = "pw4-narrow"; b = 4; c = 4; k = 128; w = 7; h = 7 };
    { name = "pw5-1x1 image"; b = 32; c = 64; k = 64; w = 1; h = 1 };
  ]

let () =
  let m = 2048 in
  Format.printf "Pointwise convolution layers, cache M = %d words@." m;
  Format.printf "%-14s %12s %12s %12s %12s %8s@." "layer" "lower bound" "ours(LRU)"
    "classic(LRU)" "untiled" "ours/LB";
  let sims = Pipeline.[ sim Optimal; sim Classic; sim Untiled ] in
  let reqs =
    List.map
      (fun l ->
        Pipeline.request ~sims (Kernels.pointwise_conv ~b:l.b ~c:l.c ~k:l.k ~w:l.w ~h:l.h) ~m)
      layers
  in
  let reports =
    List.map
      (function Ok r -> r | Error e -> Engine_error.raise_error e)
      (Pipeline.sweep_checked reqs)
  in
  List.iter2
    (fun l (r : Report.t) ->
      let words k = (List.nth r.Report.sims k).Report.words_moved in
      Format.printf "%-14s %12.0f %12d %12d %12d %8.2f@." l.name
        r.Report.bound.Lower_bound.words (words 0) (words 1) (words 2)
        (float_of_int (words 0) /. r.Report.bound.Lower_bound.words))
    layers reports;
  Format.printf
    "@.'classic' clamps the square %s-style tile to the loop bounds; with small channel@."
    "sqrt(M/3)";
  Format.printf
    "counts it wastes most of the cache, which is exactly the gap the paper closes.@."
