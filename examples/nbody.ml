(* n-body pairwise interactions (Section 6.3 of the paper).

   A two-loop nest where every particle interacts with every other:
   A1[x1] += f(A2[x1], A3[x2]). The optimal tile is
   min(M^2, L1*M, L2*M, L1*L2) points; its shape changes regime as the
   particle counts shrink relative to the cache. This example walks the
   four regimes, printing the analytic tile, its simulated traffic, and
   the Section-6.3 caveat case where everything fits in cache.

     dune exec examples/nbody.exe
*)

let () =
  let m = 256 in
  Format.printf "n-body pairwise interactions, cache M = %d words@.@." m;
  let cases =
    [
      ("both large (M^2 regime)", 4096, 4096);
      ("L1 small (L1*M regime)", 32, 4096);
      ("L2 small (L2*M regime)", 4096, 32);
      ("both small (L1*L2 regime: all fits)", 32, 32);
    ]
  in
  Format.printf "%-38s %12s %14s %12s %10s@." "case" "tile" "tile volume" "LB words"
    "LRU words";
  let reqs =
    List.map
      (fun (_, l1, l2) ->
        Pipeline.request ~sims:[ Pipeline.sim Pipeline.Optimal ] ~shared:true
          (Kernels.nbody ~l1 ~l2) ~m)
      cases
  in
  let reports =
    List.map
      (function Ok r -> r | Error e -> Engine_error.raise_error e)
      (Pipeline.sweep_checked reqs)
  in
  List.iter2
    (fun (label, _, _) (r : Report.t) ->
      let spec = r.Report.spec in
      let tile = Option.get r.Report.tile_shared in
      Format.printf "%-38s %12s %14d %12.0f %10d@." label
        (Format.asprintf "%a" (Tiling.pp spec) tile)
        (Tiling.volume tile) r.Report.bound.Lower_bound.words
        (List.hd r.Report.sims).Report.words_moved)
    cases reports;
  Format.printf
    "@.Note (Section 6.3): in the last regime the whole problem fits in cache, and the@.";
  Format.printf
    "model's M-word-per-tile charge makes the printed bound conservative; the measured@.";
  Format.printf "traffic is just the compulsory reads and writes.@."
