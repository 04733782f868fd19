(* Quickstart: analyze one kernel end to end.

   Describe a projective loop nest in the one-line DSL, then ask the
   engine for (1) the arbitrary-bounds communication lower bound, (2) an
   optimal rectangular tile, and (3) simulated traffic confirming the tile
   attains the bound. Run with:

     dune exec examples/quickstart.exe
*)

let () =
  let m = 4096 (* cache words *) in

  (* A matmul whose k-dimension is small — the regime where classical
     "large bounds" analyses break down. *)
  let spec = Parser.parse_exn ~name:"matmul(1024x1024x8)"
      "i = 1024, j = 1024, k = 8 : C[i,k] += A[i,j] * B[j,k]"
  in

  (* One checked request gives the full analysis. *)
  let report =
    match Pipeline.run_checked (Pipeline.request spec ~m) with
    | Ok r -> r
    | Error e -> Engine_error.raise_error e
  in
  Format.printf "%a@.@." Report.pp report;

  (* Piece together the story by hand as well. *)
  let bound = report.Report.bound in
  Format.printf "lower bound: any execution moves >= %.3g words@." bound.Lower_bound.words;
  Format.printf "optimal tile: %a@." (Tiling.pp spec) report.Report.tile;

  (* The closed form of the tile-size exponent as a function of the
     log-bounds (Section 7 of the paper). *)
  let cf = Closed_form.compute spec in
  Format.printf "tile exponent f(beta) = %a@." Closed_form.pp cf;

  (* Simulate on an LRU cache. The paper's model gives each array its own
     budget of M words; the engine's [Optimal] schedule uses the tile
     re-optimized for a single shared cache of M words instead. *)
  let words choice = (Pipeline.simulate spec ~m (Pipeline.sim choice)).Report.words_moved in
  let ours = words Pipeline.Optimal in
  let naive = words Pipeline.Untiled in
  Format.printf "@.simulated words moved (LRU, M = %d):@." m;
  Format.printf "  optimal tiling : %d  (%.2fx the lower bound)@." ours
    (float_of_int ours /. bound.Lower_bound.words);
  Format.printf "  untiled loops  : %d  (%.2fx the lower bound)@." naive
    (float_of_int naive /. bound.Lower_bound.words)
