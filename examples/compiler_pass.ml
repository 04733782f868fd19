(* A miniature "compiler pass" (the application Section 7 proposes):
   take kernels as text, derive the communication-optimal tile for the
   target cache, and emit compilable blocked C — no hand analysis, no
   vendor library, works for arbitrary (including niche) projective
   kernels. The engine memoizes the per-kernel analysis, so recompiling a
   translation unit full of repeated shapes re-solves nothing.

     dune exec examples/compiler_pass.exe            # print to stdout
     dune exec examples/compiler_pass.exe -- out_dir # also write .c files
*)

let kernels =
  [
    ( "matmul_skinny",
      "i = 2048, j = 2048, k = 4 : C[i,k] += A[i,j] * B[j,k]" );
    ( "pointwise_conv",
      "b = 32, c = 8, k = 64, w = 28, h = 28 : Out[b,k,w,h] += Image[b,c,w,h] * Filter[c,k]" );
    ( "pairwise",
      "p = 100000, q = 100000 : F[p] += X[p] * Y[q]" );
  ]

let () =
  let m = 32768 (* a 256 KiB L2 at 8-byte words *) in
  let out_dir = if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None in
  (match out_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  List.iter
    (fun (name, dsl) ->
      let spec = Parser.parse_exn ~name dsl in
      let bound = Pipeline.lower_bound spec ~m in
      let tile = Pipeline.tile_shared spec ~m in
      Format.printf "// ------------------------------------------------------------@.";
      Format.printf "// %s: lower bound %.3g words (classical formula says %.3g)@." name
        bound.Lower_bound.words bound.Lower_bound.words_classic;
      Format.printf "// chosen tile: %a@." (Tiling.pp spec) tile;
      let code = Codegen.emit ~lang:Codegen.C ~function_name:name spec ~tile in
      (match out_dir with
      | Some d ->
        let path = Filename.concat d (name ^ ".c") in
        let oc = open_out path in
        output_string oc code;
        close_out oc;
        Format.printf "// wrote %s@.@." path
      | None -> Format.printf "%s@." code))
    kernels
