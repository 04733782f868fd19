(* perfbench/pbench.exe: the OCaml half of the repository benchmark.

     pbench gen   --workload W --seed N --seconds S --dir D
       write D/warmup.ndjson and D/requests.ndjson for workload W
     pbench trace --seed N --seconds S --dir D --out FILE
       traced in-process replay of every workload; see Replay *)

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let required name =
  match arg name with
  | Some v -> v
  | None ->
    Printf.eprintf "pbench: missing %s\n" name;
    exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: _ ->
    let w =
      Workload.make
        ~seed:(int_of_string (required "--seed"))
        ~seconds:(int_of_string (required "--seconds"))
        (required "--workload")
    in
    let dir = required "--dir" in
    Replay.write_lines (Filename.concat dir "warmup.ndjson") w.Workload.warmup;
    Replay.write_lines (Filename.concat dir "requests.ndjson") w.Workload.requests
  | _ :: "trace" :: _ ->
    Replay.run
      ~seed:(int_of_string (required "--seed"))
      ~seconds:(int_of_string (required "--seconds"))
      ~dir:(required "--dir")
      ~out:(required "--out")
  | _ ->
    prerr_endline "usage: pbench (gen|trace) ...";
    exit 2
