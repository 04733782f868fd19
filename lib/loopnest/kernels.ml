let matmul ~l1 ~l2 ~l3 =
  Spec.create_exn ~name:"matmul"
    ~loops:[| "x1"; "x2"; "x3" |]
    ~bounds:[| l1; l2; l3 |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "C" [ 0; 2 ];
        Spec.array_ref "A" [ 0; 1 ];
        Spec.array_ref "B" [ 1; 2 ];
      |]

let matvec ~m ~n =
  let t = matmul ~l1:m ~l2:n ~l3:1 in
  Spec.create_exn ~name:"matvec" ~loops:t.Spec.loops ~bounds:t.Spec.bounds ~arrays:t.Spec.arrays

let tensor_contraction ~j ~k ~d ~bounds =
  if not (1 <= j && j < k - 1 && k - 1 < d) then
    invalid_arg "Kernels.tensor_contraction: need 1 <= j < k-1 < d";
  if Array.length bounds <> d then invalid_arg "Kernels.tensor_contraction: bounds arity";
  let range a b = List.init (b - a + 1) (fun i -> a + i - 1) (* 1-based -> 0-based *) in
  Spec.create_exn ~name:"tensor_contraction"
    ~loops:(Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)))
    ~bounds
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "A1" (range 1 j @ range k d);
        Spec.array_ref "A2" (range 1 (k - 1));
        Spec.array_ref "A3" (range (j + 1) d);
      |]

let pointwise_conv ~b ~c ~k ~w ~h =
  Spec.create_exn ~name:"pointwise_conv"
    ~loops:[| "b"; "c"; "k"; "w"; "h" |]
    ~bounds:[| b; c; k; w; h |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "Out" [ 0; 2; 3; 4 ];
        Spec.array_ref "Image" [ 0; 1; 3; 4 ];
        Spec.array_ref "Filter" [ 1; 2 ];
      |]

let fully_connected ~batch ~cin ~cout =
  Spec.create_exn ~name:"fully_connected"
    ~loops:[| "b"; "i"; "o" |]
    ~bounds:[| batch; cin; cout |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "Out" [ 0; 2 ];
        Spec.array_ref "In" [ 0; 1 ];
        Spec.array_ref "W" [ 1; 2 ];
      |]

let nbody ~l1 ~l2 =
  Spec.create_exn ~name:"nbody"
    ~loops:[| "x1"; "x2" |]
    ~bounds:[| l1; l2 |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "A1" [ 0 ];
        Spec.array_ref "A2" [ 0 ];
        Spec.array_ref "A3" [ 1 ];
      |]

let outer_product ~m ~n =
  Spec.create_exn ~name:"outer_product"
    ~loops:[| "x1"; "x2" |]
    ~bounds:[| m; n |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "C" [ 0; 1 ];
        Spec.array_ref "a" [ 0 ];
        Spec.array_ref "b" [ 1 ];
      |]

let batched_matmul ~batch ~l1 ~l2 ~l3 =
  Spec.create_exn ~name:"batched_matmul"
    ~loops:[| "b"; "x1"; "x2"; "x3" |]
    ~bounds:[| batch; l1; l2; l3 |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "C" [ 0; 1; 3 ];
        Spec.array_ref "A" [ 0; 1; 2 ];
        Spec.array_ref "B" [ 0; 2; 3 ];
      |]

let mttkrp ~i ~j ~k ~r =
  Spec.create_exn ~name:"mttkrp"
    ~loops:[| "i"; "j"; "k"; "r" |]
    ~bounds:[| i; j; k; r |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "M" [ 0; 3 ];
        Spec.array_ref "T" [ 0; 1; 2 ];
        Spec.array_ref "B" [ 1; 3 ];
        Spec.array_ref "C" [ 2; 3 ];
      |]

let three_body ~l1 ~l2 ~l3 =
  Spec.create_exn ~name:"three_body"
    ~loops:[| "x1"; "x2"; "x3" |]
    ~bounds:[| l1; l2; l3 |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "A1" [ 0 ];
        Spec.array_ref "A2" [ 0 ];
        Spec.array_ref "A3" [ 1 ];
        Spec.array_ref "A4" [ 2 ];
      |]

let all () =
  [
    ("matmul", matmul ~l1:64 ~l2:64 ~l3:64);
    ("matvec", matvec ~m:64 ~n:64);
    ("tensor_contraction", tensor_contraction ~j:1 ~k:3 ~d:4 ~bounds:[| 16; 16; 16; 16 |]);
    ("pointwise_conv", pointwise_conv ~b:8 ~c:16 ~k:32 ~w:14 ~h:14);
    ("fully_connected", fully_connected ~batch:32 ~cin:64 ~cout:64);
    ("nbody", nbody ~l1:256 ~l2:256);
    ("outer_product", outer_product ~m:128 ~n:128);
    ("batched_matmul", batched_matmul ~batch:8 ~l1:32 ~l2:32 ~l3:32);
    ("mttkrp", mttkrp ~i:32 ~j:32 ~k:32 ~r:16);
    ("three_body", three_body ~l1:64 ~l2:64 ~l3:64);
  ]

let aliases =
  [
    ("mm", "matmul");
    ("mv", "matvec");
    ("conv", "pointwise_conv");
    ("fc", "fully_connected");
    ("bmm", "batched_matmul");
  ]

let lookup name =
  let presets = all () in
  let canonical =
    match List.assoc_opt name aliases with Some n -> n | None -> name
  in
  match List.assoc_opt canonical presets with
  | Some s -> Ok s
  | None -> (
    match
      List.filter (fun (n, _) -> String.starts_with ~prefix:canonical n) presets
    with
    | [ (_, s) ] -> Ok s
    | [] ->
      Error
        (Printf.sprintf "unknown kernel %S (try: %s)" name
           (String.concat ", " (List.map fst presets)))
    | multiple ->
      Error
        (Printf.sprintf "ambiguous kernel %S (matches: %s)" name
           (String.concat ", " (List.map fst multiple))))
