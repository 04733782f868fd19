type t = {
  spec : Spec.t;
  bases : int array;
  dims : int array array;  (** per array: extents of its projected index space *)
  total : int;
}

let make spec =
  let n = Spec.num_arrays spec in
  let dims = Array.init n (fun j -> Spec.array_dims spec j) in
  let bases = Array.make n 0 in
  let off = ref 0 in
  for j = 0 to n - 1 do
    bases.(j) <- !off;
    off := !off + Array.fold_left ( * ) 1 dims.(j)
  done;
  { spec; bases; dims; total = !off }

let spec t = t.spec
let base t j = t.bases.(j)
let total_words t = t.total

let address_of_index t j idx =
  let dims = t.dims.(j) in
  let acc = ref 0 in
  for k = 0 to Array.length dims - 1 do
    acc := (!acc * dims.(k)) + idx.(k)
  done;
  t.bases.(j) + !acc

let address t j point =
  let sup = t.spec.Spec.arrays.(j).Spec.support in
  let dims = t.dims.(j) in
  let acc = ref 0 in
  for k = 0 to Array.length sup - 1 do
    acc := (!acc * dims.(k)) + point.(sup.(k))
  done;
  t.bases.(j) + !acc

let strides t j =
  let sup = t.spec.Spec.arrays.(j).Spec.support in
  let dims = t.dims.(j) in
  let s = Array.make (Spec.num_loops t.spec) 0 in
  let w = ref 1 in
  for k = Array.length sup - 1 downto 0 do
    s.(sup.(k)) <- !w;
    w := !w * dims.(k)
  done;
  s

let array_of_address t addr =
  if addr < 0 || addr >= t.total then None
  else begin
    let j = ref 0 in
    while !j + 1 < Array.length t.bases && t.bases.(!j + 1) <= addr do
      incr j
    done;
    let j = !j in
    let rel = ref (addr - t.bases.(j)) in
    let dims = t.dims.(j) in
    let k = Array.length dims in
    let idx = Array.make k 0 in
    for p = k - 1 downto 0 do
      idx.(p) <- !rel mod dims.(p);
      rel := !rel / dims.(p)
    done;
    Some (j, idx)
  end
