type t = Lru | Fifo | Opt

let to_string = function Lru -> "LRU" | Fifo -> "FIFO" | Opt -> "OPT"
let names = [ ("lru", Lru); ("fifo", Fifo); ("opt", Opt) ]
let pp fmt t = Format.pp_print_string fmt (to_string t)
