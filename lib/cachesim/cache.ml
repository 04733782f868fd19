type stats = { accesses : int; hits : int; misses : int; evictions : int; writebacks : int }

let words_moved ~line_words s = (s.misses + s.writebacks) * line_words

(* Data-oriented layout: the simulator state is a handful of flat int
   arrays indexed by slot, instead of the previous heap-allocated
   intrusive list nodes behind a Hashtbl. One word-touch used to cost a
   Hashtbl probe (hashing, bucket chase) plus pointer-chasing through
   option-wrapped nodes; now it is one lookup in a line table and three
   int stores for the LRU splice — no allocation on the access path at
   all, and the working state fits in a few cache lines of the *host*
   machine.

   - [lines.(s)] is the line tag resident in slot [s]; [nxt]/[prv] link
     the slots in recency (LRU) or insertion (FIFO) order, head = next
     victim, tail = most recent, [-1] as the null slot.
   - [dirty] packs one bit per slot, 32 per word ([lsr 5] / [land 31]).
   - The line table maps line -> slot, [-1] = not resident, in one of
     two forms:
     - dense ([create ~lines]): [dense.{line}] is the slot, a flat int32
       Bigarray with one entry per line of [[0, lines)]. Lookup and
       insert are one bounds-checked access, an eviction or [flush]
       resets only the entries it vacates, and growing the slot storage
       leaves it alone. The loop executor's addresses are dense
       ([Layout]), so it uses this form. int32 entries take half the
       bytes of an int array and stay off the OCaml heap, out of the
       GC's sight;
     - hashed (no [~lines]; [dense] is empty): [tbl] by open addressing
       with linear probing, for arbitrary (negative, huge) addresses.
       Its size is a power of two at least twice the slot allocation, so
       load factor stays below 1/2, and deletion uses backward-shift (no
       tombstones, probe chains stay contiguous). The home bucket is a
       Fibonacci hash, the top [log2 size] bits of [line * K]: the
       previous hash took bits 24 and up of the product, so strided
       lines clustered: on the per-word trace of outer_product 152x520
       under tile [152; 1] at 456 words, a lookup made 47.7 extra probes
       on average, and makes 0.55 now.
   - Slot storage grows lazily from a small initial allocation up to
     [cap_lines]: a capacity-2^40 cache costs a few hundred words until
     it actually holds lines. Slots are reused in place: the victim of
     an eviction hands its slot straight to the incoming line, and
     [flush] resets the fill watermark to zero. Stale dirty bits from a
     previous occupant are harmless — insertion always sets or clears
     the bit explicitly. *)
type t = {
  policy : Policy.t;
  on_evict : (line:int -> dirty:bool -> unit) option;
  line_words : int;
  cap_lines : int;
  mutable lines : int array;
  mutable nxt : int array;
  mutable prv : int array;
  mutable dirty : int array;
  mutable alloc : int;  (* slots allocated *)
  mutable fill : int;  (* fresh-slot watermark: slots >= fill never used *)
  mutable head : int;
  mutable tail : int;
  mutable size : int;
  is_dense : bool;
  dense : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable tbl : int array;
  mutable mask : int;
  mutable shift : int;  (* 63 - log2 (Array.length tbl) *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(* Hashed-table size and its Fibonacci shift. *)
let table_size alloc =
  let rec go s bits = if s >= 2 * alloc then (s, 63 - bits) else go (s * 2) (bits + 1) in
  go 16 4

let create ?(line_words = 1) ?lines ?on_evict ~policy ~capacity () =
  if line_words < 1 then invalid_arg "Cache.create: line_words must be positive";
  if capacity < line_words then invalid_arg "Cache.create: capacity below one line";
  if policy = Policy.Opt then
    invalid_arg "Cache.create: OPT needs the full trace; use Trace.simulate";
  (match lines with
  | Some l when l < 0 || l > Int32.to_int Int32.max_int ->
    invalid_arg "Cache.create: lines outside [0, 2^31)"
  | _ -> ());
  let cap_lines = capacity / line_words in
  let alloc = Stdlib.min cap_lines 256 in
  let dense =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (Option.value lines ~default:0)
  in
  Bigarray.Array1.fill dense (-1l);
  let ts, shift = if lines = None then table_size alloc else (1, 63) in
  {
    policy;
    on_evict;
    line_words;
    cap_lines;
    lines = Array.make alloc (-1);
    nxt = Array.make alloc (-1);
    prv = Array.make alloc (-1);
    dirty = Array.make ((alloc + 31) / 32) 0;
    alloc;
    fill = 0;
    head = -1;
    tail = -1;
    size = 0;
    is_dense = lines <> None;
    dense;
    tbl = Array.make ts (-1);
    mask = ts - 1;
    shift;
    accesses = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
  }

(* Fibonacci hashing: K is 2^63 / golden ratio, made odd, and the home
   bucket is the top bits of the product (mod 2^63), which every bit of
   the line feeds. Wraparound on negative tags is fine. *)
let hash t line = (line * 0x4F1BBCDCBFA53E0B) lsr t.shift

let dirty_get t s = t.dirty.(s lsr 5) land (1 lsl (s land 31)) <> 0
let dirty_set t s = t.dirty.(s lsr 5) <- t.dirty.(s lsr 5) lor (1 lsl (s land 31))
let dirty_clear t s = t.dirty.(s lsr 5) <- t.dirty.(s lsr 5) land lnot (1 lsl (s land 31))

(* -1 when the line is not resident. A dense table raises
   [Invalid_argument] for a line outside [[0, lines)]. *)
let find_slot t line =
  if t.is_dense then Int32.to_int (Bigarray.Array1.get t.dense line)
  else begin
    let j = ref (hash t line) in
    let s = ref t.tbl.(!j) in
    while !s <> -1 && t.lines.(!s) <> line do
      j := (!j + 1) land t.mask;
      s := t.tbl.(!j)
    done;
    !s
  end

let tbl_add t line slot =
  if t.is_dense then Bigarray.Array1.set t.dense line (Int32.of_int slot)
  else begin
    let j = ref (hash t line) in
    while t.tbl.(!j) <> -1 do
      j := (!j + 1) land t.mask
    done;
    t.tbl.(!j) <- slot
  end

(* Backward-shift deletion: walk the probe chain after the hole and pull
   back every entry whose home position precedes the hole (cyclically),
   so lookups never need tombstones. *)
let tbl_remove t line =
  if t.is_dense then Bigarray.Array1.set t.dense line (-1l)
  else begin
    let mask = t.mask in
    let j = ref (hash t line) in
    while t.tbl.(!j) = -1 || t.lines.(t.tbl.(!j)) <> line do
      j := (!j + 1) land mask
    done;
    t.tbl.(!j) <- -1;
    let hole = ref !j in
    let k = ref ((!j + 1) land mask) in
    while t.tbl.(!k) <> -1 do
      let home = hash t t.lines.(t.tbl.(!k)) in
      if (!k - home) land mask >= (!k - !hole) land mask then begin
        t.tbl.(!hole) <- t.tbl.(!k);
        t.tbl.(!k) <- -1;
        hole := !k
      end;
      k := (!k + 1) land mask
    done
  end

let unlink t s =
  let p = t.prv.(s) and n = t.nxt.(s) in
  if p = -1 then t.head <- n else t.nxt.(p) <- n;
  if n = -1 then t.tail <- p else t.prv.(n) <- p

let push_tail t s =
  t.prv.(s) <- t.tail;
  t.nxt.(s) <- -1;
  if t.tail = -1 then t.head <- s else t.nxt.(t.tail) <- s;
  t.tail <- s

let grow t =
  let na = Stdlib.min t.cap_lines (t.alloc * 2) in
  let extend a pad = Array.init na (fun i -> if i < t.alloc then a.(i) else pad) in
  t.lines <- extend t.lines (-1);
  t.nxt <- extend t.nxt (-1);
  t.prv <- extend t.prv (-1);
  let nd = Array.make ((na + 31) / 32) 0 in
  Array.blit t.dirty 0 nd 0 (Array.length t.dirty);
  t.dirty <- nd;
  t.alloc <- na;
  if not t.is_dense then begin
    let ts, shift = table_size na in
    t.tbl <- Array.make ts (-1);
    t.mask <- ts - 1;
    t.shift <- shift;
    let s = ref t.head in
    while !s <> -1 do
      tbl_add t t.lines.(!s) !s;
      s := t.nxt.(!s)
    done
  end

(* Evict the head (LRU victim / FIFO oldest) and return its slot for
   immediate reuse by the incoming line. *)
let evict_head t =
  let s = t.head in
  unlink t s;
  tbl_remove t t.lines.(s);
  t.size <- t.size - 1;
  t.evictions <- t.evictions + 1;
  let d = dirty_get t s in
  if d then t.writebacks <- t.writebacks + 1;
  (match t.on_evict with Some f -> f ~line:t.lines.(s) ~dirty:d | None -> ());
  s

(* Floor division so negative addresses map to distinct lines. Truncating
   [addr / line_words] folded e.g. words -3..3 onto lines -1, 0 for
   line_words = 4: line -1 held seven words and hit/miss counts near the
   origin were wrong for any trace with negative addresses. *)
let line_of t addr =
  if addr >= 0 then addr / t.line_words else -1 - ((-1 - addr) / t.line_words)

(* [count] same-line touches in one step. Statistically exact, not an
   approximation: after the first touch the line is resident (and MRU
   under LRU), so touches 2..count are guaranteed hits whatever the
   policy, and a single splice leaves the recency order exactly as
   [count] singleton accesses would. *)
let access_run t ~write ~count addr =
  if count > 0 then begin
    (* Look up first: an out-of-range line raises before any state
       changes. *)
    let line = line_of t addr in
    let s = find_slot t line in
    t.accesses <- t.accesses + count;
    if s >= 0 then begin
      t.hits <- t.hits + count;
      if write then dirty_set t s;
      if t.policy = Policy.Lru && s <> t.tail then begin
        unlink t s;
        push_tail t s
      end
    end
    else begin
      t.misses <- t.misses + 1;
      t.hits <- t.hits + (count - 1);
      let slot =
        if t.size >= t.cap_lines then evict_head t
        else begin
          if t.fill >= t.alloc then grow t;
          let s = t.fill in
          t.fill <- t.fill + 1;
          s
        end
      in
      t.lines.(slot) <- line;
      if write then dirty_set t slot else dirty_clear t slot;
      tbl_add t line slot;
      push_tail t slot;
      t.size <- t.size + 1
    end
  end

let access t ~write addr = access_run t ~write ~count:1 addr

let flush t =
  (* Drain in recency order (head first), matching the eviction order the
     old implementation used, so on_evict forwarding is unchanged. Lines
     leaving on a flush are evictions too — the previous implementation
     counted only the writebacks, so [evictions] under-reported by
     exactly the resident line count at every flush. *)
  let s = ref t.head in
  while !s <> -1 do
    let d = dirty_get t !s in
    t.evictions <- t.evictions + 1;
    if d then t.writebacks <- t.writebacks + 1;
    (match t.on_evict with Some f -> f ~line:t.lines.(!s) ~dirty:d | None -> ());
    if t.is_dense then tbl_remove t t.lines.(!s);
    s := t.nxt.(!s)
  done;
  if not t.is_dense then Array.fill t.tbl 0 (Array.length t.tbl) (-1);
  t.head <- -1;
  t.tail <- -1;
  t.size <- 0;
  t.fill <- 0

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
  }

let capacity_lines t = t.cap_lines
let resident t addr = find_slot t (line_of t addr) >= 0

(* Aggregate-at-the-end instrumentation: Cache.access is the hottest loop
   in the repository (one call per touched word), so per-access Obs
   increments are off the table; callers record a finished run's stats in
   one shot instead. *)
let record_obs ?(prefix = "cachesim.L1") (s : stats) =
  let c suffix = Obs.counter (prefix ^ "." ^ suffix) in
  Obs.incr ~by:s.accesses (c "accesses");
  Obs.incr ~by:s.hits (c "hits");
  Obs.incr ~by:s.misses (c "misses");
  Obs.incr ~by:s.evictions (c "evictions");
  Obs.incr ~by:s.writebacks (c "writebacks")
