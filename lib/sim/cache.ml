type access = Hit | Miss

type t = {
  line : int;
  line_shift : int;
  lines : int;
  index_mask : int;
  tags : int array; (* -1 = invalid, otherwise the line-aligned address *)
  load_extra : int;
  store_extra : int;
  miss_penalty : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (c : Costs.t) =
  if not (is_pow2 c.cache_size && is_pow2 c.cache_line) then
    invalid_arg "Cache.create: size and line must be powers of two";
  let lines = c.cache_size / c.cache_line in
  {
    line = c.cache_line;
    line_shift = log2 c.cache_line;
    lines;
    index_mask = lines - 1;
    tags = Array.make lines (-1);
    load_extra = c.load_extra_cycles;
    store_extra = c.store_extra_cycles;
    miss_penalty = c.miss_penalty_cycles;
    hits = 0;
    misses = 0;
  }

let line_addr t addr = addr land lnot (t.line - 1)

let index t addr = (addr lsr t.line_shift) land t.index_mask

(* Iterate over the distinct lines covered by [addr, addr+size). *)
let fold_lines t ~addr ~size f init =
  if size <= 0 then init
  else begin
    let first = line_addr t addr in
    let last = line_addr t (addr + size - 1) in
    let acc = ref init in
    let la = ref first in
    while !la <= last do
      acc := f !acc !la;
      la := !la + t.line
    done;
    !acc
  end

(* [load] and [store] run on every simulated access, so they walk the
   lines in a direct loop: no closure, no allocation on the host. *)
let load t ~addr ~size =
  if size <= 0 then 0
  else begin
    let last = line_addr t (addr + size - 1) in
    let cost = ref 0 in
    let la = ref (line_addr t addr) in
    while !la <= last do
      let i = index t !la in
      if t.tags.(i) = !la then begin
        t.hits <- t.hits + 1;
        cost := !cost + t.load_extra
      end
      else begin
        t.misses <- t.misses + 1;
        t.tags.(i) <- !la;
        cost := !cost + t.load_extra + t.miss_penalty
      end;
      la := !la + t.line
    done;
    !cost
  end

let store t ~addr ~size =
  (* Write-through, no allocate: cost is per line touched; a store hit
     keeps the line valid (the data array is shared with memory in our
     model so no value update is needed). *)
  if size <= 0 then 0
  else
    let lines =
      ((line_addr t (addr + size - 1) - line_addr t addr) lsr t.line_shift) + 1
    in
    lines * t.store_extra

let probe t ~addr =
  let la = line_addr t addr in
  if t.tags.(index t la) = la then Hit else Miss

let flush_all t = Array.fill t.tags 0 t.lines (-1)

let flush_range t ~addr ~len =
  ignore
    (fold_lines t ~addr ~size:len
       (fun () la ->
          let i = index t la in
          if t.tags.(i) = la then t.tags.(i) <- -1)
       ())

let warm_range t ~addr ~len =
  ignore
    (fold_lines t ~addr ~size:len
       (fun () la -> t.tags.(index t la) <- la)
       ())

let stats t = (t.hits, t.misses)
