type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable pages_allocated : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable evictions : int;
  mutable syncs : int;
}

let create () =
  {
    page_reads = 0;
    page_writes = 0;
    pages_allocated = 0;
    pool_hits = 0;
    pool_misses = 0;
    evictions = 0;
    syncs = 0;
  }

let add acc x =
  acc.page_reads <- acc.page_reads + x.page_reads;
  acc.page_writes <- acc.page_writes + x.page_writes;
  acc.pages_allocated <- acc.pages_allocated + x.pages_allocated;
  acc.pool_hits <- acc.pool_hits + x.pool_hits;
  acc.pool_misses <- acc.pool_misses + x.pool_misses;
  acc.evictions <- acc.evictions + x.evictions;
  acc.syncs <- acc.syncs + x.syncs

let diff ~later ~earlier =
  {
    page_reads = later.page_reads - earlier.page_reads;
    page_writes = later.page_writes - earlier.page_writes;
    pages_allocated = later.pages_allocated - earlier.pages_allocated;
    pool_hits = later.pool_hits - earlier.pool_hits;
    pool_misses = later.pool_misses - earlier.pool_misses;
    evictions = later.evictions - earlier.evictions;
    syncs = later.syncs - earlier.syncs;
  }

let copy t =
  let c = create () in
  add c t;
  c
