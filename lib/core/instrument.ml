type t = {
  mutable table_scans : int;
  mutable rows_scanned : int;
  mutable sort_ops : int;
  mutable rows_sorted : int;
  mutable passes : int;
  mutable peak_counters : int;
  mutable rollups : int;
  mutable base_computations : int;
  mutable dedup_tracked : int;
  mutable keys_built : int;
  mutable dict_size : int;
  mutable radix_groupings : int;
  mutable hash_groupings : int;
  mutable radix_scratch_bytes : int;
}

let create () =
  {
    table_scans = 0;
    rows_scanned = 0;
    sort_ops = 0;
    rows_sorted = 0;
    passes = 0;
    peak_counters = 0;
    rollups = 0;
    base_computations = 0;
    dedup_tracked = 0;
    keys_built = 0;
    dict_size = 0;
    radix_groupings = 0;
    hash_groupings = 0;
    radix_scratch_bytes = 0;
  }

let bump_radix_scratch t bytes =
  if bytes > t.radix_scratch_bytes then t.radix_scratch_bytes <- bytes

let pp ppf t =
  Format.fprintf ppf
    "@[<h>scans=%d rows=%d sorts=%d sorted=%d passes=%d peak-counters=%d \
     rollups=%d base=%d dedup=%d keys=%d dict=%d@]"
    t.table_scans t.rows_scanned t.sort_ops t.rows_sorted t.passes
    t.peak_counters t.rollups t.base_computations t.dedup_tracked t.keys_built
    t.dict_size;
  if t.radix_groupings > 0 || t.hash_groupings > 0 then
    Format.fprintf ppf "@ @[<h>grouping=radix:%d/hash:%d scratch=%dB@]"
      t.radix_groupings t.hash_groupings t.radix_scratch_bytes
