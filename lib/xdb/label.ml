type t = { start : int; fin : int; level : int }

let is_ancestor a d = a.start < d.start && d.fin <= a.fin
let is_parent a d = is_ancestor a d && d.level = a.level + 1
let pp ppf t = Format.fprintf ppf "(%d,%d,%d)" t.start t.fin t.level
