let rec matches haystack i needle j n =
  j = n
  || String.unsafe_get haystack (i + j) = String.unsafe_get needle j
     && matches haystack i needle (j + 1) n

let is_at haystack i needle =
  let n = String.length needle in
  i >= 0 && i + n <= String.length haystack && matches haystack i needle 0 n

let find haystack ~start needle =
  let hlen = String.length haystack and nlen = String.length needle in
  if nlen = 0 then if start <= hlen then Some start else None
  else begin
    let limit = hlen - nlen in
    let rec scan i =
      if i > limit then None
      else if matches haystack i needle 0 nlen then Some i
      else
        match String.index_from_opt haystack (i + 1) needle.[0] with
        | Some j -> scan j
        | None -> None
    in
    match String.index_from_opt haystack start needle.[0] with
    | Some i -> scan i
    | None -> None
  end
