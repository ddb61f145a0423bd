type axis_stats = {
  axis_name : string;
  facts_bound : int;
  facts_unbound : int;
  facts_multi : int;
  max_bindings : int;
  state_matches : int array;
}

type t = {
  rows : int;
  facts : int;
  max_rows_per_fact : int;
  axes : axis_stats array;
}

let compute table =
  let axes = Witness.axes table in
  let k = Array.length axes in
  let cols = Witness.columnar_of_table table in
  let module C = Witness.Columnar in
  let bound = Array.make k 0 in
  let unbound = Array.make k 0 in
  let multi = Array.make k 0 in
  let max_bindings = Array.make k 0 in
  let state_matches = Array.map (fun a -> Array.make (Axis.state_count a) 0) axes in
  let max_rows = ref 0 in
  for b = 0 to C.blocks cols - 1 do
    let lo = C.block_lo cols b and hi = C.block_hi cols b in
    max_rows := max !max_rows (hi - lo + 1);
    for ai = 0 to k - 1 do
      (* Distinct bindings of axis [ai] within this fact: the cartesian
         layout means the distinct (value, tag) cells, the tag byte
         carrying validity and the first-binding flag. *)
      let distinct = Hashtbl.create 4 in
      let union_validity = ref 0 in
      for row = lo to hi do
        let id = C.id cols ~axis:ai ~row in
        if id >= 0 then begin
          union_validity := !union_validity lor C.validity cols ~axis:ai ~row;
          Hashtbl.replace distinct (id, C.tag cols ~axis:ai ~row) ()
        end
      done;
      let bindings = Hashtbl.length distinct in
      if bindings > 0 then begin
        bound.(ai) <- bound.(ai) + 1;
        if bindings > 1 then multi.(ai) <- multi.(ai) + 1;
        if bindings > max_bindings.(ai) then max_bindings.(ai) <- bindings;
        Array.iteri
          (fun s count ->
            if !union_validity land (1 lsl s) <> 0 then
              state_matches.(ai).(s) <- count + 1)
          state_matches.(ai)
      end
      else unbound.(ai) <- unbound.(ai) + 1
    done
  done;
  {
    rows = C.rows cols;
    facts = C.blocks cols;
    max_rows_per_fact = !max_rows;
    axes =
      Array.init k (fun ai ->
          {
            axis_name = axes.(ai).Axis.name;
            facts_bound = bound.(ai);
            facts_unbound = unbound.(ai);
            facts_multi = multi.(ai);
            max_bindings = max_bindings.(ai);
            state_matches = state_matches.(ai);
          });
  }

let pp ppf t =
  Format.fprintf ppf
    "witness table: %d rows for %d facts (max %d rows per fact)@." t.rows
    t.facts t.max_rows_per_fact;
  Array.iter
    (fun a ->
      Format.fprintf ppf
        "  %-10s bound=%d unbound=%d multi=%d max-bindings=%d states=[%s]@."
        a.axis_name a.facts_bound a.facts_unbound a.facts_multi a.max_bindings
        (String.concat "; "
           (Array.to_list (Array.map string_of_int a.state_matches))))
    t.axes
