module Axis = X3_pattern.Axis
module Engine = X3_core.Engine

type compiled = { document : string; spec : Engine.spec }

let convert_steps steps =
  List.map
    (fun { Ast.axis; test } ->
      {
        Axis.axis =
          (match axis with
          | Ast.Child -> X3_xdb.Structural_join.Child
          | Ast.Descendant -> X3_xdb.Structural_join.Descendant);
        tag = test;
      })
    steps

let ( let* ) = Result.bind

let compile ast =
  let* fact_var, document, fact_path =
    match ast.Ast.bindings with
    | { var; source = Ast.Doc (file, steps) } :: _ ->
        Ok (var, file, convert_steps steps)
    | { var; source = Ast.Var _ } :: _ ->
        Error
          (Printf.sprintf
             "the first binding (%s) must range over doc(...)" var)
    | [] -> Error "a query needs at least one binding"
  in
  let axis_bindings =
    List.filter_map
      (fun { Ast.var; source } ->
        match source with
        | Ast.Var (root, steps) -> Some (var, root, steps)
        | Ast.Doc _ -> None)
      (List.tl ast.Ast.bindings)
  in
  let* () =
    if
      List.length axis_bindings
      = List.length ast.Ast.bindings - 1
    then Ok ()
    else Error "only the first binding may range over doc(...)"
  in
  let* () =
    match
      List.find_opt (fun (_, root, _) -> root <> fact_var) axis_bindings
    with
    | Some (var, root, _) ->
        Error
          (Printf.sprintf "%s is rooted at %s, not at the fact variable %s"
             var root fact_var)
    | None -> Ok ()
  in
  let* axes =
    List.fold_left
      (fun acc { Ast.axis_var; relaxations } ->
        let* acc = acc in
        match
          List.find_opt (fun (var, _, _) -> String.equal var axis_var)
            axis_bindings
        with
        | None -> Error (Printf.sprintf "axis %s is not bound by for" axis_var)
        | Some (_, _, steps) -> (
            match
              Axis.make ~name:axis_var ~steps:(convert_steps steps)
                ~allowed:relaxations
            with
            | Ok axis -> Ok (axis :: acc)
            | Error msg -> Error msg))
      (Ok []) ast.Ast.by
  in
  let axes = Array.of_list (List.rev axes) in
  (* The relaxation lattice is a product over the by-axes, and nothing in
     the grammar bounds how many a query names: check the cardinality here
     (overflow-safe) so a hostile query gets a typed error instead of an
     exponential build. *)
  let* () =
    match X3_lattice.Lattice.cardinality axes with
    | Some _ -> Ok ()
    | None ->
        Error
          (Printf.sprintf
             "the relaxation lattice of these %d axes exceeds the %d-cuboid \
              cap"
             (Array.length axes) X3_lattice.Lattice.max_size)
  in
  let* func =
    match X3_core.Aggregate.func_of_string ast.Ast.aggregate.Ast.func with
    | Some f -> Ok f
    | None ->
        Error
          (Printf.sprintf "unknown aggregate function %s"
             ast.Ast.aggregate.Ast.func)
  in
  let* () =
    if String.equal ast.Ast.aggregate.Ast.arg_var fact_var then Ok ()
    else
      Error
        (Printf.sprintf "the aggregate must apply to the fact variable %s"
           fact_var)
  in
  let* filters =
    List.fold_left
      (fun acc { Ast.cond_var; cond_path; op; operand } ->
        let* acc = acc in
        if not (String.equal cond_var fact_var) then
          Error
            (Printf.sprintf
               "where conditions must test the fact variable %s, not %s"
               fact_var cond_var)
        else begin
          let op =
            match op with
            | Ast.Eq -> Engine.Eq
            | Ast.Neq -> Engine.Neq
            | Ast.Lt -> Engine.Lt
            | Ast.Le -> Engine.Le
            | Ast.Gt -> Engine.Gt
            | Ast.Ge -> Engine.Ge
          in
          Ok
            ({ Engine.filter_path = convert_steps cond_path; op; operand }
            :: acc)
        end)
      (Ok []) ast.Ast.where
  in
  let filters = List.rev filters in
  let* measure_path =
    match (func, ast.Ast.aggregate.Ast.arg_path) with
    | X3_core.Aggregate.Count, _ -> Ok None
    | _, [] ->
        Error
          (Printf.sprintf "%s needs a measure path, e.g. %s/price"
             (X3_core.Aggregate.func_to_string func)
             fact_var)
    | _, steps -> Ok (Some (convert_steps steps))
  in
  Ok
    {
      document;
      spec = { Engine.fact_path; axes; func; measure_path; filters };
    }

let parse_and_compile src =
  let* ast =
    X3_obs.Trace.with_span "query.parse"
      ~attrs:[ ("bytes", X3_obs.Trace.Int (String.length src)) ]
      (fun () -> Parser.parse src)
  in
  X3_obs.Trace.with_span "query.compile" (fun () -> compile ast)
