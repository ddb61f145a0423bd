open Lexer

exception Fail of string

type cursor = { mutable tokens : token list }

let peek c = match c.tokens with t :: _ -> t | [] -> Eof

let advance c =
  match c.tokens with _ :: rest -> c.tokens <- rest | [] -> ()

let expect c t =
  if peek c = t then advance c
  else
    raise
      (Fail
         (Printf.sprintf "expected %s but found %s" (token_to_string t)
            (token_to_string (peek c))))

let variable c =
  match peek c with
  | Var v ->
      advance c;
      v
  | t -> raise (Fail ("expected a variable, found " ^ token_to_string t))

let ident c =
  match peek c with
  | Ident s ->
      advance c;
      s
  | t -> raise (Fail ("expected a name, found " ^ token_to_string t))

(* steps := (("/" | "//") ("@"? name))* — at least [min] steps. *)
let steps ~min c =
  let rec go acc =
    match peek c with
    | Slash | Dslash ->
        let axis =
          match peek c with
          | Slash -> Ast.Child
          | Dslash -> Ast.Descendant
          | _ -> assert false
        in
        advance c;
        let test =
          if peek c = At then begin
            advance c;
            "@" ^ ident c
          end
          else ident c
        in
        go ({ Ast.axis; test } :: acc)
    | _ -> List.rev acc
  in
  let result = go [] in
  if List.length result < min then
    raise (Fail "expected a path with at least one step");
  result

let source c =
  match peek c with
  | Doc ->
      advance c;
      expect c Lparen;
      let file =
        match peek c with
        | Str s ->
            advance c;
            s
        | t -> raise (Fail ("expected a file name, found " ^ token_to_string t))
      in
      expect c Rparen;
      Ast.Doc (file, steps ~min:1 c)
  | Var _ ->
      let v = variable c in
      Ast.Var (v, steps ~min:1 c)
  | t -> raise (Fail ("expected doc(...) or a variable, found " ^ token_to_string t))

let binding c =
  let var = variable c in
  expect c In;
  let src = source c in
  { Ast.var; source = src }

let relaxation c =
  let name = ident c in
  match X3_pattern.Relax.of_string name with
  | Some k -> k
  | None -> raise (Fail ("unknown relaxation " ^ name))

let axis_spec c =
  let axis_var = variable c in
  let relaxations =
    if peek c = Lparen then begin
      advance c;
      let rec go acc =
        let k = relaxation c in
        if peek c = Comma then begin
          advance c;
          go (k :: acc)
        end
        else begin
          expect c Rparen;
          List.rev (k :: acc)
        end
      in
      go []
    end
    else []
  in
  { Ast.axis_var; relaxations }

let condition c =
  let cond_var = variable c in
  let cond_path = steps ~min:1 c in
  let op =
    match peek c with
    | Op op ->
        advance c;
        (match op with
        | Lexer.Eq -> Ast.Eq
        | Lexer.Neq -> Ast.Neq
        | Lexer.Lt -> Ast.Lt
        | Lexer.Le -> Ast.Le
        | Lexer.Gt -> Ast.Gt
        | Lexer.Ge -> Ast.Ge)
    | t -> raise (Fail ("expected a comparison operator, found " ^ token_to_string t))
  in
  let operand =
    match peek c with
    | Str s ->
        advance c;
        s
    | Number n ->
        advance c;
        n
    | t ->
        raise
          (Fail ("expected a string or number literal, found " ^ token_to_string t))
  in
  { Ast.cond_var; cond_path; op; operand }

let where_clause c =
  if peek c = Where then begin
    advance c;
    let rec go acc =
      let cond = condition c in
      if peek c = And then begin
        advance c;
        go (cond :: acc)
      end
      else List.rev (cond :: acc)
    in
    go []
  end
  else []

let comma_separated c element =
  let rec go acc =
    let e = element c in
    if peek c = Comma then begin
      advance c;
      go (e :: acc)
    end
    else List.rev (e :: acc)
  in
  go []

let aggregate c =
  let func = ident c in
  expect c Lparen;
  let arg_var = variable c in
  let arg_path = steps ~min:0 c in
  expect c Rparen;
  { Ast.func; arg_var; arg_path }

let query c =
  expect c For;
  let bindings = comma_separated c binding in
  let where = where_clause c in
  expect c X3;
  let id_var = variable c in
  let id_path = steps ~min:0 c in
  expect c By;
  let by = comma_separated c axis_spec in
  expect c Return;
  let agg = aggregate c in
  if peek c = Dot then advance c;
  expect c Eof;
  { Ast.bindings; where; cube_id = (id_var, id_path); by; aggregate = agg }

(* Hostile-input cap: the lexer materialises every token up front, so an
   unbounded query string is unbounded memory before a single production
   runs. Far above any legitimate query (Query 1 is ~200 bytes). *)
let default_max_bytes = 1 lsl 16

let parse ?(max_bytes = default_max_bytes) src =
  if String.length src > max_bytes then
    Error
      (Printf.sprintf "query is %d bytes, over the %d-byte limit"
         (String.length src) max_bytes)
  else
  match tokenize src with
  | Error { position; message } ->
      Error (Printf.sprintf "lexical error at offset %d: %s" position message)
  | Ok tokens -> (
      let c = { tokens } in
      match query c with
      | ast -> Ok ast
      | exception Fail msg -> Error ("parse error: " ^ msg))
