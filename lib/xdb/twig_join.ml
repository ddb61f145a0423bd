type step = { axis : Structural_join.axis; tag : string }
type path = step list

(* --- PathStack ------------------------------------------------------- *)

type stack_entry = { node : Store.node; ptr : int }
(* [ptr]: index of the top of the previous step's stack at push time.
   Entries [0 .. ptr] of that stack all contain this node. *)

type stack = { mutable entries : stack_entry array; mutable size : int }

let stack_create () = { entries = [||]; size = 0 }

let stack_push s e =
  if s.size = Array.length s.entries then begin
    let grown = Array.make (max 8 (2 * s.size)) e in
    Array.blit s.entries 0 grown 0 s.size;
    s.entries <- grown
  end;
  s.entries.(s.size) <- e;
  s.size <- s.size + 1

let path_solutions store path emit =
  match path with
  | [] -> invalid_arg "Twig_join.path_solutions: empty path"
  | steps ->
      let steps = Array.of_list steps in
      let k = Array.length steps in
      let streams =
        Array.map (fun s -> Store.nodes_with_tag store s.tag) steps
      in
      (* A Child first step matches the document element, as XPath's
         [/a] does: the store root, when it has the step's tag. *)
      if steps.(0).axis = Structural_join.Child then
        streams.(0) <-
          (if Array.length streams.(0) > 0 && streams.(0).(0) = Store.root store
           then [| Store.root store |]
           else [||]);
      let cursors = Array.make k 0 in
      let stacks = Array.init k (fun _ -> stack_create ()) in
      let exhausted i = cursors.(i) >= Array.length streams.(i) in
      let next_start i = streams.(i).(cursors.(i)) in
      let fin v = Store.subtree_end store v in
      let pop_ended cutoff =
        Array.iter
          (fun s ->
            while s.size > 0 && fin s.entries.(s.size - 1).node < cutoff do
              s.size <- s.size - 1
            done)
          stacks
      in
      (* Expand every root-to-leaf combination ending at [entry] for step
         [i], applying parent-child level checks lazily. *)
      let solution = Array.make k 0 in
      let rec expand i entry =
        solution.(i) <- entry.node;
        if i = 0 then emit (Array.copy solution)
        else begin
          let below = stacks.(i - 1) in
          for j = 0 to entry.ptr do
            let candidate = below.entries.(j) in
            (* Stack cleaning guarantees containment, except that a node
               feeding two steps (same start) is not its own ancestor. *)
            let ok =
              candidate.node < entry.node
              &&
              match steps.(i).axis with
              | Structural_join.Descendant -> true
              | Structural_join.Child ->
                  Store.level store candidate.node + 1
                  = Store.level store entry.node
            in
            if ok then expand (i - 1) candidate
          done
        end
      in
      let all_exhausted () =
        let rec go i = i >= k || (exhausted i && go (i + 1)) in
        go 0
      in
      while not (all_exhausted ()) do
        (* The stream whose head has the minimal pre-order rank acts next. *)
        let qmin = ref (-1) in
        for i = 0 to k - 1 do
          if
            (not (exhausted i))
            && (!qmin < 0 || next_start i < next_start !qmin)
          then qmin := i
        done;
        let i = !qmin in
        let v = next_start i in
        pop_ended v;
        if i = 0 then begin
          if k = 1 then expand 0 { node = v; ptr = -1 }
          else stack_push stacks.(0) { node = v; ptr = -1 }
        end
        else if stacks.(i - 1).size > 0 then begin
          let entry = { node = v; ptr = stacks.(i - 1).size - 1 } in
          if i = k - 1 then expand (k - 1) entry else stack_push stacks.(i) entry
        end;
        cursors.(i) <- cursors.(i) + 1
      done

(* --- Navigational reference ------------------------------------------ *)

let naive_path_solutions store path =
  let acc = ref [] in
  let rec extend prefix node rest =
    match rest with
    | [] -> acc := Array.of_list (List.rev (node :: prefix)) :: !acc
    | step :: tail ->
        let candidates =
          match step.axis with
          | Structural_join.Child -> Store.children store node
          | Structural_join.Descendant ->
              let fin = Store.subtree_end store node in
              List.init (fin - node) (fun i -> node + 1 + i)
        in
        List.iter
          (fun c ->
            if String.equal (Store.tag store c) step.tag then
              extend (node :: prefix) c tail)
          candidates
  in
  (match path with
  | [] -> invalid_arg "Twig_join.naive_path_solutions: empty path"
  | first :: rest ->
      let roots =
        match first.axis with
        | Structural_join.Child -> [ Store.root store ]
        | Structural_join.Descendant ->
            Array.to_list (Store.document_order store)
      in
      List.iter
        (fun n ->
          if String.equal (Store.tag store n) first.tag then extend [] n rest)
        roots);
  List.rev !acc
