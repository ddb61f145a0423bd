module Store = X3_xdb.Store
module Sj = X3_xdb.Structural_join

type fact_path = Axis.step list

let facts store path =
  match path with
  | [] -> invalid_arg "Eval.facts: empty fact path"
  | [ { Axis.axis = Sj.Descendant; tag } ] ->
      (* [//t] selects every [t] node: the tag index is the answer. *)
      Array.to_list (Store.nodes_with_tag store tag)
  | steps ->
      let twig_path =
        List.map
          (fun { Axis.axis; tag } -> { X3_xdb.Twig_join.axis; tag })
          steps
      in
      let seen = Hashtbl.create 256 in
      let acc = ref [] in
      X3_xdb.Twig_join.path_solutions store twig_path (fun solution ->
          let fact = solution.(Array.length solution - 1) in
          if not (Hashtbl.mem seen fact) then begin
            Hashtbl.add seen fact ();
            acc := fact :: !acc
          end);
      List.sort Int.compare !acc

(* --- the compiled matcher -------------------------------------------------

   A chain for steps [0..i] ends at node [v] when [v] has step [i]'s tag
   and hangs off the end of a chain for steps [0..i-1] (the fact itself
   for [i = 0]) by step [i]'s edge. The functions below check it from the
   candidate up: a child edge is one [parent] hop; a descendant edge
   tries each ancestor strictly below the fact, then the fact. Every
   ancestor of a candidate with an id above the fact's lies inside the
   fact, so the walks stop there. They are top-level and take plain ints,
   so a check allocates nothing. *)

type matcher = {
  store : Store.t;
  tags : int array;  (* step tag ids; -1, no node's, when absent *)
  child : bool array;  (* the step's edge before relaxation is [/] *)
  leaf_index : Store.node array;  (* the candidates *)
  mutable cursor : int;  (* where the last fact's candidates started *)
  parent_index : Store.node array;  (* nodes with the leaf parent's tag *)
  pc_ad : bool array;  (* per structural state *)
  sp : bool array;
  full : int;
}

let compile store axis =
  let steps = Array.of_list axis.Axis.steps in
  let k = Array.length steps in
  let index i = Store.nodes_with_tag store steps.(i).Axis.tag in
  let states = Axis.state_count axis in
  let applies kind =
    Array.init states (fun mask -> Axis.mask_applies axis ~mask kind)
  in
  {
    store;
    tags =
      Array.map
        (fun (s : Axis.step) ->
          Option.value (Store.id_of_tag store s.Axis.tag) ~default:(-1))
        steps;
    child = Array.map (fun (s : Axis.step) -> s.Axis.axis = Sj.Child) steps;
    leaf_index = index (k - 1);
    cursor = 0;
    parent_index = (if k >= 2 then index (k - 2) else [||]);
    pc_ad = applies Relax.Pc_ad;
    sp = applies Relax.Sp;
    full = Axis.full_mask axis;
  }

(* Does a chain for steps [0..i] end at [v]? [v] has step [i]'s tag. *)
let rec chain m ~pc_ad ~fact i v =
  let p = Store.parent_id m.store v in
  if m.child.(i) && not pc_ad then ends_at m ~pc_ad ~fact (i - 1) p
  else i = 0 || ends_above m ~pc_ad ~fact (i - 1) p

(* Does a chain for steps [0..i] end at [a]? For [i < 0], is [a] the fact? *)
and ends_at m ~pc_ad ~fact i a =
  if i < 0 then a = fact
  else
    a > fact
    && Store.tag_id m.store a = m.tags.(i)
    && chain m ~pc_ad ~fact i a

(* ... at [a] or at one of its ancestors? *)
and ends_above m ~pc_ad ~fact i a =
  a >= fact
  && (ends_at m ~pc_ad ~fact i a
     || ends_above m ~pc_ad ~fact i (Store.parent_id m.store a))

let rec child_tagged m ~tag c ~fin =
  c <= fin
  && (Store.tag_id m.store c = tag
     || child_tagged m ~tag (Store.subtree_end m.store c + 1) ~fin)

(* Does some child ([/], unrelaxed) or descendant of [g] carry the leaf
   parent's tag? *)
let holds_parent m ~pc_ad g =
  let j = Array.length m.tags - 2 in
  let fin = Store.subtree_end m.store g in
  if m.child.(j) && not pc_ad then child_tagged m ~tag:m.tags.(j) (g + 1) ~fin
  else begin
    let i = Store.first_after m.parent_index g ~from:0 in
    i < Array.length m.parent_index && m.parent_index.(i) <= fin
  end

(* SP: the leaf hangs off its grandparent [g] with a descendant edge; [g]
   ends the chain of the steps above the leaf's former parent, and that
   parent still matches below [g]. For [b/author/name], SP yields
   [b[./author][.//name]]. *)
let rec sp_grandparent m ~pc_ad ~fact g =
  g >= fact
  && ((ends_at m ~pc_ad ~fact (Array.length m.tags - 3) g
      && holds_parent m ~pc_ad g)
     || sp_grandparent m ~pc_ad ~fact (Store.parent_id m.store g))

let matches m ~fact ~binding state =
  let pc_ad = m.pc_ad.(state) in
  if m.sp.(state) then
    sp_grandparent m ~pc_ad ~fact (Store.parent_id m.store binding)
  else chain m ~pc_ad ~fact (Array.length m.tags - 1) binding

let validity m ~fact ~binding =
  if not (matches m ~fact ~binding m.full) then 0
  else begin
    let v = ref (1 lsl m.full) in
    for state = 0 to m.full - 1 do
      if matches m ~fact ~binding state then v := !v lor (1 lsl state)
    done;
    !v
  end

(* The position of [fact]'s first candidate. Facts mostly arrive in
   document order, so the search starts where the last one's did. *)
let first_candidate m ~fact =
  let index = m.leaf_index in
  let from =
    if m.cursor > 0 && index.(m.cursor - 1) > fact then 0 else m.cursor
  in
  let i = Store.first_after index fact ~from in
  m.cursor <- i;
  i

let bindings m ~fact =
  let index = m.leaf_index and fin = Store.subtree_end m.store fact in
  let rec go i acc =
    if i >= Array.length index || index.(i) > fin then List.rev acc
    else begin
      let binding = index.(i) in
      match validity m ~fact ~binding with
      | 0 -> go (i + 1) acc
      | v -> go (i + 1) ((binding, v) :: acc)
    end
  in
  go (first_candidate m ~fact) []

let find m ~fact p =
  let index = m.leaf_index and fin = Store.subtree_end m.store fact in
  let rec go i =
    if i >= Array.length index || index.(i) > fin then None
    else begin
      let binding = index.(i) in
      if validity m ~fact ~binding <> 0 && p binding then Some binding
      else go (i + 1)
    end
  in
  go (first_candidate m ~fact)

let axis_bindings store axis ~fact = bindings (compile store axis) ~fact

let none_cell = { Witness.Staged.value = None; validity = 0; first = true }

(* One axis's cells for a fact: a [None] cell when it has no binding. *)
let cells m ~fact =
  match bindings m ~fact with
  | [] -> [| none_cell |]
  | bindings ->
      Array.of_list
        (List.mapi
           (fun i (node, validity) ->
             { Witness.Staged.value = Some (Store.string_value m.store node);
               validity;
               first = i = 0 })
           bindings)

(* The cartesian product of the axes' cells, rightmost axis varying
   fastest. *)
let rows matchers ~fact =
  let per_axis = Array.map (fun m -> cells m ~fact) matchers in
  let k = Array.length per_axis in
  let n = Array.fold_left (fun acc c -> acc * Array.length c) 1 per_axis in
  List.init n (fun r ->
      let cells = Array.make k none_cell and r = ref r in
      for i = k - 1 downto 0 do
        let c = per_axis.(i) in
        cells.(i) <- c.(!r mod Array.length c);
        r := !r / Array.length c
      done;
      { Witness.Staged.fact; cells })

let rows_for_fact store axes ~fact =
  rows (Array.map (compile store) axes) ~fact

let build_table ?keep pool store ~fact_path ~axes =
  let matchers = Array.map (compile store) axes in
  let fact_list = facts store fact_path in
  let fact_list =
    match keep with
    | None -> fact_list
    | Some keep -> List.filter keep fact_list
  in
  let rows =
    List.to_seq fact_list
    |> Seq.concat_map (fun fact -> List.to_seq (rows matchers ~fact))
  in
  Witness.materialize pool ~axes rows
