module Axis = X3_pattern.Axis
module Relax = X3_pattern.Relax
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar
module Schema = X3_xml.Schema
module Dtd = X3_xml.Dtd
module Sj = X3_xdb.Structural_join

type t = {
  disjoint : bool array;  (** per cuboid id, the paper's notion *)
  strict : bool array;  (** per cuboid id, raw-row-counting safety *)
  covered : (int * int, bool) Hashtbl.t;  (** (finer, coarser) edge *)
}

let cuboid_disjoint t i = t.disjoint.(i)

let edge_covered t ~finer ~coarser =
  match Hashtbl.find_opt t.covered (finer, coarser) with
  | Some b -> b
  | None -> invalid_arg "Properties.edge_covered: not a lattice edge"

let all_disjoint t = Array.for_all Fun.id t.disjoint
let all_strictly_disjoint t = Array.for_all Fun.id t.strict

let all_covered t =
  Hashtbl.fold (fun _ covered acc -> acc && covered) t.covered true

(* --- roll-up admission (TDCUST, §4.5) ------------------------------------ *)

type refusal = Not_relaxation | Not_disjoint | Uncovered

let refusal_name = function
  | Not_relaxation -> "not_relaxation"
  | Not_disjoint -> "not_disjoint"
  | Uncovered -> "uncovered"

(* Breadth-first over parents that stay below [coarser]: is some lattice
   path from [finer] up to [coarser] covered edge by edge? *)
let covered_path t lattice ~finer ~coarser =
  let target = Lattice.cuboid lattice coarser in
  let visited = Hashtbl.create 16 in
  let rec search = function
    | [] -> false
    | node :: _ when node = coarser -> true
    | node :: rest when Hashtbl.mem visited node -> search rest
    | node :: rest ->
        Hashtbl.add visited node ();
        search
          (rest
          @ List.filter
              (fun parent ->
                edge_covered t ~finer:node ~coarser:parent
                && Cuboid.leq (Lattice.cuboid lattice parent) target)
              (Lattice.parents lattice node))
  in
  search [ finer ]

let rollup_refusal t lattice ~finer ~coarser =
  let cuboid = Lattice.cuboid lattice in
  if not (Cuboid.leq (cuboid finer) (cuboid coarser)) then Some Not_relaxation
  else if not (cuboid_disjoint t finer) then Some Not_disjoint
  else if not (covered_path t lattice ~finer ~coarser) then Some Uncovered
  else None

let uniform lattice ~disjoint ~covered =
  let table = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      List.iter
        (fun p -> Hashtbl.replace table (c, p) covered)
        (Lattice.parents lattice c))
    (Lattice.by_degree lattice)
  |> ignore;
  {
    disjoint = Array.make (Lattice.size lattice) disjoint;
    strict = Array.make (Lattice.size lattice) disjoint;
    covered = table;
  }

let none lattice = uniform lattice ~disjoint:false ~covered:false
let exact lattice ~disjoint ~covered = uniform lattice ~disjoint ~covered

(* --- schema inference -------------------------------------------------- *)

let combine a b =
  {
    Dtd.may_be_absent = a.Dtd.may_be_absent || b.Dtd.may_be_absent;
    may_repeat = a.Dtd.may_repeat || b.Dtd.may_repeat;
  }

let step_multiplicity schema ~from_tag ~pc_ad step =
  let child = step.Axis.tag in
  match (if pc_ad then Sj.Descendant else step.Axis.axis) with
  | Sj.Child -> Schema.child_multiplicity schema ~parent:from_tag ~child
  | Sj.Descendant ->
      Schema.descendant_multiplicity schema ~ancestor:from_tag ~target:child

let chain_multiplicity schema ~from_tag ~pc_ad steps =
  let _, acc =
    List.fold_left
      (fun (cur, acc) step ->
        let m = step_multiplicity schema ~from_tag:cur ~pc_ad step in
        (step.Axis.tag, combine acc m))
      (from_tag, { Dtd.may_be_absent = false; may_repeat = false })
      steps
  in
  acc

let axis_multiplicity ~schema ~fact_tag axis ~state =
  let pc_ad = Axis.mask_applies axis ~mask:state Relax.Pc_ad in
  let sp = Axis.mask_applies axis ~mask:state Relax.Sp in
  if not sp then chain_multiplicity schema ~from_tag:fact_tag ~pc_ad axis.Axis.steps
  else begin
    match List.rev axis.Axis.steps with
    | leaf :: parent :: prefix_rev ->
        let prefix = List.rev prefix_rev in
        let grandparent_tag =
          match prefix_rev with s :: _ -> s.Axis.tag | [] -> fact_tag
        in
        let chain =
          chain_multiplicity schema ~from_tag:fact_tag ~pc_ad
            (prefix @ [ parent ])
        in
        let promoted =
          Schema.descendant_multiplicity schema ~ancestor:grandparent_tag
            ~target:leaf.Axis.tag
        in
        combine chain promoted
    | _ -> chain_multiplicity schema ~from_tag:fact_tag ~pc_ad axis.Axis.steps
  end

(* No indirect occurrence: [child] appears under [parent] only as a direct
   child — generalising the edge to descendant adds no matches. *)
let only_direct schema ~parent ~child =
  not
    (List.exists
       (fun x -> Schema.reachable schema ~from_:x ~target:child)
       (Schema.children schema parent))

(* Does relaxing axis [state -> state'] (adding relaxation [added]) keep the
   axis's match set unchanged according to the schema? *)
let structural_step_covered schema ~fact_tag axis ~state ~added =
  let pc_ad_before = Axis.mask_applies axis ~mask:state Relax.Pc_ad in
  let sp_before = Axis.mask_applies axis ~mask:state Relax.Sp in
  match added with
  | Relax.Lnd -> assert false
  | Relax.Pc_ad ->
      (* Every Child edge of the effective pattern at [state] must admit no
         indirect occurrence. With SP applied, the promoted leaf's edge is
         already descendant; only the remaining chain matters. *)
      let steps =
        if sp_before then
          match List.rev axis.Axis.steps with
          | _leaf :: parent :: prefix_rev -> List.rev (parent :: prefix_rev)
          | _ -> axis.Axis.steps
        else axis.Axis.steps
      in
      let rec check cur = function
        | [] -> true
        | step :: rest ->
            let ok =
              match step.Axis.axis with
              | Sj.Descendant -> true
              | Sj.Child ->
                  (not pc_ad_before)
                  && only_direct schema ~parent:cur ~child:step.Axis.tag
                  || pc_ad_before
            in
            ok && check step.Axis.tag rest
      in
      (* If PC-AD was already applied nothing changes (vacuous step). *)
      pc_ad_before || check fact_tag steps
  | Relax.Sp -> (
      match List.rev axis.Axis.steps with
      | leaf :: parent :: prefix_rev ->
          let grandparent_tag =
            match prefix_rev with s :: _ -> s.Axis.tag | [] -> fact_tag
          in
          (* Promotion adds no matches iff every occurrence of the leaf
             under the grandparent goes through the pattern parent, and
             the original leaf edge already admitted those occurrences. *)
          let via_ok =
            Schema.always_via schema ~from_:grandparent_tag
              ~target:leaf.Axis.tag ~via:parent.Axis.tag
          in
          let leaf_edge_ok =
            match leaf.Axis.axis with
            | Sj.Descendant -> true
            | Sj.Child ->
                pc_ad_before
                || only_direct schema ~parent:parent.Axis.tag
                     ~child:leaf.Axis.tag
          in
          via_ok && leaf_edge_ok
      | _ -> false)

let infer ~schema ~fact_tag lattice =
  let axes = Lattice.axes lattice in
  let size = Lattice.size lattice in
  (* Memoise the per-(axis, state) multiplicities. *)
  let multiplicity =
    Array.map
      (fun axis ->
        let table = Hashtbl.create 8 in
        List.iter
          (fun state ->
            Hashtbl.replace table state
              (axis_multiplicity ~schema ~fact_tag axis ~state))
          (Axis.states axis);
        table)
      axes
  in
  let state_repeat ai state =
    (Hashtbl.find multiplicity.(ai) state).Dtd.may_repeat
  in
  let state_absent ai state =
    (Hashtbl.find multiplicity.(ai) state).Dtd.may_be_absent
  in
  (* Removed axes cannot break disjointness: the representative-row
     semantics collapses their repeated bindings (one representative per
     fact per present-axis combination). Only a repeatable *present* axis
     puts a fact into several groups — §3.7's "every lattice point that
     includes author". *)
  let disjoint = Array.make size false in
  let strict = Array.make size false in
  Array.iter
    (fun i ->
      let c = Lattice.cuboid lattice i in
      let ok = ref true and strictly = ref true in
      Array.iteri
        (fun ai state ->
          match state with
          | State.Present m ->
              if state_repeat ai m then begin
                ok := false;
                strictly := false
              end
          | State.Removed ->
              (* A repeatable removed axis leaves several qualifying rows
                 per fact in the materialised table: representative rows
                 absorb them (paper disjointness unaffected), raw row
                 counting does not. *)
              if state_repeat ai (Axis.full_mask axes.(ai)) then
                strictly := false)
        c;
      disjoint.(i) <- !ok;
      strict.(i) <- !strictly)
    (Lattice.by_degree lattice);
  let covered = Hashtbl.create 64 in
  Array.iter
    (fun ci ->
      let c = Lattice.cuboid lattice ci in
      List.iter
        (fun pi ->
          let p = Lattice.cuboid lattice pi in
          (* Find the axis where the edge relaxes. *)
          let edge_ok = ref true in
          Array.iteri
            (fun ai cs ->
              let ps = p.(ai) in
              if not (State.equal cs ps) then begin
                match (cs, ps) with
                | State.Present m, State.Removed ->
                    if state_absent ai m then edge_ok := false
                | State.Present m, State.Present m' ->
                    let added_bits = m' land lnot m in
                    let added = Axis.kinds_of_mask axes.(ai) added_bits in
                    List.iter
                      (fun kind ->
                        if
                          not
                            (structural_step_covered schema ~fact_tag
                               axes.(ai) ~state:m ~added:kind)
                        then edge_ok := false)
                      added
                | State.Removed, _ -> edge_ok := false
              end)
            c;
          Hashtbl.replace covered (ci, pi) !edge_ok)
        (Lattice.parents lattice ci))
    (Lattice.by_degree lattice);
  { disjoint; strict; covered }

(* --- empirical observation --------------------------------------------- *)

(* The observed properties are all monotone per-fact-block ANDs: one more
   fact block can only falsify disjointness, strictness or coverage, never
   restore them. [observe_from] folds the fact blocks of [cols] from
   [from_block] on into a property record, so a delta-maintenance path can
   observe just the appended blocks and AND them into the previously
   observed truth ({!restrict}) instead of rescanning the table. *)
let observe_from cols lattice ~from_block ~disjoint ~strict ~covered =
  let size = Lattice.size lattice in
  let cuboids = Array.init size (Lattice.cuboid lattice) in
  let edges =
    Array.of_list
      (List.concat_map
         (fun ci -> List.map (fun pi -> (ci, pi)) (Lattice.parents lattice ci))
         (Array.to_list (Lattice.by_degree lattice)))
  in
  let edge_ok = Array.map (Hashtbl.find covered) edges in
  (* The coarser cuboid's present axes: a group key's components. *)
  let key_axes =
    Array.map
      (fun (_, pi) -> Array.of_list (Cuboid.present_axes cuboids.(pi)))
      edges
  in
  let same_key axes r r' =
    Array.for_all
      (fun axis ->
        Columnar.id cols ~axis ~row:r = Columnar.id cols ~axis ~row:r')
      axes
  in
  (* [rep] holds, per cuboid, which rows of the current block represent
     their fact there: cuboid [i], block row [j] at [i * n + j]. *)
  let rep = ref (Bytes.create 0) in
  for b = from_block to Columnar.blocks cols - 1 do
    let lo = Columnar.block_lo cols b in
    let n = Columnar.block_hi cols b - lo + 1 in
    if Bytes.length !rep < size * n then rep := Bytes.create (size * n);
    let rep = !rep in
    let represents i j = Bytes.get rep ((i * n) + j) = '\001' in
    (* Paper disjointness: at most one representative row per fact and
       cuboid. Strict disjointness: at most one qualifying row. *)
    Array.iteri
      (fun i cuboid ->
        let representing = ref 0 and qualifying = ref 0 in
        for j = 0 to n - 1 do
          let row = lo + j in
          let r = Cuboid.represents cuboid cols ~row in
          Bytes.set rep ((i * n) + j) (if r then '\001' else '\000');
          if r then incr representing;
          if strict.(i) && Cuboid.qualifies cuboid cols ~row then
            incr qualifying
        done;
        if !representing > 1 then disjoint.(i) <- false;
        if !qualifying > 1 then strict.(i) <- false)
      cuboids;
    (* Coverage: each of the fact's group keys in the coarser cuboid must
       be reached by projecting one of its keys in the finer cuboid. *)
    Array.iteri
      (fun e (ci, pi) ->
        if edge_ok.(e) then begin
          let rec reached j j' =
            j' < n
            && ((represents ci j' && same_key key_axes.(e) (lo + j) (lo + j'))
               || reached j (j' + 1))
          in
          for j = 0 to n - 1 do
            if represents pi j && not (reached j 0) then edge_ok.(e) <- false
          done
        end)
      edges
  done;
  Array.iteri (fun e edge -> Hashtbl.replace covered edge edge_ok.(e)) edges;
  { disjoint; strict; covered }

let observe_columns cols lattice =
  let size = Lattice.size lattice in
  let covered = Hashtbl.create 64 in
  Array.iter
    (fun ci ->
      List.iter
        (fun pi -> Hashtbl.replace covered (ci, pi) true)
        (Lattice.parents lattice ci))
    (Lattice.by_degree lattice);
  observe_from cols lattice ~from_block:0
    ~disjoint:(Array.make size true)
    ~strict:(Array.make size true)
    ~covered

let observe table lattice =
  observe_columns (Witness.columnar_of_table table) lattice

let restrict t lattice cols ~from_block =
  observe_from cols lattice ~from_block
    ~disjoint:(Array.copy t.disjoint)
    ~strict:(Array.copy t.strict)
    ~covered:(Hashtbl.copy t.covered)

let pp_report lattice ppf t =
  let axes = Lattice.axes lattice in
  Array.iter
    (fun i ->
      Format.fprintf ppf "%3d %-50s disjoint=%b@." i
        (Cuboid.to_string axes (Lattice.cuboid lattice i))
        t.disjoint.(i);
      List.iter
        (fun p ->
          Format.fprintf ppf "      -> %-44s covered=%b@."
            (Cuboid.to_string axes (Lattice.cuboid lattice p))
            (Hashtbl.find t.covered (i, p)))
        (Lattice.parents lattice i))
    (Lattice.by_degree lattice)
