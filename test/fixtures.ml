(* Shared fixtures: the paper's Figure 1 publication database and Query 1. *)

open X3_xml
open X3_xdb
open X3_pattern

let parse_ok src =
  match Parser.parse src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "fixture parse failed: %a" Parser.pp_error e

(* Figure 1, abridged to the features the paper discusses:
   - pub 1: two authors (non-disjointness),
   - pub 2: two years (non-disjointness on a different axis),
   - pub 3: author nested under <authors>, no publisher (coverage),
   - pub 4: publisher and year nested under <pubData>. *)
let figure1_source =
  {|<database>
     <publication id="1">
       <author id="a1"><name>John</name></author>
       <author id="a2"><name>Jane</name></author>
       <publisher id="p1"/>
       <year>2003</year>
     </publication>
     <publication id="2">
       <author id="a1"><name>John</name></author>
       <publisher id="p2"/>
       <year>2004</year>
       <year>2005</year>
     </publication>
     <publication id="3">
       <authors><author id="a3"><name>Bob</name></author></authors>
       <year>2003</year>
     </publication>
     <publication id="4">
       <author id="a4"><name>Ann</name></author>
       <pubData><publisher id="p1"/><year>2005</year></pubData>
     </publication>
   </database>|}

let figure1 () = parse_ok figure1_source
let figure1_store () = Store.of_document (figure1 ())

let c = X3_xdb.Structural_join.Child
let d = X3_xdb.Structural_join.Descendant
let step axis tag = { Axis.axis; tag }

(* Query 1:  X^3 $b/@id by $n (LND, SP, PC-AD), $p (LND, PC-AD), $y (LND) *)
let axis_n () =
  Axis.make_exn ~name:"$n"
    ~steps:[ step c "author"; step c "name" ]
    ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ]

let axis_p () =
  Axis.make_exn ~name:"$p"
    ~steps:[ step d "publisher"; step c "@id" ]
    ~allowed:[ Relax.Lnd; Relax.Pc_ad ]

let axis_y () =
  Axis.make_exn ~name:"$y" ~steps:[ step c "year" ] ~allowed:[ Relax.Lnd ]

let query1_axes () = [| axis_n (); axis_p (); axis_y () |]
let fact_path : Eval.fact_path = [ step d "publication" ]

(* A DTD matching the Figure 1 world, for schema inference tests. *)
let figure1_dtd_source =
  {|<!ELEMENT database (publication*)>
    <!ELEMENT publication (author*, authors?, publisher?, year*, pubData?)>
    <!ELEMENT author (name)>
    <!ELEMENT authors (author+)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT publisher EMPTY>
    <!ELEMENT pubData (publisher, year)>
    <!ELEMENT year (#PCDATA)>
    <!ATTLIST publication id CDATA #REQUIRED>
    <!ATTLIST author id CDATA #REQUIRED>
    <!ATTLIST publisher id CDATA #REQUIRED>|}

let figure1_dtd () =
  match Dtd.parse figure1_dtd_source with
  | Ok dtd -> dtd
  | Error msg -> Alcotest.failf "fixture dtd failed: %s" msg

let small_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:64
    (X3_storage.Disk.in_memory ~page_size:1024 ())

let query1_table () =
  Eval.build_table (small_pool ()) (figure1_store ()) ~fact_path
    ~axes:(query1_axes ())

(* Row forms of the two cuboid predicates, stated here independently of
   the columnar ones the engine uses: a row qualifies when every present
   axis is bound and valid at its state, and represents its fact when it
   also holds the first binding of every removed axis. *)
let row_qualifies cuboid row =
  Array.for_all Fun.id
    (Array.mapi
       (fun ai state ->
         let c = row.Witness.cells.(ai) in
         match state with
         | X3_lattice.State.Removed -> true
         | X3_lattice.State.Present m ->
             c.Witness.id >= 0 && c.Witness.validity land (1 lsl m) <> 0)
       cuboid)

let row_represents cuboid row =
  row_qualifies cuboid row
  && Array.for_all Fun.id
       (Array.mapi
          (fun ai state ->
            state <> X3_lattice.State.Removed
            || row.Witness.cells.(ai).Witness.first)
          cuboid)

(* A columnar view over hand-built coded rows (same-fact rows
   contiguous). *)
let cols_of_rows ~axes rows =
  let b = Witness.Columnar.Builder.create ~axes ~rows:(List.length rows) in
  List.iter (Witness.Columnar.Builder.add b) rows;
  Witness.Columnar.Builder.finish b
