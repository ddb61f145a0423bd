(* Hostile-input hardening and resource-governor unit tests (PR 4).

   Three layers:
   - parsers: fuzzed byte strings and pathological documents into the XML
     and QL parsers must come back as Ok or a typed Error — never a stack
     overflow, out-of-memory or uncaught exception. Fuzz cases are drawn
     from QCheck2 generators under fixed seeds so every run sees the same
     inputs;
   - lattice: the relaxation product is capped, and the cardinality
     arithmetic is overflow-safe, so a many-axes query gets a typed
     too-large error instead of an exponential build;
   - governor: pool/account byte accounting and the admission door's
     typed load-shedding decisions. *)

module Xml_parser = X3_xml.Parser
module Ql_parser = X3_ql.Parser
module Compile = X3_ql.Compile
module Lattice = X3_lattice.Lattice
module Axis = X3_pattern.Axis
module Relax = X3_pattern.Relax
module Governor = X3_core.Governor

(* Counters behind the one-line summary printed after the run. *)
let hostile_rejections = ref 0
let admission_rejections = ref 0

let saw_typed_rejection () = incr hostile_rejections
let saw_admission_rejection () = incr admission_rejections

(* Deterministic fuzz corpus: a fixed seed per generator, so the suite is
   reproducible byte for byte and a failure names a replayable input. *)
let corpus ~seed ~n gen =
  QCheck2.Gen.generate ~n ~rand:(Random.State.make [| seed |]) gen

(* --- XML parser ---------------------------------------------------------- *)

let xml_accepts_or_rejects src =
  match Xml_parser.parse src with
  | Ok _ -> ()
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "XML parser raised %s on %S" (Printexc.to_string e)
        (if String.length src > 120 then String.sub src 0 120 ^ "..." else src)

let test_xml_fuzz_random_bytes () =
  List.iter xml_accepts_or_rejects
    (corpus ~seed:0x0c0ffee ~n:300
       QCheck2.Gen.(string_size ~gen:char (int_bound 2048)))

(* Random interleavings of real XML fragments reach far deeper into the
   grammar than uniform bytes do (entities, CDATA, comments, DOCTYPE). *)
let test_xml_fuzz_markup_soup () =
  let fragment =
    QCheck2.Gen.oneofl
      [
        "<"; ">"; "</"; "/>"; "<a"; "<a>"; "</a>"; "a"; "b"; " "; "=";
        "\""; "'"; "&"; "&amp;"; "&#65;"; "&#x41;"; "<!--"; "-->";
        "<![CDATA["; "]]>"; "<?"; "?>"; "<!DOCTYPE"; "["; "]"; "\n";
      ]
  in
  List.iter xml_accepts_or_rejects
    (List.map
       (String.concat "")
       (corpus ~seed:0xdeeb ~n:400
          QCheck2.Gen.(list_size (int_bound 120) fragment)))

let test_xml_depth_bomb () =
  (* 100k unclosed opens: ten times the depth limit. Without the bound
     this is native-stack exhaustion inside [element]. *)
  let bomb = String.concat "" (List.init 100_000 (fun _ -> "<a>")) in
  match Xml_parser.parse bomb with
  | Ok _ -> Alcotest.fail "a 100k-deep document must not parse"
  | Error e ->
      saw_typed_rejection ();
      Alcotest.(check bool) "error names the nesting limit" true
        (String.length e.Xml_parser.message > 0)

let test_xml_deep_but_legal () =
  (* 9k levels sits under the 10k default limit and must still parse. *)
  let depth = 9_000 in
  let buf = Buffer.create (8 * depth) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  match Xml_parser.parse (Buffer.contents buf) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "legal 9k-deep document rejected: %a" Xml_parser.pp_error
        e

let tight_limits =
  {
    Xml_parser.max_depth = 4;
    max_nodes = 10;
    max_attr_len = 8;
    max_text_len = 8;
  }

let expect_limit_error name src =
  match Xml_parser.parse ~limits:tight_limits src with
  | Ok _ -> Alcotest.failf "%s: expected a limit error" name
  | Error _ -> saw_typed_rejection ()

let expect_ok name src =
  match Xml_parser.parse ~limits:tight_limits src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: unexpected error: %a" name Xml_parser.pp_error e

let test_xml_custom_limits () =
  expect_ok "depth at limit" "<a><b><c><d>x</d></c></b></a>";
  expect_limit_error "depth over limit" "<a><b><c><d><e>x</e></d></c></b></a>";
  expect_ok "node count at limit" "<a><b/><b/><b/><b/></a>";
  expect_limit_error "node count over limit"
    "<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>";
  expect_ok "attribute at limit" {|<a k="12345678"/>|};
  expect_limit_error "attribute over limit" {|<a k="123456789"/>|};
  expect_ok "text at limit" "<a>12345678</a>";
  expect_limit_error "text over limit" "<a>123456789</a>";
  expect_limit_error "cdata over limit" "<a><![CDATA[123456789]]></a>"

(* --- QL parser ----------------------------------------------------------- *)

let ql_accepts_or_rejects src =
  match Ql_parser.parse src with
  | Ok _ -> ()
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "QL parser raised %s on %S" (Printexc.to_string e) src

let test_ql_fuzz () =
  let fragment =
    QCheck2.Gen.oneofl
      [
        "for "; "$b "; "$b"; "in "; "doc("; {|"f.xml"|}; ")"; "/"; "//";
        "author"; "@id"; "X^3 "; "by "; "return "; "COUNT"; "SUM"; "(";
        ","; " "; "where "; "="; "<"; {|"x"|}; "3"; "."; "LND"; "SP";
        "and "; "\n";
      ]
  in
  List.iter ql_accepts_or_rejects
    (List.map
       (String.concat "")
       (corpus ~seed:0x91 ~n:400
          QCheck2.Gen.(list_size (int_bound 80) fragment)));
  List.iter ql_accepts_or_rejects
    (corpus ~seed:0x92 ~n:200
       QCheck2.Gen.(string_size ~gen:char (int_bound 512)))

let test_ql_size_cap () =
  (* A query over the byte cap is refused before the lexer materialises a
     token list for it; the reference Query 1 still parses. *)
  let huge =
    X3_workload.Publications.query1 ^ String.make (Ql_parser.default_max_bytes) ' '
  in
  (match Ql_parser.parse huge with
  | Ok _ -> Alcotest.fail "an over-cap query must be rejected"
  | Error msg ->
      saw_typed_rejection ();
      Alcotest.(check bool) "error names the byte limit" true
        (String.length msg > 0));
  match Ql_parser.parse X3_workload.Publications.query1 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "Query 1 rejected: %s" msg

(* --- lattice cap ---------------------------------------------------------- *)

let c = X3_xdb.Structural_join.Child
let step tag = { Axis.axis = c; tag }

let wide_axes n =
  Array.init n (fun i ->
      Axis.make_exn
        ~name:(Printf.sprintf "$a%d" i)
        ~steps:[ step "author"; step "name" ]
        ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ])

let test_lattice_cardinality () =
  (* Query 1's lattice is exactly 30 cuboids, and the checked count agrees
     with the built lattice. *)
  let axes = Fixtures.query1_axes () in
  (match Lattice.cardinality axes with
  | Some n ->
      Alcotest.(check int) "query 1 lattice" 30 n;
      Alcotest.(check int) "build agrees" n (Lattice.size (Lattice.build axes))
  | None -> Alcotest.fail "query 1 is under the cap");
  (* 5 states per axis: 30 axes is 5^30, far past the cap — and past
     max_int if the product were computed naively. The overflow-safe count
     must say None, never a wrapped positive. *)
  List.iter
    (fun n ->
      match Lattice.cardinality (wide_axes n) with
      | None -> saw_typed_rejection ()
      | Some k ->
          Alcotest.failf "%d wide axes reported cardinality %d (cap %d)" n k
            Lattice.max_size)
    [ 9; 30; 50 ]

let test_lattice_build_checked () =
  (match Lattice.build_checked (Fixtures.query1_axes ()) with
  | Ok l -> Alcotest.(check int) "query 1 builds" 30 (Lattice.size l)
  | Error _ -> Alcotest.fail "query 1 must build");
  let t0 = Unix.gettimeofday () in
  (match Lattice.build_checked (wide_axes 40) with
  | Ok _ -> Alcotest.fail "40 wide axes must not build"
  | Error (`Too_large (axes, cap)) ->
      saw_typed_rejection ();
      Alcotest.(check int) "axis count reported" 40 axes;
      Alcotest.(check int) "cap reported" Lattice.max_size cap);
  Alcotest.(check bool) "rejection is immediate" true
    (Unix.gettimeofday () -. t0 < 1.0)

let test_compile_rejects_wide_query () =
  (* The same cap at the language front door: a query naming 30 maximally
     relaxable axes compiles to a typed error, not a hang. *)
  let n = 30 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|for $b in doc("book.xml")//publication|};
  for i = 0 to n - 1 do
    Printf.bprintf buf ",\n  $a%d in $b/author/name" i
  done;
  Buffer.add_string buf "\nX^3 $b/@id by ";
  for i = 0 to n - 1 do
    Printf.bprintf buf "%s$a%d (LND, SP, PC-AD)" (if i = 0 then "" else ", ") i
  done;
  Buffer.add_string buf "\nreturn COUNT($b).";
  match Compile.parse_and_compile (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "a 30-axis maximally-relaxed query must not compile"
  | Error msg ->
      saw_typed_rejection ();
      Alcotest.(check bool) "error mentions the lattice" true
        (String.length msg > 0)

(* --- governor pool and accounts ------------------------------------------ *)

let test_pool_accounting () =
  let pool = Governor.create ~max_bytes:1000 () in
  let a = Governor.open_account (Some pool) in
  Alcotest.(check bool) "600 fits" true (Governor.reserve a 600);
  Alcotest.(check int) "pool used" 600 (Governor.used pool);
  Alcotest.(check bool) "500 more does not" false (Governor.reserve a 500);
  Alcotest.(check int) "refusal counted as shed" 1 (Governor.shed pool);
  Alcotest.(check int) "failed reserve books nothing" 600 (Governor.used pool);
  Alcotest.(check bool) "400 exactly fills" true (Governor.reserve a 400);
  Alcotest.(check int) "remaining at the wall" 0 (Governor.remaining a);
  Governor.release a 300;
  Alcotest.(check int) "release returns bytes" 300 (Governor.remaining a);
  Alcotest.(check int) "peak tracks the high-water mark" 1000
    (Governor.peak pool);
  Governor.close a;
  Alcotest.(check int) "close drains the account" 0 (Governor.used pool);
  Governor.close a;
  Alcotest.(check int) "close is idempotent" 0 (Governor.used pool)

let test_account_cap_before_pool () =
  let pool = Governor.create ~max_bytes:1000 () in
  let a = Governor.open_account ~max_bytes:100 (Some pool) in
  Alcotest.(check bool) "over the account cap" false (Governor.reserve a 200);
  Alcotest.(check int) "account-cap refusal is not a pool shed" 0
    (Governor.shed pool);
  Alcotest.(check int) "no pool residue" 0 (Governor.used pool);
  Alcotest.(check bool) "within the cap" true (Governor.reserve a 100);
  Alcotest.(check int) "booked through to the pool" 100 (Governor.used pool);
  Governor.close a

let test_unbounded_account () =
  Alcotest.(check bool) "unbounded is unbounded" true
    (Governor.is_unbounded Governor.unbounded);
  Alcotest.(check bool) "bounded is not" false
    (Governor.is_unbounded (Governor.open_account ~max_bytes:10 None));
  Alcotest.(check bool) "any reservation succeeds" true
    (Governor.reserve Governor.unbounded max_int);
  Alcotest.(check int) "remaining is infinite" max_int
    (Governor.remaining Governor.unbounded);
  Alcotest.(check int) "nothing is ever booked" 0
    (Governor.account_used Governor.unbounded)

(* --- admission ------------------------------------------------------------ *)

let test_admission_saturated () =
  let door = Governor.Admission.create ~max_in_flight:1 ~max_waiting:0 () in
  (match Governor.Admission.admit door with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "an empty door must admit");
  (match Governor.Admission.admit door with
  | Error (Governor.Admission.Saturated { in_flight; waiting }) ->
      saw_admission_rejection ();
      Alcotest.(check int) "one in flight" 1 in_flight;
      Alcotest.(check int) "nobody waiting" 0 waiting
  | Ok () -> Alcotest.fail "a full door with no queue must shed"
  | Error (Governor.Admission.Timed_out _) ->
      Alcotest.fail "no-queue saturation must not be a timeout");
  Governor.Admission.release door;
  (match Governor.Admission.admit door with
  | Ok () -> Governor.Admission.release door
  | Error _ -> Alcotest.fail "a released slot must be reusable");
  Alcotest.(check int) "admitted counter" 2
    (Governor.Admission.admitted_total door);
  Alcotest.(check int) "rejected counter" 1
    (Governor.Admission.rejected_total door);
  Alcotest.(check int) "nothing left in flight" 0
    (Governor.Admission.in_flight door)

let test_admission_timeout () =
  let door = Governor.Admission.create ~max_in_flight:1 ~max_waiting:4 () in
  (match Governor.Admission.admit door with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "an empty door must admit");
  (match Governor.Admission.admit ~max_wait:0.02 door with
  | Error (Governor.Admission.Timed_out { waited }) ->
      saw_admission_rejection ();
      Alcotest.(check bool) "waited out the patience" true (waited >= 0.02)
  | Ok () -> Alcotest.fail "no slot can free: expected a timeout"
  | Error (Governor.Admission.Saturated _) ->
      Alcotest.fail "the queue had room: expected a timeout");
  Alcotest.(check int) "waiter deregistered" 0 (Governor.Admission.waiting door);
  Governor.Admission.release door

let test_admission_fifo () =
  (* Four waiters queue behind one slot-holder in a known order; as the
     slot cycles they must be admitted strictly in arrival order. *)
  let door = Governor.Admission.create ~max_in_flight:1 ~max_waiting:8 () in
  (match Governor.Admission.admit door with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "an empty door must admit");
  let order = ref [] in
  let order_lock = Mutex.create () in
  let n = 4 in
  let threads =
    List.init n (fun i ->
        let th =
          Thread.create
            (fun () ->
              match Governor.Admission.admit ~max_wait:10.0 door with
              | Ok () ->
                  Mutex.lock order_lock;
                  order := i :: !order;
                  Mutex.unlock order_lock;
                  Governor.Admission.release door
              | Error r ->
                  Alcotest.failf "waiter %d shed: %a" i
                    Governor.Admission.pp_rejection r)
            ()
        in
        (* Wait until this waiter is registered before spawning the next,
           so the arrival order is deterministic. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while
          Governor.Admission.waiting door < i + 1
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.001
        done;
        Alcotest.(check int)
          (Printf.sprintf "waiter %d registered" i)
          (i + 1)
          (Governor.Admission.waiting door);
        th)
  in
  Governor.Admission.release door;
  List.iter Thread.join threads;
  Alcotest.(check (list int)) "admitted in arrival order" [ 0; 1; 2; 3 ]
    (List.rev !order);
  Alcotest.(check int) "queue drained" 0 (Governor.Admission.waiting door);
  Alcotest.(check int) "nothing left in flight" 0
    (Governor.Admission.in_flight door);
  Alcotest.(check int) "all five admitted" (n + 1)
    (Governor.Admission.admitted_total door)

let test_admission_release_unbalanced () =
  let door = Governor.Admission.create () in
  Alcotest.check_raises "release without admit"
    (Invalid_argument "Admission.release: nothing in flight") (fun () ->
      Governor.Admission.release door)

(* --- suite ---------------------------------------------------------------- *)

let () =
  let quick = Alcotest.test_case in
  let suites =
    [
      ( "xml parser",
        [
          quick "fuzz: random bytes" `Quick test_xml_fuzz_random_bytes;
          quick "fuzz: markup soup" `Quick test_xml_fuzz_markup_soup;
          quick "100k-deep bomb rejected" `Quick test_xml_depth_bomb;
          quick "9k-deep legal document parses" `Quick test_xml_deep_but_legal;
          quick "custom limits enforced at the boundary" `Quick
            test_xml_custom_limits;
        ] );
      ( "query language",
        [
          quick "fuzz: token soup and random bytes" `Quick test_ql_fuzz;
          quick "query size cap" `Quick test_ql_size_cap;
        ] );
      ( "lattice cap",
        [
          quick "cardinality is overflow-safe" `Quick test_lattice_cardinality;
          quick "build_checked rejects wide products" `Quick
            test_lattice_build_checked;
          quick "compiler rejects a 30-axis query" `Quick
            test_compile_rejects_wide_query;
        ] );
      ( "governor",
        [
          quick "pool accounting" `Quick test_pool_accounting;
          quick "account cap checked before the pool" `Quick
            test_account_cap_before_pool;
          quick "unbounded fast path" `Quick test_unbounded_account;
        ] );
      ( "admission",
        [
          quick "saturated door sheds immediately" `Quick
            test_admission_saturated;
          quick "bounded patience times out" `Quick test_admission_timeout;
          quick "waiters admitted in FIFO order" `Quick test_admission_fifo;
          quick "unbalanced release is a bug" `Quick
            test_admission_release_unbalanced;
        ] );
    ]
  in
  let total =
    List.fold_left (fun acc (_, cases) -> acc + List.length cases) 0 suites
  in
  Fun.protect
    ~finally:(fun () ->
      Printf.printf
        "hostile: %d tests run, %d hostile inputs rejected with typed \
         errors, %d admission rejections observed\n\
         %!"
        total !hostile_rejections !admission_rejections)
    (fun () -> Alcotest.run ~and_exit:false "x3_hostile" suites)
