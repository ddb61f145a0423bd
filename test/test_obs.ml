(* The observability layer: the shared JSON encoder, per-domain trace
   rings (overflow, span nesting over real engine runs, every family
   tracing on one domain, a worker count asked of [Engine.run_safe]
   included), the metrics registry's determinism contract
   (cube.* byte-identical across repeated runs), and the Prometheus /
   Chrome-trace exporters. *)

open Fixtures
module Json = X3_obs.Json
module Trace = X3_obs.Trace
module Metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export
module Engine = X3_core.Engine
module Report = X3_core.Report
module Treebank = X3_workload.Treebank

(* --- Json --------------------------------------------------------------- *)

let test_json_escaping () =
  Alcotest.(check string)
    "quotes, backslashes, control characters"
    "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
    (Json.to_string ~pretty:false (Json.Str "a\"b\\c\nd\te\x01f"))

let test_json_floats () =
  let s v = Json.to_string ~pretty:false (Json.Float v) in
  Alcotest.(check string) "integral floats keep a decimal point" "2.0" (s 2.0);
  Alcotest.(check string) "fractions use %.12g" "0.25" (s 0.25);
  Alcotest.(check string) "nan is null" "null" (s Float.nan);
  Alcotest.(check string) "infinity is null" "null" (s Float.infinity)

let test_json_deterministic () =
  let doc =
    Json.Obj
      [
        ("b", Json.Int 1);
        ("a", Json.Arr [ Json.Bool true; Json.Null; Json.Float 0.5 ]);
      ]
  in
  Alcotest.(check string)
    "compact form is stable"
    {|{"b":1,"a":[true,null,0.5]}|}
    (Json.to_string ~pretty:false doc);
  Alcotest.(check string)
    "equal inputs, byte-equal output"
    (Json.to_string doc) (Json.to_string doc)

(* [Json.parse] is the front door for serve-protocol frames: it must
   round-trip everything the encoder emits and turn malformed input into
   typed errors, never exceptions. *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.Arr x, Json.Arr y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           x y
  | _ -> false

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("verb", Json.Str "cube");
        ("query", Json.Str "X^3 $b by $n \"quoted\"\n\ttab\xe2\x82\xac");
        ("flags", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("n", Json.Int (-42));
        ("ratio", Json.Float 0.125);
        ("nested", Json.Obj [ ("empty_arr", Json.Arr []); ("o", Json.Obj []) ]);
      ]
  in
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty doc) with
      | Ok doc' ->
          Alcotest.(check bool)
            (Printf.sprintf "parse inverts to_string (pretty=%b)" pretty)
            true (json_equal doc doc')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ false; true ]

let test_json_parse_rejects_malformed () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" src
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error for %S is non-empty" src)
            true
            (String.length msg > 0))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "nul"; "\"unterminated"; "{} trailing" ]

(* --- trace rings --------------------------------------------------------- *)

let attr_int e name =
  match List.assoc_opt name e.Trace.attrs with
  | Some (Trace.Int i) -> i
  | _ -> Alcotest.failf "event %s has no int attr %s" e.Trace.name name

let test_ring_overflow_drops_oldest () =
  Trace.enable ~ring_size:4 ();
  for i = 1 to 10 do
    Trace.instant ~attrs:[ ("i", Trace.Int i) ] "tick"
  done;
  let rings = Trace.dump () in
  Trace.disable ();
  Trace.reset ();
  let ring =
    match rings with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected one ring, got %d" (List.length rs)
  in
  Alcotest.(check int) "ring keeps its capacity" 4
    (List.length ring.Trace.events);
  Alcotest.(check int) "drops are counted" 6 ring.Trace.ring_dropped;
  Alcotest.(check (list int))
    "oldest events dropped first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> attr_int e "i") ring.Trace.events)

(* Replay one ring against a span stack: Begin pushes, End must close the
   innermost open span, and every Begin/Instant/Complete must cite the
   current innermost span as its parent (0 at the root). A trace that
   passes loads as properly nested slices in chrome://tracing. *)
let check_well_formed ring =
  let stack = ref [] in
  let top () = match !stack with s :: _ -> s | [] -> 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.phase with
      | Trace.Begin ->
          Alcotest.(check int)
            (Printf.sprintf "parent of span %s" e.Trace.name)
            (top ()) e.Trace.parent;
          stack := e.Trace.span :: !stack
      | Trace.End -> (
          match !stack with
          | [] ->
              Alcotest.failf "End of %s with no open span on domain %d"
                e.Trace.name e.Trace.domain
          | s :: rest ->
              Alcotest.(check int)
                (Printf.sprintf "End of %s closes the innermost span"
                   e.Trace.name)
                s e.Trace.span;
              stack := rest)
      | Trace.Instant | Trace.Complete _ ->
          Alcotest.(check int)
            (Printf.sprintf "parent of %s" e.Trace.name)
            (top ()) e.Trace.parent)
    ring.Trace.events;
  Alcotest.(check (list int))
    (Printf.sprintf "every span on domain %d closed" ring.Trace.ring_domain)
    [] !stack

(* The configured ring size is sticky across [enable] calls, so always
   state it — the overflow test above shrank it to 4. [run] computes the
   cube of the prepared query; [Engine.run] unless a test says otherwise. *)
let traced_run ?(run = fun p algorithm -> ignore (Engine.run p algorithm))
    algorithm =
  Trace.enable ~ring_size:65536 ();
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ())
      (Engine.count_spec ~fact_path ~axes:(query1_axes ()))
  in
  run p algorithm;
  let rings = Trace.dump () in
  Trace.disable ();
  Trace.reset ();
  rings

let test_span_nesting () =
  List.iter
    (fun algorithm ->
      let rings = traced_run algorithm in
      Alcotest.(check bool)
        "the run produced trace events" true
        (List.exists (fun r -> r.Trace.events <> []) rings);
      List.iter check_well_formed rings)
    Engine.[ Counter; Td ]

(* Every family computes on the calling domain: a traced run's events,
   its [cube.compute] span among them, come from exactly one domain. *)
let test_every_family_runs_serially () =
  List.iter
    (fun algorithm ->
      let name = Engine.algorithm_to_string algorithm in
      let active =
        List.filter (fun r -> r.Trace.events <> []) (traced_run algorithm)
      in
      let events = List.concat_map (fun r -> r.Trace.events) active in
      Alcotest.(check int)
        (name ^ ": events from exactly one domain")
        1 (List.length active);
      Alcotest.(check bool)
        (name ^ ": a cube.compute span")
        true
        (List.exists (fun e -> e.Trace.name = "cube.compute") events))
    Engine.all_algorithms

(* [Engine.run_safe] still takes a worker count but ignores it: a
   two-worker request runs on the calling domain alone, opens no [worker]
   span, and its [cube.compute] span carries no worker attribute. *)
let check_two_worker_request_runs_serially algorithm =
  let name = Engine.algorithm_to_string algorithm in
  let run p algorithm = ignore (Engine.run_safe ~workers:2 p algorithm) in
  let active =
    List.filter (fun r -> r.Trace.events <> []) (traced_run ~run algorithm)
  in
  let events = List.concat_map (fun r -> r.Trace.events) active in
  Alcotest.(check int)
    (name ^ ": events from exactly one domain")
    1 (List.length active);
  Alcotest.(check bool)
    (name ^ ": no worker span")
    false
    (List.exists (fun e -> e.Trace.name = "worker") events);
  match
    List.find_opt
      (fun e -> e.Trace.name = "cube.compute" && e.Trace.phase = Trace.Begin)
      events
  with
  | Some e ->
      Alcotest.(check bool)
        (name ^ ": cube.compute has no workers attribute")
        false
        (List.mem_assoc "workers" e.Trace.attrs)
  | None -> Alcotest.failf "%s: no cube.compute span" name

let test_naive_runs_serially () =
  check_two_worker_request_runs_serially Engine.Naive

let test_td_buc_run_serially () =
  List.iter check_two_worker_request_runs_serially
    Engine.[ Td; Tdcust; Buc; Buccust ]

let test_disabled_tracing_is_silent () =
  Trace.reset ();
  Trace.instant "ignored";
  ignore (Trace.start "ignored");
  Trace.complete ~start:(Trace.now ()) "ignored";
  Alcotest.(check (list pass)) "no rings registered while disabled" []
    (Trace.dump ())

(* --- metrics determinism ------------------------------------------------- *)

let cube_metrics ~store ~spec algorithm =
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, instr = Engine.run p algorithm in
  let m = Report.build ~instr ~result () in
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"cube." name)
    (Metrics.snapshot m)

(* The determinism contract from the report layer: cube.* is identical for
   a fixed (query, algorithm) on every run — resource-shaped values live
   under profile.* instead. Checked as bytes of the shared metrics
   document, the same comparison the bench harness relies on. *)
let check_cube_determinism ~store ~spec =
  List.iter
    (fun algorithm ->
      let doc () =
        Json.to_string
          (Obs_export.metrics_json (cube_metrics ~store ~spec algorithm))
      in
      Alcotest.(check string)
        (Printf.sprintf "cube.* for %s on two runs"
           (Engine.algorithm_to_string algorithm))
        (doc ()) (doc ()))
    Engine.all_algorithms

let test_cube_metrics_deterministic_figure1 () =
  check_cube_determinism ~store:(figure1_store ())
    ~spec:(Engine.count_spec ~fact_path ~axes:(query1_axes ()))

let test_cube_metrics_deterministic_treebank () =
  let config = { Treebank.default with num_trees = 60; axes = 3 } in
  check_cube_determinism
    ~store:(X3_xdb.Store.of_document (Treebank.generate config))
    ~spec:(Treebank.spec config)

(* --- exporters ------------------------------------------------------------ *)

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter m "cube.table_scans");
  Metrics.set (Metrics.gauge m "profile.peak_bytes") 2;
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0 |] m "latency.phase.parse" in
  Metrics.observe h 0.05;
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  let text = Obs_export.prometheus (Metrics.snapshot m) in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition contains %S" line)
        true
        (List.mem line (String.split_on_char '\n' text)))
    [
      "# TYPE x3_cube_table_scans counter";
      "x3_cube_table_scans 3";
      "# TYPE x3_profile_peak_bytes gauge";
      "x3_profile_peak_bytes 2";
      "# TYPE x3_latency_phase_parse histogram";
      "x3_latency_phase_parse_bucket{le=\"0.1\"} 1";
      "x3_latency_phase_parse_bucket{le=\"1.0\"} 2";
      "x3_latency_phase_parse_bucket{le=\"+Inf\"} 3";
      "x3_latency_phase_parse_sum 5.55";
      "x3_latency_phase_parse_count 3";
    ]

let test_chrome_trace_structure () =
  let rings = traced_run Engine.Counter in
  Alcotest.(check bool) "the run traced a ring" true (rings <> []);
  let doc = Obs_export.chrome_trace rings in
  let events =
    match doc with
    | Json.Obj fields -> (
        match List.assoc "traceEvents" fields with
        | Json.Arr events -> events
        | _ -> Alcotest.fail "traceEvents is not an array")
    | _ -> Alcotest.fail "chrome trace is not an object"
  in
  let field name = function
    | Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let thread_names =
    List.filter
      (fun e -> field "name" e = Some (Json.Str "thread_name"))
      events
  in
  Alcotest.(check int)
    "one thread_name metadata record per domain"
    (List.length rings) (List.length thread_names);
  List.iter
    (fun e ->
      (match field "ph" e with
      | Some (Json.Str ("B" | "E" | "X" | "i" | "M")) -> ()
      | _ -> Alcotest.fail "unexpected ph");
      Alcotest.(check bool)
        "every event carries pid 1" true
        (field "pid" e = Some (Json.Int 1));
      (* Metadata records ("M") carry no timestamp; every real event must. *)
      if field "ph" e <> Some (Json.Str "M") then
        match field "ts" e with
        | Some (Json.Float ts) ->
            Alcotest.(check bool) "timestamps rebased to >= 0" true (ts >= 0.)
        | _ -> Alcotest.fail "event without a numeric ts")
    events

(* --- request scopes ------------------------------------------------------- *)

let scope_events scope =
  List.concat_map (fun r -> r.Trace.events) (Trace.scope_dump scope)

(* Two threads, two scopes: every probe a bound thread emits must land
   in its own scope's rings and nowhere else — the isolation the serve
   daemon relies on for per-request traces. *)
let test_scope_disjoint_across_threads () =
  Trace.reset ();
  let scope_a = Trace.make_scope ~id:"req-a" () in
  let scope_b = Trace.make_scope ~id:"req-b" () in
  Alcotest.(check string) "scopes keep their ids" "req-a"
    (Trace.scope_id scope_a);
  let worker scope tag =
    Trace.with_scope scope @@ fun () ->
    for i = 1 to 50 do
      Trace.with_span tag (fun () ->
          Trace.instant ~attrs:[ ("i", Trace.Int i) ] (tag ^ ".tick"))
    done
  in
  let ta = Thread.create (fun () -> worker scope_a "alpha") () in
  let tb = Thread.create (fun () -> worker scope_b "bravo") () in
  Thread.join ta;
  Thread.join tb;
  let names scope =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.Trace.name = "" then None else Some e.Trace.name)
         (scope_events scope))
  in
  Alcotest.(check (list string))
    "scope a saw exactly its own spans"
    [ "alpha"; "alpha.tick" ] (names scope_a);
  Alcotest.(check (list string))
    "scope b saw exactly its own spans"
    [ "bravo"; "bravo.tick" ] (names scope_b);
  List.iter check_well_formed (Trace.scope_dump scope_a);
  List.iter check_well_formed (Trace.scope_dump scope_b);
  Alcotest.(check int) "scope a captured every event" 150
    (List.length (scope_events scope_a));
  (* Bound threads never leak into the (disabled) global scope. *)
  Alcotest.(check (list pass)) "global scope untouched" [] (Trace.dump ())

(* --- labelled series ------------------------------------------------------ *)

let test_label_escaping () =
  Alcotest.(check string)
    "no labels is the bare name" "serve.latency.request"
    (Metrics.labeled "serve.latency.request" []);
  (* value holds a backslash, a double quote and a newline *)
  let hostile = "a\\b\"c\nd" in
  let name = Metrics.labeled "verb_stats" [ ("v", hostile) ] in
  Alcotest.(check string)
    "backslash, quote and newline escaped in the canonical name"
    "verb_stats{v=\"a\\\\b\\\"c\\nd\"}" name;
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m name);
  let text = Obs_export.prometheus (Metrics.snapshot m) in
  Alcotest.(check bool)
    "exposition renders the escaped series on a single line" true
    (List.mem "x3_verb_stats{v=\"a\\\\b\\\"c\\nd\"} 1"
       (String.split_on_char '\n' text))

let string_contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Cumulative bucket series must never decrease down the exposition —
   checked over every _bucket line (the snapshot sorts series, so one
   series' buckets are consecutive, closed by its +Inf line). *)
let check_bucket_monotonicity text =
  let prev = ref 0 in
  List.iter
    (fun line ->
      if string_contains ~needle:"_bucket{" line then begin
        let v =
          match String.rindex_opt line ' ' with
          | Some i ->
              int_of_string
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> Alcotest.failf "malformed bucket line %S" line
        in
        Alcotest.(check bool)
          (Printf.sprintf "cumulative buckets non-decreasing at %S" line)
          true (v >= !prev);
        prev := v;
        if string_contains ~needle:"le=\"+Inf\"" line then prev := 0
      end)
    (String.split_on_char '\n' text)

let test_prometheus_under_concurrency () =
  let m = Metrics.create () in
  let name = Metrics.labeled "serve.latency.request" [ ("verb", "cube") ] in
  let buckets = [| 0.001; 0.01; 0.1; 1.0 |] in
  let h = Metrics.histogram ~buckets m name in
  let per_thread = 1000 and threads = 4 in
  let hammer () =
    for i = 1 to per_thread do
      Metrics.observe h (float_of_int (i mod 7) /. 5.)
    done
  in
  let ts = List.init threads (fun _ -> Thread.create hammer ()) in
  (* Snapshots taken mid-hammer must still render well-formed text, and
     rendering the same snapshot twice must be byte-identical. *)
  for _ = 1 to 5 do
    let snap = Metrics.snapshot m in
    let text = Obs_export.prometheus snap in
    Alcotest.(check string) "rendering a snapshot is deterministic" text
      (Obs_export.prometheus snap);
    check_bucket_monotonicity text
  done;
  List.iter Thread.join ts;
  match List.assoc name (Metrics.snapshot m) with
  | Metrics.Histogram { count; counts; _ } ->
      Alcotest.(check int) "every observation counted once"
        (per_thread * threads) count;
      Alcotest.(check int) "bucket counts account for every observation"
        (per_thread * threads)
        (Array.fold_left ( + ) 0 counts);
      check_bucket_monotonicity (Obs_export.prometheus (Metrics.snapshot m))
  | _ | (exception Not_found) -> Alcotest.fail "labelled histogram vanished"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "deterministic" `Quick test_json_deterministic;
          Alcotest.test_case "parse inverts to_string" `Quick
            test_json_parse_roundtrip;
          Alcotest.test_case "parse rejects malformed input" `Quick
            test_json_parse_rejects_malformed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow drops oldest" `Quick
            test_ring_overflow_drops_oldest;
          Alcotest.test_case "span nesting well-formed" `Quick
            test_span_nesting;
          Alcotest.test_case "NAIVE at 2 workers runs on one domain" `Quick
            test_naive_runs_serially;
          Alcotest.test_case "TD and BUC at 2 workers run on one domain"
            `Quick test_td_buc_run_serially;
          Alcotest.test_case "every family runs on one domain" `Quick
            test_every_family_runs_serially;
          Alcotest.test_case "disabled tracing is silent" `Quick
            test_disabled_tracing_is_silent;
          Alcotest.test_case "scopes disjoint across threads" `Quick
            test_scope_disjoint_across_threads;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cube.* deterministic on figure 1" `Quick
            test_cube_metrics_deterministic_figure1;
          Alcotest.test_case "cube.* deterministic on treebank" `Quick
            test_cube_metrics_deterministic_treebank;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "chrome trace structure" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "exposition sound under concurrent writers"
            `Quick test_prometheus_under_concurrency;
        ] );
    ]
