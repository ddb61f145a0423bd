module Engine = X3_core.Engine
module Context = X3_core.Context
module Governor = X3_core.Governor
module Export = X3_core.Export
module Materialized = X3_core.Materialized
module Cube_result = X3_core.Cube_result
module Lattice = X3_lattice.Lattice
module Properties = X3_lattice.Properties
module Json = X3_obs.Json
module Metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export
module Trace = X3_obs.Trace
module Wal = X3_storage.Wal
module Tree = X3_xml.Tree

type address = Unix_sock of string | Tcp of string * int

type config = {
  address : address;
  cache_bytes : int;
  max_in_flight : int;
  max_waiting : int;
  admission_timeout : float option;
  max_input_bytes : int option;
  max_frame_bytes : int;
  io_deadline : float option;
  drain_deadline : float;
  snapshot_path : string option;
  wal_path : string option;
  fault : Net_fault.t option;
  access_log_path : string option;
  access_log_max_bytes : int;
  prom_port : int option;
  slow_ms : float option;
  trace_dir : string option;
  trace_cap : int;
}

let default_config address =
  {
    address;
    cache_bytes = 64 * 1024 * 1024;
    max_in_flight = 4;
    max_waiting = 16;
    admission_timeout = None;
    max_input_bytes = None;
    max_frame_bytes = Protocol.default_max_frame_bytes;
    io_deadline = Some 30.0;
    drain_deadline = 5.0;
    snapshot_path = None;
    wal_path = None;
    fault = None;
    access_log_path = None;
    access_log_max_bytes = Access_log.default_max_bytes;
    prom_port = None;
    slow_ms = None;
    trace_dir = None;
    trace_cap = 32;
  }

let build_version = "0.1.0"

(* One cache holds three kinds of entry: a [Doc] is a prepared query's
   session (witness table + layout, charged at its resident table
   bytes), a [View] is one cuboid's cells (charged per group via
   [Materialized.approx_bytes]) and a [Store] is one document's parsed
   node store (charged at [Store.approx_bytes]), which session misses
   prepare over. Evicting a document takes its views with it — they
   reference its dictionaries, and serving them without their session
   would silently decouple cache content from cache accounting. Evicting
   a store takes nothing: no entry depends on it. *)
type cached = Doc of doc_entry | View of Materialized.t | Store of store_entry

and doc_entry = {
  de_key : string;
  de_session : Engine.Session.t;
  de_query : string;  (* the snapshot needs the original request text *)
  de_doc_path : string;
  mutable de_views : string list;  (* cache keys of this doc's views *)
  mutable de_wal_lsn : int;
      (* ingest-WAL high-water already folded into this session *)
}

and store_entry = {
  se_store : X3_xdb.Store.t;
  se_wal_lsn : int;  (* every fragment up to this LSN is grafted in *)
}

(* Per-connection state, registered so shutdown can tell idle
   connections (parked in read_frame) from busy ones (a request in
   flight whose response the drain should wait for). *)
type conn_state = { c_fd : Unix.file_descr; mutable c_busy : bool }

(* Per-request observability record, filled in by the handlers as the
   request progresses and consumed by the access log and the per-verb /
   per-provenance histograms once the response is known. *)
type req_info = {
  mutable ri_verb : string;
  mutable ri_doc : string option;  (* document path, digested for the log *)
  mutable ri_cells : int;
  mutable ri_provenance : Protocol.provenance option;
  mutable ri_admission_wait : float;
}

let new_req_info () =
  {
    ri_verb = "unknown";
    ri_doc = None;
    ri_cells = 0;
    ri_provenance = None;
    ri_admission_wait = 0.;
  }

(* One document's ingested fragments in LSN order, and the highest LSN
   among them. *)
type doc_frags = {
  frags : (int * Tree.element) Queue.t;
  mutable high_water : int;
}

type t = {
  cfg : config;
  registry : Metrics.t;
  door : Governor.Admission.t;
  cache_pool : Governor.t;
  cache_account : Governor.account;
  cache : cached Cuboid_cache.t;
  compute_lock : Mutex.t;
  listen_fd : Unix.file_descr;
  (* Atomics, not a mutex-guarded bool: [stop] must be callable from a
     signal handler, where taking a lock the interrupted thread holds
     would deadlock. *)
  running : bool Atomic.t;
  shutdown_cancel : bool Atomic.t;
  conn_lock : Mutex.t;
  conns : (Unix.file_descr, conn_state) Hashtbl.t;
  mutable fault : Net_fault.t option;
  state_lock : Mutex.t;
  wal : Wal.t option;
  (* Per document, its ingested fragments (LSN ascending) — replayed from
     the WAL at startup, extended on each ingest. Guarded by
     [compute_lock], like all session mutation. *)
  wal_frags : (string, doc_frags) Hashtbl.t;
  (* metric handles, interned once *)
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_rejected : Metrics.counter;
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_cache_evictions : Metrics.counter;
  m_cuboids_base : Metrics.counter;
  m_cuboids_rollup : Metrics.counter;
  m_cuboids_cached : Metrics.counter;
  m_views_sorted : Metrics.counter;
  m_docs_loaded : Metrics.counter;
  m_net_timeouts : Metrics.counter;
  m_accept_retries : Metrics.counter;
  m_restored_docs : Metrics.counter;
  m_restored_views : Metrics.counter;
  m_ingests : Metrics.counter;
  m_ingest_cells : Metrics.counter;
  m_ingest_fallbacks : Metrics.counter;
  m_resident : Metrics.gauge;
  m_entries : Metrics.gauge;
  m_lat_request : Metrics.histogram;
  m_lat_compute : Metrics.histogram;
  m_lat_admission : Metrics.histogram;
  m_lat_frame_read : Metrics.histogram;
  m_lat_frame_write : Metrics.histogram;
  m_slow_captured : Metrics.counter;
  started_at : float;
  req_ids : int Atomic.t;
  access_log : Access_log.t option;
  mutable http : Http_endpoint.t option;
  (* slow-query capture spool, newest first; guarded by [state_lock] *)
  mutable trace_spool : (string * string) list;
}

(* --- socket plumbing ----------------------------------------------------- *)

let bind_listen address =
  match address with
  | Unix_sock path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64;
         Ok fd
       with Unix.Unix_error (e, _, _) ->
         Unix.close fd;
         Error
           (Printf.sprintf "cannot listen on %s: %s" path
              (Unix.error_message e)))
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | exception Failure _ -> Error ("bad listen address: " ^ host)
      | addr -> (
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          try
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd (Unix.ADDR_INET (addr, port));
            Unix.listen fd 64;
            Ok fd
          with Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error
              (Printf.sprintf "cannot listen on %s:%d: %s" host port
                 (Unix.error_message e))))

(* forward declaration pattern: the snapshot restore runs inside [create]
   but needs the session-loading helpers defined below; thread through a
   ref to keep the file in reading order. *)
let restore_hook : (t -> unit) ref = ref (fun _ -> ())

(* --- ingest WAL plumbing ------------------------------------------------- *)

(* WAL record payload: [u32 LE doc-path length | doc path | fragment XML].
   The fragment is logged as the raw text the client sent; replay
   re-parses it. *)
let encode_ingest_payload ~doc_path ~fragment =
  let b =
    Buffer.create (4 + String.length doc_path + String.length fragment)
  in
  let len = String.length doc_path in
  for shift = 0 to 3 do
    Buffer.add_char b (Char.chr ((len lsr (8 * shift)) land 0xFF))
  done;
  Buffer.add_string b doc_path;
  Buffer.add_string b fragment;
  Buffer.contents b

let decode_ingest_payload payload =
  if String.length payload < 4 then Error "ingest record: truncated header"
  else begin
    let u8 p = Char.code payload.[p] in
    let len = u8 0 lor (u8 1 lsl 8) lor (u8 2 lsl 16) lor (u8 3 lsl 24) in
    if len < 0 || 4 + len > String.length payload then
      Error "ingest record: truncated path"
    else
      Ok
        ( String.sub payload 4 len,
          String.sub payload (4 + len) (String.length payload - 4 - len) )
  end

let doc_high_water wal_frags doc_path =
  match Hashtbl.find_opt wal_frags doc_path with
  | Some d -> d.high_water
  | None -> 0

(* LSNs only grow, both in the log and on ingest, so appending keeps each
   queue in LSN order. *)
let record_frag wal_frags ~doc_path ~lsn fragment =
  let d =
    match Hashtbl.find_opt wal_frags doc_path with
    | Some d -> d
    | None ->
        let d = { frags = Queue.create (); high_water = 0 } in
        Hashtbl.replace wal_frags doc_path d;
        d
  in
  Queue.add (lsn, fragment) d.frags;
  d.high_water <- max d.high_water lsn

(* Rebuild the per-document fragment index from a recovered log. A record
   that no longer decodes or parses is skipped with a warning — it can
   only patch nothing, never corrupt (the cold path simply won't graft
   it either). *)
let replay_wal_index wal =
  let wal_frags = Hashtbl.create 8 in
  let skip lsn msg =
    Printf.eprintf "x3 serve: wal record %d skipped: %s\n%!" lsn msg
  in
  List.iter
    (fun { Wal.lsn; payload } ->
      match decode_ingest_payload payload with
      | Error msg -> skip lsn msg
      | Ok (doc_path, fragment) -> (
          match X3_xml.Parser.parse fragment with
          | Error e -> skip lsn (Format.asprintf "%a" X3_xml.Parser.pp_error e)
          | Ok d -> record_frag wal_frags ~doc_path ~lsn d.Tree.root))
    (Wal.records wal);
  wal_frags

let create cfg =
  (* A client that dies mid-response turns writes into EPIPE errors we
     handle; without this it would be a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match bind_listen cfg.address with
  | Error _ as e -> e
  | Ok listen_fd -> (
      match
        match cfg.wal_path with
        | None -> Ok None
        | Some path -> (
            match Wal.open_file path with
            | wal -> Ok (Some wal)
            | exception e ->
                Error
                  (Printf.sprintf "cannot open ingest WAL %s: %s" path
                     (Printexc.to_string e)))
      with
      | Error msg ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Error msg
      | Ok wal ->
      let wal_frags =
        match wal with
        | None -> Hashtbl.create 1
        | Some wal ->
            if Wal.dropped_bytes wal > 0 then
              Printf.eprintf
                "x3 serve: wal recovery dropped %d torn bytes\n%!"
                (Wal.dropped_bytes wal);
            replay_wal_index wal
      in
      let registry = Metrics.create () in
      Option.iter (fun w -> Wal.attach_metrics w registry) wal;
      Metrics.set
        (Metrics.gauge registry
           (Metrics.labeled "build_info"
              [ ("version", build_version); ("ocaml", Sys.ocaml_version) ]))
        1;
      let cache_pool = Governor.create ~max_bytes:cfg.cache_bytes () in
      let cache_account = Governor.open_account (Some cache_pool) in
      (* The eviction hook needs the cache itself (a document takes its
         views down with it), so tie the knot through a ref. *)
      let cache_ref = ref None in
      let on_evict _key = function
        | Doc d -> (
            match !cache_ref with
            | Some cache ->
                List.iter (fun vk -> Cuboid_cache.remove cache vk) d.de_views
            | None -> ())
        | View _ | Store _ -> ()
      in
      let m_evict_walk =
        Metrics.histogram registry "serve.latency.cache_evict_walk"
      in
      let observe_walk ~seconds ~victims:_ =
        Metrics.observe m_evict_walk seconds
      in
      let cache =
        Cuboid_cache.create ~on_evict ~observe_walk ~account:cache_account ()
      in
      cache_ref := Some cache;
      let t =
        {
          cfg;
          registry;
          door =
            Governor.Admission.create ~max_in_flight:cfg.max_in_flight
              ~max_waiting:cfg.max_waiting ();
          cache_pool;
          cache_account;
          cache;
          compute_lock = Mutex.create ();
          listen_fd;
          running = Atomic.make true;
          shutdown_cancel = Atomic.make false;
          conn_lock = Mutex.create ();
          conns = Hashtbl.create 16;
          fault = cfg.fault;
          state_lock = Mutex.create ();
          wal;
          wal_frags;
          m_requests = Metrics.counter registry "serve.requests.total";
          m_errors = Metrics.counter registry "serve.requests.errors";
          m_rejected = Metrics.counter registry "serve.requests.rejected";
          m_cache_hits = Metrics.counter registry "serve.cache.hits";
          m_cache_misses = Metrics.counter registry "serve.cache.misses";
          m_cache_evictions = Metrics.counter registry "serve.cache.evictions";
          m_cuboids_base = Metrics.counter registry "serve.cuboids.base";
          m_cuboids_rollup = Metrics.counter registry "serve.cuboids.rollup";
          m_cuboids_cached = Metrics.counter registry "serve.cuboids.cached";
          m_views_sorted = Metrics.counter registry "serve.views.sorted";
          m_docs_loaded = Metrics.counter registry "serve.docs.loaded";
          m_net_timeouts = Metrics.counter registry "serve.net.timeouts";
          m_accept_retries = Metrics.counter registry "serve.net.accept_retries";
          m_restored_docs = Metrics.counter registry "serve.cache.restored_docs";
          m_restored_views =
            Metrics.counter registry "serve.cache.restored_views";
          m_ingests = Metrics.counter registry "serve.ingest.total";
          m_ingest_cells = Metrics.counter registry "serve.ingest.cells";
          m_ingest_fallbacks =
            Metrics.counter registry "serve.ingest.fallbacks";
          m_resident = Metrics.gauge registry "serve.cache.resident_bytes";
          m_entries = Metrics.gauge registry "serve.cache.entries";
          m_lat_request = Metrics.histogram registry "serve.latency.request";
          m_lat_compute = Metrics.histogram registry "serve.latency.compute";
          m_lat_admission =
            Metrics.histogram registry "serve.latency.admission_wait";
          m_lat_frame_read =
            Metrics.histogram registry "serve.latency.frame_read";
          m_lat_frame_write =
            Metrics.histogram registry "serve.latency.frame_write";
          m_slow_captured =
            Metrics.counter registry "serve.slow_traces.captured";
          started_at = Unix.gettimeofday ();
          req_ids = Atomic.make 1;
          access_log =
            Option.map
              (fun p ->
                Access_log.create ~max_bytes:cfg.access_log_max_bytes
                  ~metrics:registry p)
              cfg.access_log_path;
          http = None;
          trace_spool = [];
        }
      in
      (* The scrape endpoint comes up before warm restore so /readyz
         truthfully answers "not yet" while the restore and WAL replay
         run; it flips ready only once the daemon can serve. *)
      match
        match cfg.prom_port with
        | None -> Ok None
        | Some port -> (
            match Http_endpoint.start ~port ~snapshot:(fun () ->
                Metrics.snapshot registry) ()
            with
            | ep -> Ok (Some ep)
            | exception Unix.Unix_error (e, _, _) ->
                Error
                  (Printf.sprintf "cannot bind prometheus endpoint on %d: %s"
                     port (Unix.error_message e)))
      with
      | Error msg ->
          Option.iter Access_log.close t.access_log;
          Option.iter Wal.close wal;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Error msg
      | Ok ep ->
          t.http <- ep;
          !restore_hook t;
          Option.iter (fun ep -> Http_endpoint.set_ready ep true) t.http;
          Ok t)

let registry t = t.registry
let set_fault t fault = t.fault <- fault
let prom_port t = Option.map Http_endpoint.port t.http

let live_connections t =
  Mutex.lock t.conn_lock;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conn_lock;
  n

let refresh_gauges t =
  Metrics.set t.m_resident (Cuboid_cache.resident_bytes t.cache);
  Metrics.set t.m_entries (Cuboid_cache.entries t.cache)

let stats_document t =
  refresh_gauges t;
  let now = Unix.gettimeofday () in
  let meta =
    [
      ("server", Json.Str "x3 serve");
      ("version", Json.Str build_version);
      ("started_at", Json.Float t.started_at);
      ("serve.uptime_ms", Json.Int (int_of_float ((now -. t.started_at) *. 1000.)));
      ("cache_bytes", Json.Int t.cfg.cache_bytes);
      ("cache_used_bytes", Json.Int (Cuboid_cache.resident_bytes t.cache));
      ("max_in_flight", Json.Int t.cfg.max_in_flight);
      ("admitted_total", Json.Int (Governor.Admission.admitted_total t.door));
      ("rejected_total", Json.Int (Governor.Admission.rejected_total t.door));
      ("live_connections", Json.Int (live_connections t));
    ]
  in
  Obs_export.metrics_json ~meta (Metrics.snapshot t.registry)

(* --- loading and serving ------------------------------------------------- *)

let make_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:65536
    (X3_storage.Disk.in_memory ~page_size:8192 ())

let session_key ~doc_path ~query =
  Digest.to_hex (Digest.string (doc_path ^ "\x00" ^ query))

let view_key skey cid = Printf.sprintf "view:%s:%d" skey cid
let doc_key skey = "doc:" ^ skey
let store_key doc_path = "store:" ^ doc_path

exception Reply of Protocol.response

let fail code fmt =
  Printf.ksprintf (fun message -> raise (Reply (Protocol.Failed { code; message }))) fmt

let check_input_cap t doc_path =
  match t.cfg.max_input_bytes with
  | None -> ()
  | Some cap -> (
      match (Unix.stat doc_path).Unix.st_size with
      | size when size > cap ->
          fail "input_too_large" "%s is %d bytes, over the %d-byte cap"
            doc_path size cap
      | _ -> ()
      | exception Unix.Unix_error _ -> ())

(* The document's bytes, read after the input-cap check. *)
let read_document t doc_path =
  check_input_cap t doc_path;
  match In_channel.with_open_bin doc_path In_channel.input_all with
  | src -> src
  | exception Sys_error msg -> fail "bad_document" "%s" msg

(* The query-independent half of a session load: scan [doc_path]'s bytes
   straight into a store, with every ingested fragment appended to the
   root in LSN order — the cold path's view of every durably ingested
   fact. The store is immutable, so any number of sessions may be
   prepared over it. *)
let load_store t ~doc_path =
  let src = read_document t doc_path in
  let graft =
    match Hashtbl.find_opt t.wal_frags doc_path with
    | Some d -> List.of_seq (Seq.map snd (Queue.to_seq d.frags))
    | None -> []
  in
  match X3_xdb.Store.of_string ~graft src with
  | Error e ->
      fail "bad_document" "%s" (Format.asprintf "%a" X3_xml.Parser.pp_error e)
  | Ok store ->
      Metrics.inc t.m_docs_loaded;
      store

(* A session over [store]. *)
let prepare_session t store spec =
  let prepared = Engine.prepare ~pool:(make_pool ()) ~store spec in
  (* Session creation builds the columns and observes the properties. *)
  let session =
    Trace.with_span "serve.observe" (fun () -> Engine.Session.create prepared)
  in
  (* Every session cooperates with drain: once the drain deadline passes,
     the next checkpoint in any compute on this session stops it with a
     typed Cancelled. *)
  Context.set_cancel_hook
    (Engine.Session.context session)
    (fun () -> Atomic.get t.shutdown_cancel);
  session

(* Load [doc_path] with every durable fragment grafted in and offer the
   store to the cache, replacing any older one. *)
let fresh_store t ~doc_path =
  let se =
    {
      se_store = load_store t ~doc_path;
      se_wal_lsn = doc_high_water t.wal_frags doc_path;
    }
  in
  ignore
    (Cuboid_cache.insert t.cache ~key:(store_key doc_path)
       ~bytes:(X3_xdb.Store.approx_bytes se.se_store)
       (Store se)
      : bool);
  se

(* Stage one durable fragment for [session]'s query and fold it into the
   session's witness table and [views] — the one path both an ingest
   into a resident session and a session miss over an older store take.
   [`Refused] leaves the session untouched; its caller rebuilds from a
   grafted load, which is always exact. *)
let fold_fragment session ~views ~lsn ~fragment =
  Trace.with_span "serve.fold" @@ fun () ->
  let spec = Engine.spec_of (Engine.Session.prepared session) in
  match
    Engine.stage_fragment spec ~fragment
      ~fact_id:(Engine.synthetic_fact_id ~lsn)
  with
  | Engine.Not_a_fact -> `Skipped
  | Engine.Unsupported reason -> `Refused (Engine.Fragment_unsupported reason)
  | Engine.Staged staged -> (
      match Engine.Session.apply_delta session staged ~views with
      | Ok (_rows, patched) -> `Folded patched
      | Error fb -> `Refused fb)

(* A session over the cached store of [doc_path] (loaded and cached on a
   miss), with every fragment logged after that store was built folded
   in, oldest first. If the fold refuses one, the document is loaded
   afresh with every fragment grafted, that store replaces the cached
   one, and the session is prepared over it instead. *)
let load_session t ~doc_path ~spec =
  let se =
    match Cuboid_cache.find t.cache (store_key doc_path) with
    | Some (Store se) -> se
    | Some (Doc _ | View _) | None -> fresh_store t ~doc_path
  in
  let session = prepare_session t se.se_store spec in
  let later =
    match Hashtbl.find_opt t.wal_frags doc_path with
    | Some d ->
        Seq.filter (fun (lsn, _) -> lsn > se.se_wal_lsn) (Queue.to_seq d.frags)
    | None -> Seq.empty
  in
  match
    Seq.find_map
      (fun (lsn, fragment) ->
        match fold_fragment session ~views:[] ~lsn ~fragment with
        | `Skipped | `Folded _ -> None
        | `Refused fb -> Some fb)
      later
  with
  | None -> session
  | Some fb ->
      Metrics.inc
        (Metrics.counter t.registry
           (Metrics.labeled "serve.docs.fold_refused"
              [ ("reason", Engine.fallback_reason_name fb) ]));
      prepare_session t (fresh_store t ~doc_path).se_store spec

(* The resident session for (doc, query): served from the cache when
   possible, loaded and offered to the cache otherwise. Runs under the
   compute lock. *)
let acquire_session t ~skey ~doc_path ~query ~spec =
  let dkey = doc_key skey in
  match Cuboid_cache.find t.cache dkey with
  | Some (Doc d) ->
      Metrics.inc t.m_cache_hits;
      d
  | Some (View _ | Store _) | None ->
      Metrics.inc t.m_cache_misses;
      let entry =
        {
          de_key = skey;
          de_session =
            Trace.with_span "serve.session_load" (fun () ->
                load_session t ~doc_path ~spec);
          de_query = query;
          de_doc_path = doc_path;
          de_views = [];
          (* every durable fragment was just grafted or folded in *)
          de_wal_lsn = doc_high_water t.wal_frags doc_path;
        }
      in
      let bytes = Engine.Session.table_bytes entry.de_session in
      (* [false] = too big for the whole budget: serve this request from
         the transient session and cache nothing — degraded, not an
         error. *)
      ignore (Cuboid_cache.insert t.cache ~key:dkey ~bytes (Doc entry) : bool);
      entry

(* Answer every cuboid of the lattice, finest first, preferring cached
   views, then rollup from a view this request already holds (admitted
   against the observed properties by TDCUST's rule), then a base scan,
   counted under the property the first refused finer view lacked
   ([no_finer] when there was none). Returns the views by cuboid id plus
   provenance. *)
let serve_cuboids t entry =
  let session = entry.de_session in
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  let ctx = Engine.Session.context session in
  let order = Lattice.by_degree lattice in
  let obtained = Hashtbl.create (Array.length order) in
  let obtained_order = ref [] in
  let base = ref 0 and rolled = ref 0 and cached = ref 0 in
  let doc_cached = Cuboid_cache.peek t.cache (doc_key entry.de_key) <> None in
  Array.iter
    (fun cid ->
      let vkey = view_key entry.de_key cid in
      let view =
        match Cuboid_cache.find t.cache vkey with
        | Some (View v) ->
            Metrics.inc t.m_cache_hits;
            Metrics.inc t.m_cuboids_cached;
            incr cached;
            v
        | Some (Doc _ | Store _) | None ->
            Metrics.inc t.m_cache_misses;
            (* Nearest finer view first: the most recently obtained views
               are the highest-degree (most relaxed) ones that are still
               finer than [cid], so the rollup merges the fewest groups. *)
            let refused = ref "no_finer" in
            let from_rollup =
              List.find_map
                (fun finer_cid ->
                  match
                    Materialized.rollup ctx
                      ~props:(Engine.Session.props session)
                      (Hashtbl.find obtained finer_cid)
                      ~coarser:cid
                  with
                  | Ok v -> Some v
                  | Error Properties.Not_relaxation -> None
                  | Error r ->
                      if !refused = "no_finer" then
                        refused := Properties.refusal_name r;
                      None)
                !obtained_order
            in
            let v =
              match from_rollup with
              | Some v ->
                  Metrics.inc t.m_cuboids_rollup;
                  incr rolled;
                  Trace.instant "serve.rollup"
                    ~attrs:[ ("cuboid", Trace.Int cid) ];
                  v
              | None ->
                  Metrics.inc t.m_cuboids_base;
                  Metrics.inc
                    (Metrics.counter t.registry
                       (Metrics.labeled "serve.cuboids.rollup_refused"
                          [ ("reason", !refused) ]));
                  incr base;
                  Engine.Session.materialize session ~cuboid:cid
            in
            (* Offer the fresh view to the cache — only while its document
               is resident, so view bytes never outlive their session's
               accounting. *)
            if doc_cached then begin
              let bytes = Materialized.approx_bytes v in
              if Cuboid_cache.insert t.cache ~key:vkey ~bytes (View v) then
                entry.de_views <- vkey :: entry.de_views
            end;
            v
      in
      Hashtbl.replace obtained cid view;
      obtained_order := cid :: !obtained_order)
    order;
  let views = Array.init (Array.length order) (Hashtbl.find obtained) in
  ( views,
    { Protocol.p_base = !base; p_rollup = !rolled; p_cached = !cached } )

let bad_format other =
  fail "bad_format" "unknown format %S (expected csv or json)" other

let export_string ~func ~format result =
  match format with
  | "csv" -> Export.csv_string ~func result
  | "json" -> Export.json_string ~func result
  | other -> bad_format other

(* Print a request's views straight from their stored order; a view
   that holds none (first read since it was built or gained a group)
   sorts once here, counted on [serve.views.sorted]. *)
let export_views t ~func ~format lattice views =
  Trace.with_span "serve.export" @@ fun () ->
  let print =
    match format with
    | "csv" -> Export.views_csv_string
    | "json" -> Export.views_json_string
    | other -> bad_format other
  in
  Array.iter
    (fun v -> if not (Materialized.ordered v) then Metrics.inc t.m_views_sorted)
    views;
  print ~func lattice views

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let no_provenance = { Protocol.p_base = 0; p_rollup = 0; p_cached = 0 }

let handle_cube t ~rid ~scope ~info ~query ~doc ~algorithm ~format ~no_cache
    ~deadline_ms ~retries =
  let compiled =
    match X3_ql.Compile.parse_and_compile query with
    | Ok c -> c
    | Error msg -> fail "bad_query" "%s" msg
  in
  let doc_path = Option.value doc ~default:compiled.X3_ql.Compile.document in
  info.ri_doc <- Some doc_path;
  let spec = compiled.X3_ql.Compile.spec in
  let deadline_at =
    Option.map
      (fun ms ->
        if ms <= 0 then fail "bad_request" "deadline_ms must be positive"
        else Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      deadline_ms
  in
  let admit0 = Unix.gettimeofday () in
  match
    Governor.Admission.admit ?max_wait:t.cfg.admission_timeout t.door
  with
  | Error rejection ->
      Metrics.inc t.m_rejected;
      fail "rejected" "%s"
        (Format.asprintf "%a" Governor.Admission.pp_rejection rejection)
  | Ok () ->
      let wait = Unix.gettimeofday () -. admit0 in
      info.ri_admission_wait <- wait;
      Metrics.observe t.m_lat_admission wait;
      Fun.protect
        ~finally:(fun () -> Governor.Admission.release t.door)
        (fun () ->
          (* The substrate under a session (buffer pool, context scratch)
             is unsynchronised, so all engine work is serialized; cache
             lookups stay concurrent. *)
          locked t.compute_lock (fun () ->
              (* Admission may have parked us across the start of a
                 drain; computing now would outlive the drain's census. *)
              if not (Atomic.get t.running) then
                fail "shutting_down" "server is draining";
              let t0 = Unix.gettimeofday () in
              let payload, provenance, partial =
                if no_cache then begin
                  (* The cold reference path: fresh load, fresh compute,
                     no cache reads or writes. The wire deadline/retry
                     budget rides the engine's own machinery. *)
                  let alg =
                    match algorithm with
                    | None -> Engine.Counter
                    | Some name -> (
                        match Engine.algorithm_of_string name with
                        | Some a -> a
                        | None -> fail "bad_algorithm" "unknown algorithm %s" name)
                  in
                  let session =
                    prepare_session t (load_store t ~doc_path) spec
                  in
                  let deadline =
                    Option.map (fun at -> at -. Unix.gettimeofday ()) deadline_at
                  in
                  match
                    Engine.run_safe ?deadline ?retries
                      ~cancel:(fun () -> Atomic.get t.shutdown_cancel)
                      (Engine.Session.prepared session)
                      alg
                  with
                  | Engine.Complete (result, _instr) ->
                      info.ri_cells <- Cube_result.total_cells result;
                      ( export_string ~func:spec.Engine.func ~format result,
                        no_provenance,
                        None )
                  | Engine.Partial (reason, result, _instr) ->
                      (* A typed partial cube: what the engine had when
                         the deadline/cancel landed, clearly marked. *)
                      info.ri_cells <- Cube_result.total_cells result;
                      ( export_string ~func:spec.Engine.func ~format result,
                        no_provenance,
                        Some (Context.reason_name reason) )
                  | Engine.Failed (Engine.Corrupt msg) ->
                      fail "corrupt" "%s" msg
                  | Engine.Failed (Engine.Io_fault msg) ->
                      fail "io_fault" "%s" msg
                end
                else begin
                  let skey = session_key ~doc_path ~query in
                  let entry =
                    acquire_session t ~skey ~doc_path ~query ~spec
                  in
                  match
                    (* [with_request] binds the request's trace scope to
                       the session context around the compute, so the
                       span tree this request emits is its own. *)
                    Engine.Session.with_request entry.de_session ?scope
                      ?deadline_at (fun () ->
                        let views, provenance =
                          Trace.with_span "serve.views" (fun () ->
                              serve_cuboids t entry)
                        in
                        info.ri_cells <-
                          Array.fold_left
                            (fun acc v -> acc + Materialized.group_count v)
                            0 views;
                        ( export_views t ~func:spec.Engine.func ~format
                            (Engine.lattice
                               (Engine.Session.prepared entry.de_session))
                            views,
                          provenance ))
                  with
                  | Ok (payload, provenance) -> (payload, provenance, None)
                  | Error Context.Deadline_exceeded ->
                      fail "timeout" "deadline of %d ms exceeded"
                        (Option.value ~default:0 deadline_ms)
                  | Error Context.Cancelled ->
                      fail "cancelled" "%s"
                        (if Atomic.get t.shutdown_cancel then
                           "server drained before completion"
                         else "request cancelled")
                  | Error Context.Over_budget ->
                      fail "over_budget" "cache-path compute over byte budget"
                end
              in
              let seconds = Unix.gettimeofday () -. t0 in
              Metrics.observe t.m_lat_compute seconds;
              info.ri_provenance <- Some provenance;
              Protocol.Cube_ok
                { payload; provenance; seconds; partial; request_id = Some rid }))

(* --- ingest -------------------------------------------------------------- *)

(* A session whose delta could not be proven sound is flushed: its next
   request rebuilds it cold from the grafted document, which is always
   exact. The typed reason lands on a per-reason counter and stderr. *)
let ingest_fallback t d reason message =
  Metrics.inc t.m_ingest_fallbacks;
  Metrics.inc (Metrics.counter t.registry ("serve.ingest.fallbacks." ^ reason));
  Printf.eprintf
    "x3 serve: ingest fallback (%s) for %s: %s; session flushed for cold \
     rebuild\n\
     %!"
    reason d.de_doc_path message;
  (* the eviction hook takes the views down with the document *)
  Cuboid_cache.remove t.cache (doc_key d.de_key)

(* Re-book a patched document and its views at their grown costs, in
   place: each keeps its recency, and only entries the budget must give up
   are evicted. An entry that no longer fits drops out — the document
   taking its views with it — which is degraded service, never an error. *)
let recharge_entry t d views =
  Trace.with_span "serve.recharge" @@ fun () ->
  if
    Cuboid_cache.recharge t.cache ~key:(doc_key d.de_key)
      ~bytes:(Engine.Session.table_bytes d.de_session)
  then
    List.iter
      (fun (vk, v) ->
        if
          not
            (Cuboid_cache.recharge t.cache ~key:vk
               ~bytes:(Materialized.approx_bytes v))
        then d.de_views <- List.filter (fun k -> k <> vk) d.de_views)
      views

(* Fold one durable fragment into one resident session: append it to
   the witness table and patch every cached view cell-by-cell. Runs under
   the compute lock. *)
let patch_entry t d ~lsn ~fragment =
  if lsn <= d.de_wal_lsn then `Patched 0 (* already folded in *)
  else begin
    let views =
      List.filter_map
        (fun vk ->
          match Cuboid_cache.peek t.cache vk with
          | Some (View v) -> Some (vk, v)
          | Some (Doc _ | Store _) | None -> None)
        d.de_views
    in
    match
      fold_fragment d.de_session ~views:(List.map snd views) ~lsn ~fragment
    with
    | `Skipped ->
        d.de_wal_lsn <- lsn;
        `Patched 0
    | `Folded patched ->
        d.de_wal_lsn <- lsn;
        recharge_entry t d views;
        `Patched patched
    | `Refused fb ->
        ingest_fallback t d
          (Engine.fallback_reason_name fb)
          (Format.asprintf "%a" Engine.pp_fallback fb);
        `Fallback
  end

let handle_ingest t ~doc ~fragment =
  let frag_el =
    match X3_xml.Parser.parse fragment with
    | Ok d -> d.Tree.root
    | Error e ->
        (* refused before the WAL sees it: a malformed fragment must not
           become a durable record every restart re-reports *)
        fail "bad_fragment" "%s" (Format.asprintf "%a" X3_xml.Parser.pp_error e)
  in
  locked t.compute_lock (fun () ->
      if not (Atomic.get t.running) then
        fail "shutting_down" "server is draining";
      let wal =
        match t.wal with
        | Some w -> w
        | None -> fail "no_wal" "daemon started without --wal; ingest disabled"
      in
      (* Durability first: the fragment is logged and fsynced before any
         in-memory state changes, so a crash at any later point replays
         it from the log. *)
      let lsn =
        try
          let lsn =
            Wal.append wal (encode_ingest_payload ~doc_path:doc ~fragment)
          in
          Trace.with_span "wal.commit" (fun () -> Wal.commit wal);
          lsn
        with e ->
          fail "io_fault" "ingest WAL append failed: %s" (Printexc.to_string e)
      in
      Metrics.inc t.m_ingests;
      record_frag t.wal_frags ~doc_path:doc ~lsn frag_el;
      let sessions = ref 0 and cells = ref 0 and fallbacks = ref 0 in
      List.iter
        (fun (_key, value, _bytes) ->
          match value with
          | Doc d when String.equal d.de_doc_path doc -> (
              match patch_entry t d ~lsn ~fragment:frag_el with
              | `Patched n ->
                  incr sessions;
                  cells := !cells + n
              | `Fallback -> incr fallbacks)
          | Doc _ | View _ | Store _ -> ())
        (Cuboid_cache.snapshot t.cache);
      Metrics.inc ~by:!cells t.m_ingest_cells;
      Protocol.Ingest_ok
        {
          lsn;
          sessions = !sessions;
          cells = !cells;
          fallbacks = !fallbacks;
        })

(* --- slow-query capture --------------------------------------------------- *)

(* Request ids are either server-assigned ("r-%06d") or client-chosen;
   a client-chosen id becomes a spool file name, so it is flattened to a
   safe charset first. *)
let sanitize_rid rid =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    (if rid = "" then "anonymous" else rid)

let capture_slow t ~rid ~scope ~seconds =
  match t.cfg.trace_dir with
  | None -> ()
  | Some dir -> (
      try
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
        let rid = sanitize_rid rid in
        let path = Filename.concat dir (rid ^ ".trace.json") in
        Json.to_file path (Obs_export.chrome_trace (Trace.scope_dump scope));
        Metrics.inc t.m_slow_captured;
        Trace.instant "serve.slow_capture"
          ~attrs:
            [ ("request_id", Trace.Str rid); ("seconds", Trace.Float seconds) ];
        let evicted =
          locked t.state_lock (fun () ->
              let spool =
                (rid, path)
                :: List.filter (fun (r, _) -> r <> rid) t.trace_spool
              in
              let rec split n = function
                | [] -> ([], [])
                | l when n = 0 -> ([], l)
                | x :: rest ->
                    let keep, drop = split (n - 1) rest in
                    (x :: keep, drop)
              in
              let keep, drop = split (max 1 t.cfg.trace_cap) spool in
              t.trace_spool <- keep;
              drop)
        in
        List.iter
          (fun (_r, p) -> try Sys.remove p with Sys_error _ -> ())
          evicted
      with e ->
        (* Losing a capture is degraded observability, never a failed
           request. *)
        Printf.eprintf "x3 serve: slow-trace capture for %s failed: %s\n%!"
          rid (Printexc.to_string e))

let handle_trace t ~name =
  let spool = locked t.state_lock (fun () -> t.trace_spool) in
  match name with
  | None ->
      Protocol.Trace_ok
        (Json.Obj
           [
             ( "captures",
               Json.Arr (List.map (fun (r, _) -> Json.Str r) spool) );
           ])
  | Some rid -> (
      let rid = sanitize_rid rid in
      match List.assoc_opt rid spool with
      | None -> fail "not_found" "no spooled trace for %S" rid
      | Some path -> (
          match
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | exception Sys_error msg -> fail "io_fault" "%s" msg
          | contents -> (
              match Json.parse contents with
              | Error msg -> fail "io_fault" "spooled trace unreadable: %s" msg
              | Ok doc -> Protocol.Trace_ok doc)))

(* --- warm restart -------------------------------------------------------- *)

(* Persist the cache index at drained shutdown: one entry per resident
   session, LRU-oldest first, so restore re-inserts them in the same
   order. *)
let persist_snapshot t =
  match t.cfg.snapshot_path with
  | None -> ()
  | Some path -> (
      let entries =
        List.filter_map
          (fun (_key, value, _bytes) ->
            match value with
            | Doc d ->
                Some
                  {
                    Warm_store.ws_query = d.de_query;
                    ws_doc_path = d.de_doc_path;
                  }
            | View _ | Store _ -> None)
          (locked t.compute_lock (fun () -> Cuboid_cache.snapshot t.cache))
      in
      match Warm_store.save ~path entries with
      | Ok () -> ()
      | Error msg ->
          (* Snapshot loss is degraded service, never an error. *)
          Printf.eprintf "x3 serve: cache snapshot not saved: %s\n%!" msg)

(* Restore at startup: verify-on-load, then group the snapshot's entries
   by document. Per entry the query is re-compiled and served into the
   cache exactly as a cube request runs: its session is prepared over the
   document's cached store, which the group's first entry loads with
   every durable WAL fragment grafted in — the cold path's load — and
   later entries share. Nothing is deserialised, so nothing can drift
   from the bytes on disk. Any failure — checksum, unknown version, missing or
   unreadable document, a query that no longer compiles — is a cold
   start for that entry (or the whole cache), never an error. Each
   fallback records {e why} on a per-reason counter
   ([serve.cache.restore_failures.<reason>]) and one stderr line, so a
   fleet of daemons that quietly stopped restoring is diagnosable. *)
exception Restore_failure of string * string (* reason slug, detail *)

let restore_fail reason fmt =
  Printf.ksprintf (fun detail -> raise (Restore_failure (reason, detail))) fmt

let note_restore_failure t ~what (reason, detail) =
  Metrics.inc
    (Metrics.counter t.registry ("serve.cache.restore_failures." ^ reason));
  Printf.eprintf "x3 serve: cold start for %s (%s): %s\n%!" what reason detail

(* The entries' queries grouped by document path, in snapshot order;
   groups in order of first appearance. *)
let group_by_doc entries =
  let groups = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun { Warm_store.ws_query; ws_doc_path } ->
      match Hashtbl.find_opt groups ws_doc_path with
      | Some queries -> queries := ws_query :: !queries
      | None ->
          Hashtbl.add groups ws_doc_path (ref [ ws_query ]);
          order := ws_doc_path :: !order)
    entries;
  List.rev_map
    (fun doc_path -> (doc_path, List.rev !(Hashtbl.find groups doc_path)))
    !order

let restore_group t (doc_path, queries) =
  List.iter
    (fun query ->
      let skey = session_key ~doc_path ~query in
      match
        let spec =
          match X3_ql.Compile.parse_and_compile query with
          | Ok c -> c.X3_ql.Compile.spec
          | Error msg -> restore_fail "recompile_failed" "%s" msg
        in
        let entry = acquire_session t ~skey ~doc_path ~query ~spec in
        if Cuboid_cache.peek t.cache (doc_key skey) <> None then begin
          Metrics.inc t.m_restored_docs;
          ignore (serve_cuboids t entry);
          Metrics.inc ~by:(List.length entry.de_views) t.m_restored_views
        end
      with
      | () -> ()
      | exception e ->
          (* the eviction hook takes any views down with the document *)
          Cuboid_cache.remove t.cache (doc_key skey);
          note_restore_failure t ~what:doc_path
            (match e with
            | Restore_failure (reason, detail) -> (reason, detail)
            | Reply (Protocol.Failed { message; _ }) ->
                ("doc_load_failed", message)
            | e -> ("doc_load_failed", Printexc.to_string e)))
    queries

let restore_snapshot t =
  match t.cfg.snapshot_path with
  | None -> ()
  | Some path ->
      if Sys.file_exists path then begin
        match Warm_store.load ~path with
        | Error msg ->
            note_restore_failure t ~what:"cache" ("snapshot_corrupt", msg)
        | Ok entries -> List.iter (restore_group t) (group_by_doc entries)
      end

let () = restore_hook := restore_snapshot

let handle_request t ~rid ~scope ~info = function
  | Protocol.Ping ->
      info.ri_verb <- "ping";
      Protocol.Pong
  | Protocol.Stats ->
      info.ri_verb <- "stats";
      Protocol.Stats_ok (stats_document t)
  | Protocol.Trace { name } -> (
      info.ri_verb <- "trace";
      try handle_trace t ~name with Reply r -> r)
  | Protocol.Shutdown ->
      info.ri_verb <- "shutdown";
      (* [serve_connection] stops the daemon *after* flushing this
         response — stopping here would race process exit against the
         client reading its Bye. *)
      Protocol.Bye
  | Protocol.Cube
      {
        query;
        doc;
        algorithm;
        format;
        no_cache;
        deadline_ms;
        retries;
        request_id = _;
      } -> (
      info.ri_verb <- "cube";
      try
        handle_cube t ~rid ~scope ~info ~query ~doc ~algorithm ~format
          ~no_cache ~deadline_ms ~retries
      with Reply r -> r)
  | Protocol.Ingest { doc; fragment } -> (
      info.ri_verb <- "ingest";
      info.ri_doc <- Some doc;
      try handle_ingest t ~doc ~fragment with Reply r -> r)

(* --- the accept loop ----------------------------------------------------- *)

let sync_cache_counters t =
  (* Hit/miss counters are bumped at their use sites; evictions happen
     behind the server's back (inside cache inserts), so mirror them into
     the registry by delta after each request. *)
  let evictions = ref 0 in
  fun () ->
    locked t.state_lock (fun () ->
        let current = Cuboid_cache.evictions t.cache in
        let delta = current - !evictions in
        if delta > 0 then Metrics.inc ~by:delta t.m_cache_evictions;
        evictions := current;
        refresh_gauges t)

(* Idempotent, signal-handler safe (no locks): flip the running flag and
   close the listening socket — shutdown first, which reliably wakes a
   thread blocked in accept. The drain and cleanup happen on the [run]
   thread's way out. [/readyz] goes false here (one atomic store), so a
   load balancer stops routing to a draining daemon immediately. *)
let stop t =
  if Atomic.compare_and_set t.running true false then begin
    (match t.http with
    | Some ep -> Http_endpoint.set_ready ep false
    | None -> ());
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* --- per-request accounting ----------------------------------------------- *)

(* How the cuboids were answered, collapsed to the dominant class: any
   base scan makes it a base request; otherwise any rollup; otherwise it
   was served entirely from cache. *)
let provenance_class (p : Protocol.provenance) =
  if p.p_base > 0 then "base"
  else if p.p_rollup > 0 then "rollup"
  else if p.p_cached > 0 then "cached"
  else "base"

let observe_request_latency t ~info ~response seconds =
  Metrics.observe t.m_lat_request seconds;
  Metrics.observe
    (Metrics.histogram t.registry
       (Metrics.labeled "serve.latency.request" [ ("verb", info.ri_verb) ]))
    seconds;
  match response with
  | Protocol.Cube_ok { provenance; _ } ->
      Metrics.observe
        (Metrics.histogram t.registry
           (Metrics.labeled "serve.latency.cube"
              [ ("provenance", provenance_class provenance) ]))
        seconds
  | _ -> ()

let access_record t ~rid ~info ~response ~ts ~seconds ~bytes =
  let outcome, code =
    match response with
    | Protocol.Failed { code; _ } -> ("error", Some code)
    | Protocol.Cube_ok { partial = Some reason; _ } -> ("partial", Some reason)
    | _ -> ("ok", None)
  in
  Json.Obj
    ([
       ("ts", Json.Float ts);
       ("request_id", Json.Str rid);
       ("verb", Json.Str info.ri_verb);
     ]
    @ (match info.ri_doc with
      | None -> []
      | Some doc ->
          [ ("doc_digest", Json.Str (Digest.to_hex (Digest.string doc))) ])
    @ (match info.ri_provenance with
      | None -> []
      | Some p ->
          [
            ("base", Json.Int p.Protocol.p_base);
            ("rollup", Json.Int p.Protocol.p_rollup);
            ("cached", Json.Int p.Protocol.p_cached);
            ("cells", Json.Int info.ri_cells);
          ])
    @ [
        ("bytes", Json.Int bytes);
        ("reserved_bytes", Json.Int (Cuboid_cache.resident_bytes t.cache));
        ("admission_wait_ms", Json.Float (info.ri_admission_wait *. 1000.));
        ("outcome", Json.Str outcome);
      ]
    @ (match code with None -> [] | Some c -> [ ("code", Json.Str c) ])
    @ [ ("duration_ms", Json.Float (seconds *. 1000.)) ])

let io_deadline t =
  Option.map (fun s -> Unix.gettimeofday () +. s) t.cfg.io_deadline

let serve_connection t sync st fd =
  let reply encoded =
    let w0 = Unix.gettimeofday () in
    match
      Protocol.write_frame ?deadline:(io_deadline t) ?fault:t.fault fd encoded
    with
    | Ok () as ok ->
        Metrics.observe t.m_lat_frame_write (Unix.gettimeofday () -. w0);
        ok
    | Error _ as e -> e
  in
  let rec loop () =
    (* Wait out the connection's idle gap before starting the frame
       clock: the frame-read histogram measures the wire, not the
       client's think time between requests. *)
    match Protocol.wait_readable ?deadline:(io_deadline t) fd with
    | Error Protocol.Timed_out -> Metrics.inc t.m_net_timeouts
    | Error _ -> ()
    | Ok () -> (
        let r0 = Unix.gettimeofday () in
        match
          Protocol.read_frame ~max_bytes:t.cfg.max_frame_bytes
            ?deadline:(io_deadline t) ?fault:t.fault fd
        with
        | Error Protocol.Closed -> ()
        | Error Protocol.Timed_out ->
            (* The slow-loris reap: a peer that cannot deliver one frame
               within the socket deadline is cut loose. No response — the
               stream may be mid-frame, so there is no frame boundary to
               speak at. *)
            Metrics.inc t.m_net_timeouts
        | Error (Protocol.Too_large len) ->
            (* Tell the peer, then hang up — the stream is unrecoverable
               (we have not consumed the oversized payload). *)
            ignore
              (reply
                 (Protocol.encode_response
                    (Protocol.Failed
                       {
                         code = "frame_too_large";
                         message =
                           Printf.sprintf "%d-byte frame over the cap" len;
                       })))
        | Error (Protocol.Frame_fault _) -> ()
        | Ok payload ->
        Metrics.observe t.m_lat_frame_read (Unix.gettimeofday () -. r0);
        st.c_busy <- true;
        Metrics.inc t.m_requests;
        let t0 = Unix.gettimeofday () in
        let decoded = Protocol.decode_request payload in
        (* A client-chosen correlation id wins; otherwise the daemon
           assigns one, so every request's trace and log lines share a
           name either way. *)
        let rid =
          match decoded with
          | Ok (Protocol.Cube { request_id = Some id; _ }) -> id
          | _ ->
              Printf.sprintf "r-%06d" (Atomic.fetch_and_add t.req_ids 1)
        in
        (* A scope per request only when slow-query capture is armed:
           scopes cost ring memory, and without a consumer the spans
           would be dropped unread. *)
        let scope =
          match t.cfg.slow_ms with
          | Some _ -> Some (Trace.make_scope ~ring_size:8192 ~id:rid ())
          | None -> None
        in
        let info = new_req_info () in
        let response =
          match decoded with
          | Error msg ->
              Metrics.inc t.m_errors;
              Protocol.Failed { code = "bad_request"; message = msg }
          | Ok req -> (
              Trace.with_scope_opt scope @@ fun () ->
              Trace.with_span "serve.request"
                ~attrs:[ ("request_id", Trace.Str rid) ]
              @@ fun () ->
              match handle_request t ~rid ~scope ~info req with
              | Protocol.Failed _ as r ->
                  Metrics.inc t.m_errors;
                  r
              | r -> r
              | exception e ->
                  Metrics.inc t.m_errors;
                  Protocol.Failed
                    { code = "internal"; message = Printexc.to_string e })
        in
        let seconds = Unix.gettimeofday () -. t0 in
        observe_request_latency t ~info ~response seconds;
        (* The scope is unbound and the compute has returned by now, so
           the dump reads quiescent rings. *)
        (match (scope, t.cfg.slow_ms) with
        | Some scope, Some ms when seconds *. 1000. >= ms ->
            capture_slow t ~rid ~scope ~seconds
        | _ -> ());
        let encoded = Protocol.encode_response response in
        Option.iter
          (fun log ->
            Access_log.write log
              (access_record t ~rid ~info ~response ~ts:t0 ~seconds
                 ~bytes:(String.length encoded)))
          t.access_log;
        sync ();
        let wrote = reply encoded in
        st.c_busy <- false;
        (match response with
        | Protocol.Bye ->
            (* Stop only once the client has its answer (or is provably
               gone): closing the listening socket wakes the accept loop
               and the daemon drains. *)
            stop t
        | _ -> ());
        (match (wrote, response) with
        | Ok (), Protocol.Bye -> ()
        | Ok (), _ ->
            (* A drain in progress wants idle connections gone, not
               re-parked in read_frame. *)
            if Atomic.get t.running then loop ()
        | Error Protocol.Timed_out, _ ->
            (* Slow reader: it asked, but never drained the answer. *)
            Metrics.inc t.m_net_timeouts
        | Error _, _ -> (* dead client; drop the connection *) ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.conn_lock;
      Hashtbl.remove t.conns fd;
      Mutex.unlock t.conn_lock)
    loop

(* --- drained shutdown ----------------------------------------------------- *)

let shutdown_noerr ?(mode = Unix.SHUTDOWN_RECEIVE) fd =
  try Unix.shutdown fd mode with Unix.Unix_error _ -> ()

(* Nudge idle connections: closing their read side makes the parked
   read_frame see EOF, so the thread exits cleanly. Busy connections are
   left alone — their response is what the drain waits for. *)
let shutdown_idle t =
  locked t.conn_lock (fun () ->
      Hashtbl.iter
        (fun _fd st -> if not st.c_busy then shutdown_noerr st.c_fd)
        t.conns)

(* Drain protocol: wait for in-flight requests up to the drain deadline;
   past it, cancel the active compute (its client gets a typed
   cancelled/partial response); past a further grace, sever whatever is
   left so the daemon never hangs on a stuck peer. *)
let drain t =
  let deadline = Unix.gettimeofday () +. t.cfg.drain_deadline in
  let hard = deadline +. 2.0 in
  let abandon = hard +. 3.0 in
  shutdown_idle t;
  let rec wait cancelled severed =
    if live_connections t > 0 then begin
      let now = Unix.gettimeofday () in
      if now > abandon then ()
      else begin
        if now > deadline && not cancelled then begin
          Atomic.set t.shutdown_cancel true;
          shutdown_idle t
        end;
        if now > hard && not severed then
          locked t.conn_lock (fun () ->
              Hashtbl.iter
                (fun _fd st -> shutdown_noerr ~mode:Unix.SHUTDOWN_ALL st.c_fd)
                t.conns);
        Thread.delay 0.005;
        wait (cancelled || now > deadline) (severed || now > hard)
      end
    end
  in
  wait false false

let run t =
  let sync = sync_cache_counters t in
  let rec accept_loop backoff =
    if Atomic.get t.running then begin
      match
        (match t.fault with
        | Some f -> ignore (Net_fault.consult f Net_fault.Accept ~bytes:0 : int)
        | None -> ());
        Unix.accept t.listen_fd
      with
      | client_fd, _addr ->
          (* Non-blocking, so reads and writes can honour the socket
             deadline through select instead of stalling in a syscall. *)
          (try Unix.set_nonblock client_fd with Unix.Unix_error _ -> ());
          let st = { c_fd = client_fd; c_busy = false } in
          locked t.conn_lock (fun () -> Hashtbl.replace t.conns client_fd st);
          ignore
            (Thread.create
               (fun () ->
                 try serve_connection t sync st client_fd
                 with _ -> (
                   (try Unix.close client_fd with _ -> ());
                   Mutex.lock t.conn_lock;
                   Hashtbl.remove t.conns client_fd;
                   Mutex.unlock t.conn_lock))
               ());
          accept_loop 0.05
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          accept_loop backoff
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          (* the listening socket was closed by [stop] *)
          ()
      | exception Unix.Unix_error (e, _, _) ->
          (* Transient accept failure (EMFILE, ENFILE, ENOBUFS, ...):
             shedding the daemon over it would turn a full fd table into
             an outage. Log, back off exponentially, try again. *)
          if Atomic.get t.running then begin
            Metrics.inc t.m_accept_retries;
            Printf.eprintf "x3 serve: accept: %s; retrying in %.2fs\n%!"
              (Unix.error_message e) backoff;
            Thread.delay backoff;
            accept_loop (Float.min 1.0 (backoff *. 2.))
          end
    end
  in
  let finalize () =
    stop t;
    drain t;
    persist_snapshot t;
    Option.iter Http_endpoint.stop t.http;
    Option.iter Access_log.close t.access_log;
    Option.iter Wal.close t.wal;
    match t.cfg.address with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  in
  Fun.protect ~finally:finalize (fun () -> accept_loop 0.05)

(* --- client -------------------------------------------------------------- *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    max_frame : int;
    fault : Net_fault.t option;
  }

  let connect ?(max_frame_bytes = Protocol.default_max_frame_bytes) ?fault
      address =
    let domain, sockaddr =
      match address with
      | Unix_sock path -> (Unix.PF_UNIX, Ok (Unix.ADDR_UNIX path))
      | Tcp (host, port) -> (
          ( Unix.PF_INET,
            match Unix.inet_addr_of_string host with
            | addr -> Ok (Unix.ADDR_INET (addr, port))
            | exception Failure _ -> Error ("bad address: " ^ host) ))
    in
    match sockaddr with
    | Error _ as e -> e
    | Ok sockaddr -> (
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        match Unix.connect fd sockaddr with
        | () -> Ok { fd; max_frame = max_frame_bytes; fault }
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with _ -> ());
            Error (Unix.error_message e))

  let request ?deadline conn req =
    let abs = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
    match
      Protocol.write_frame ?deadline:abs ?fault:conn.fault conn.fd
        (Protocol.encode_request req)
    with
    | Error e -> Error (Protocol.frame_error_message e)
    | Ok () -> (
        match
          Protocol.read_frame ~max_bytes:conn.max_frame ?deadline:abs
            ?fault:conn.fault conn.fd
        with
        | Error e -> Error (Protocol.frame_error_message e)
        | Ok payload -> Protocol.decode_response payload)

  let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

  (* splitmix64 jitter, seeded: retry schedules are test inputs too. *)
  let draw state =
    let z = Int64.add !state 0x9E3779B97F4A7C15L in
    state := z;
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

  (* One connection per attempt: the failures worth retrying (connection
     refused while the daemon restarts, Closed from a dropped connection,
     a typed retryable error like "rejected" or "shutting_down") all
     leave the old connection useless. Backoff doubles per attempt with
     jitter in [0.5, 1.5) so a thundering herd of retrying clients
     spreads out. *)
  let request_with_retry ?(retries = 3) ?(backoff = 0.05) ?(seed = 0)
      ?max_frame_bytes ?fault ?deadline address req =
    let state = ref (Int64.of_int (seed lxor 0x9E3779B9)) in
    let attempt_once () =
      match connect ?max_frame_bytes ?fault address with
      | Error _ as e -> e
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> close conn)
            (fun () -> request ?deadline conn req)
    in
    let rec go n delay =
      let result = attempt_once () in
      let retryable =
        match result with
        | Ok (Protocol.Failed { code; _ }) -> Protocol.retryable_error code
        | Ok _ -> false
        | Error _ -> true
      in
      if retryable && n < retries then begin
        Unix.sleepf (delay *. (0.5 +. draw state));
        go (n + 1) (delay *. 2.)
      end
      else result
    in
    go 0 backoff
end
