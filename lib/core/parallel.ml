(* Domain-based worker pool for COUNTER's partition/merge plan.

   The unit of parallelism is deliberately coarse and static: [run]
   partitions task indices into contiguous per-worker ranges rather than
   work-stealing from a shared queue. Static ranges keep every run
   deterministic — worker [w] always processes the same tasks in the same
   order, so per-worker partial aggregates merge in a fixed order and the
   exported cube is byte-identical at every worker count (see the
   determinism cross-check in the tests). Fact blocks are numerous and
   similarly sized, so the load-balance cost of static ranges is small. *)

let auto_workers = 0

let recommended () = Domain.recommended_domain_count ()

let resolve workers = if workers <= 0 then recommended () else workers

let chunk ~workers ~tasks w =
  (w * tasks / workers, ((w + 1) * tasks / workers) - 1)

let run ~workers ~tasks ~init ~body =
  if tasks < 0 then invalid_arg "Parallel.run: negative task count";
  let workers = max 1 (min workers tasks) in
  if workers <= 1 then begin
    let state = init 0 in
    for i = 0 to tasks - 1 do
      body state i
    done;
    [| state |]
  end
  else begin
    (* Spawned domains start unbound: capture the forking thread's trace
       scope here and re-bind it inside each worker, so a request-scoped
       trace keeps its worker spans (and an unscoped run stays on the
       global scope exactly as before). *)
    let scope = X3_obs.Trace.current_scope () in
    let work w () =
      let lo, hi = chunk ~workers ~tasks w in
      X3_obs.Trace.with_scope_opt scope @@ fun () ->
      X3_obs.Trace.with_span "worker"
        ~attrs:
          [
            ("worker", X3_obs.Trace.Int w);
            ("tasks", X3_obs.Trace.Int (hi - lo + 1));
          ]
        (fun () ->
          let state = init w in
          for i = lo to hi do
            body state i
          done;
          state)
    in
    let domains =
      Array.init (workers - 1) (fun w -> Domain.spawn (work (w + 1)))
    in
    (* The calling domain is worker 0; join the helpers even if it raises,
       so no domain outlives the call. *)
    let first = try Ok (work 0 ()) with e -> Error e in
    let rest =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
    in
    let states =
      Array.init workers (fun w ->
          match if w = 0 then first else rest.(w - 1) with
          | Ok s -> s
          | Error e -> raise e)
    in
    states
  end
