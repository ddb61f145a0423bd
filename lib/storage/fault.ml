(* Deterministic fault injection over a Disk or the File_io seam.

   A plan is a set of rules consulted on every operation (via
   Disk.set_injector or File_io.set_injector): fail the Nth
   read/write/sync/allocate, inject seeded pseudo-random transient
   errors, or "crash" — after the Nth operation every subsequent one
   raises and the pre-crash media image is what recovery sees. Plans
   carry their own op counters, so a fresh plan replays identically:
   fault schedules are part of a test's inputs, not its environment. *)

type error_class = Read_error | Write_error | Sync_error | Enospc

exception Injected of { cls : error_class; page : int }
exception Crashed

let () =
  Printexc.register_printer (function
    | Injected { cls; page } ->
        let name =
          match cls with
          | Read_error -> "read"
          | Write_error -> "write"
          | Sync_error -> "sync"
          | Enospc -> "enospc"
        in
        Some (Printf.sprintf "Fault.Injected(%s, page %d)" name page)
    | Crashed -> Some "Fault.Crashed"
    | _ -> None)

type rule =
  | Fail_nth of { cls : error_class; n : int }
  | Crash_after of { n : int; torn : int option }
  | Seeded of { classes : error_class list; rate : float; mutable state : int64 }

type t = {
  rules : rule list;
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable allocs : int;
  mutable ops : int;
  mutable crashed : bool;
  mutable injected : int;
}

let of_rules rules =
  { rules; reads = 0; writes = 0; syncs = 0; allocs = 0; ops = 0;
    crashed = false; injected = 0 }

let fail_nth cls n =
  if n < 1 then invalid_arg "Fault.fail_nth: n must be >= 1";
  of_rules [ Fail_nth { cls; n } ]

let fail_nth_read n = fail_nth Read_error n
let fail_nth_write n = fail_nth Write_error n
let fail_nth_sync n = fail_nth Sync_error n
let enospc_on_allocate n = fail_nth Enospc n

let crash_after ?torn n =
  if n < 0 then invalid_arg "Fault.crash_after: n must be >= 0";
  of_rules [ Crash_after { n; torn } ]

let seeded ~seed ~rate classes =
  if rate < 0. || rate > 1. then invalid_arg "Fault.seeded: rate in [0,1]";
  of_rules [ Seeded { classes; rate; state = Int64.of_int (seed lxor 0x9E3779B9) } ]

let combine plans = of_rules (List.concat_map (fun p -> p.rules) plans)

let crashed t = t.crashed
let injected_faults t = t.injected

(* splitmix64: one 64-bit draw per matching event, fully determined by the
   seed and the event sequence. *)
let draw st =
  let z = Int64.add st.contents 0x9E3779B97F4A7C15L in
  st := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

(* Both injection points reduce to one operation kind (and a page id,
   [-1] where there is none). *)
let class_matches cls kind =
  match (cls, kind) with
  | Read_error, `Read | Write_error, `Write | Sync_error, `Sync
  | Enospc, `Allocate ->
      true
  | _ -> false

let inject t cls ~page =
  t.injected <- t.injected + 1;
  raise (Injected { cls; page })

let handle t kind ~page =
  if t.crashed then raise Crashed;
  t.ops <- t.ops + 1;
  let count =
    match kind with
    | `Read -> t.reads <- t.reads + 1; t.reads
    | `Write -> t.writes <- t.writes + 1; t.writes
    | `Sync -> t.syncs <- t.syncs + 1; t.syncs
    | `Allocate -> t.allocs <- t.allocs + 1; t.allocs
    | `Rename -> 0 (* no error class targets a rename *)
  in
  let verdict = ref File_io.Proceed in
  List.iter
    (fun rule ->
      match rule with
      | Fail_nth { cls; n } ->
          if class_matches cls kind && count = n then inject t cls ~page
      | Crash_after { n; torn } ->
          if t.ops = n + 1 then begin
            (* The crashing operation: a torn write keeps its first bytes,
               anything else never happens; nothing after it reaches the
               media. *)
            t.crashed <- true;
            match (kind, torn) with
            | `Write, Some k -> verdict := File_io.Torn k
            | _ -> raise Crashed
          end
      | Seeded s ->
          List.iter
            (fun cls ->
              if class_matches cls kind then begin
                let st = ref s.state in
                let x = draw st in
                s.state <- !st;
                if x < s.rate then inject t cls ~page
              end)
            s.classes)
    t.rules;
  !verdict

let install t disk =
  Disk.set_injector disk
    (Some
       (function
       | Disk.Read p -> handle t `Read ~page:p
       | Disk.Write p -> handle t `Write ~page:p
       | Disk.Sync -> handle t `Sync ~page:(-1)
       | Disk.Allocate -> handle t `Allocate ~page:(-1)))

let clear disk = Disk.set_injector disk None

let install_files t =
  File_io.set_injector
    (Some
       (fun event ->
         let kind =
           match event with
           | File_io.Write _ -> `Write
           | File_io.Sync | File_io.Sync_dir _ -> `Sync
           | File_io.Rename -> `Rename
         in
         handle t kind ~page:(-1)))

let clear_files () = File_io.set_injector None
