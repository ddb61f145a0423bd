(* The file seam the WAL and the snapshot store write through. See the
   .mli. *)

type event = Write of int | Sync | Rename | Sync_dir of string
type verdict = Proceed | Torn of int

let injector : (event -> verdict) option ref = ref None
let set_injector f = injector := f
let fire event = match !injector with None -> Proceed | Some f -> f event

let write fd ~at data =
  let len =
    match fire (Write (String.length data)) with
    | Proceed -> String.length data
    | Torn n -> max 0 (min n (String.length data))
  in
  ignore (Unix.LargeFile.lseek fd (Int64.of_int at) Unix.SEEK_SET);
  let rec go off =
    if off < len then go (off + Unix.write_substring fd data off (len - off))
  in
  go 0

let fsync fd =
  ignore (fire Sync : verdict);
  Unix.fsync fd

let rename src dst =
  ignore (fire Rename : verdict);
  Sys.rename src dst

let sync_dir path =
  ignore (fire (Sync_dir path) : verdict);
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Some filesystems refuse fsync on a directory fd (EINVAL);
             there is nothing further to do there. *)
          try Unix.fsync fd with Unix.Unix_error _ -> ())
