(* Benchmark driver.

   `dune exec bench/main.exe` regenerates every evaluation figure of the
   paper (Figs. 4-10 plus the §4.4 scaling comparison) at a scaled-down
   input size, then optionally runs the substrate micro-benchmarks. See
   EXPERIMENTS.md for the paper-vs-measured record. *)

let run_figures ppf ~scale ~cutoff ~only =
  let sweeps = Figures.all ~scale ~cutoff in
  let selected =
    match only with
    | [] -> sweeps
    | names -> List.filter (fun (key, _) -> List.mem key names) sweeps
  in
  let progress msg = Printf.eprintf "[bench] %s\n%!" msg in
  let results =
    List.map
      (fun (key, sweep) ->
        let figure = Harness.run_sweep ~progress sweep in
        Harness.print_figure ppf figure;
        Format.pp_print_flush ppf ();
        (key, figure))
      selected
  in
  match (List.assoc_opt "fig4" results, List.assoc_opt "fig5" results) with
  | Some f4, Some f5 -> Figures.print_scaling ppf f4 f5
  | _ -> ()

let main scale cutoff only skip_figures skip_ablations skip_micro =
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "X^3 cube benchmarks — reproducing Wiwatwattana et al., ICDE 2007, \
     figures 4-10.@.scale=%d (inputs are 1/10 of the paper's at scale 1), \
     per-run cutoff=%.0fs@."
    scale cutoff;
  if not skip_figures then run_figures ppf ~scale ~cutoff ~only;
  if not skip_ablations then Ablations.run ppf ~scale;
  if not skip_micro then Micro.run ppf;
  Format.pp_print_flush ppf ()

open Cmdliner

let scale =
  let doc =
    "Input scale factor: 1 means 10^3 trees for Fig. 4, 10^4 for Figs. \
     5-9, 2*10^4 DBLP articles for Fig. 10 (each one tenth of the paper's \
     sizes). 10 reproduces the paper's sizes."
  in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc)

let cutoff =
  let doc =
    "Per-run cutoff in seconds: an algorithm exceeding it at some axis \
     count is marked DNF for larger ones, like the curves that stop early \
     in the paper's figures."
  in
  Arg.(value & opt float 30.0 & info [ "cutoff" ] ~docv:"SECONDS" ~doc)

let only =
  let doc =
    "Run only the named figures (comma-separated: fig4,...,fig10). Default: \
     all."
  in
  Arg.(value & opt (list string) [] & info [ "only" ] ~docv:"FIGS" ~doc)

let skip_figures =
  let doc = "Skip the figure sweeps (useful with --micro)." in
  Arg.(value & flag & info [ "skip-figures" ] ~doc)

let skip_ablations =
  let doc = "Skip the COUNTER-budget ablation sweep." in
  Arg.(value & flag & info [ "skip-ablations" ] ~doc)

let skip_micro =
  let doc = "Skip the bechamel micro-benchmarks of the substrate." in
  Arg.(value & flag & info [ "skip-micro" ] ~doc)

let cmd =
  let doc = "Reproduce the X^3 (ICDE 2007) evaluation figures" in
  Cmd.v
    (Cmd.info "x3-bench" ~doc)
    Term.(
      const main $ scale $ cutoff $ only $ skip_figures $ skip_ablations
      $ skip_micro)

let () = exit (Cmd.eval cmd)
