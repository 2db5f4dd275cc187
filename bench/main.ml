(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (paper-vs-measured). Every number it prints is
   simulated (virtual time), so two runs print the same text; the
   host-side cost of the simulation is measured by perfbench/.

   Usage:
     main.exe                 run everything
     main.exe table5 fig3     run selected experiments
     main.exe --markdown      additionally dump Markdown for EXPERIMENTS.md
     main.exe --no-json       don't write BENCH_results.json *)

module Core = Ash_core
module Report = Core.Report

let experiments : (string * (unit -> Report.table)) list =
  [
    ("table1", Core.Exp_raw.table1);
    ("fig3", Core.Exp_raw.fig3);
    ("table2", Core.Exp_proto.table2);
    ("table3", Core.Exp_memory.table3);
    ("table4", Core.Exp_ilp.table4);
    ("table5", Core.Exp_ash.table5);
    ("table6", Core.Exp_tcp.table6);
    ("fig4", Core.Exp_sched.fig4);
    ("sandbox", Core.Exp_sandbox.section_vd);
    ("dpf", Core.Exp_ablate.dpf);
    ("demux", Core.Exp_ablate.demux_scaling);
    ("dilp-scaling", Core.Exp_ilp.dilp_scaling);
    ("striped", Core.Exp_ablate.striped);
    ("absint", Core.Exp_ablate.absint);
    ("chaos", fun () -> Core.Exp_chaos.chaos ());
    ("exp_scale", Core.Exp_scale.scale);
    ("exp_multicore", Core.Exp_multicore.multicore);
    ("exp_mq", Core.Exp_mq.mq);
  ]

(* -- BENCH_results.json ------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = Printf.sprintf "%.6g" f

(* Run metadata: the revision keys the history entry; shards and jobs
   record the execution mapping (tables are identical at any jobs). *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when rev <> "" -> rev
     | _ -> "unknown")
  with _ -> "unknown"

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let write_results_json ~path ~tables =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"ashs-bench-results/1\",\n";
  add "  \"meta\": {\"shards\": %d, \"jobs\": %d, \"git_rev\": \"%s\"},\n"
    (env_int "ASH_SHARDS" 1) (env_int "ASH_JOBS" 1)
    (json_escape (git_rev ()));
  add "  \"tables\": {\n";
  List.iteri
    (fun i (id, (t : Report.table)) ->
       add "    \"%s\": {\n" (json_escape id);
       add "      \"title\": \"%s\",\n" (json_escape t.Report.title);
       add "      \"rows\": [\n";
       List.iteri
         (fun j (r : Report.row) ->
            add "        {\"label\": \"%s\", \"paper\": %s, \"measured\": %s, \
                 \"unit\": \"%s\", \"deviation\": %s}%s\n"
              (json_escape r.Report.label)
              (match r.Report.paper with
               | Some p -> json_float p
               | None -> "null")
              (json_float r.Report.measured)
              (json_escape r.Report.unit_)
              (match Report.deviation r with
               | Some d -> json_float d
               | None -> "null")
              (if j = List.length t.Report.rows - 1 then "" else ","))
         t.Report.rows;
       add "      ]\n";
       add "    }%s\n" (if i = List.length tables - 1 then "" else ","))
    tables;
  add "  }\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "@.results written to %s@." path

let flags = [ "--markdown"; "--no-json" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let given, selected = List.partition (String.starts_with ~prefix:"--") args in
  List.iter
    (fun a ->
       if not (List.mem a flags) then begin
         Format.eprintf "unknown flag %S (have: %s)@." a
           (String.concat ", " flags);
         exit 2
       end)
    given;
  let markdown = List.mem "--markdown" given in
  let no_json = List.mem "--no-json" given in
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun id ->
           match List.assoc_opt id experiments with
           | Some f -> Some (id, f)
           | None ->
             Format.eprintf "unknown experiment %S (have: %s)@." id
               (String.concat ", " (List.map fst experiments));
             exit 2)
        selected
  in
  Format.printf
    "ASHs reproduction benchmark harness — %d experiment(s)@."
    (List.length to_run);
  let tables =
    List.map
      (fun (id, f) ->
         let table = f () in
         Format.printf "%a" Report.print table;
         (id, table))
      to_run
  in
  if markdown then begin
    Format.printf "@.--- markdown ---@.";
    List.iter (fun (_, t) -> print_string (Report.to_markdown t)) tables
  end;
  if not no_json then begin
    write_results_json ~path:"BENCH_results.json" ~tables;
    (* Fold the headline metrics into the revision-keyed history so
       `ashbench regress` has a baseline to compare future runs against. *)
    match
      Ash_bench.History.append ~results_path:"BENCH_results.json"
        ~history_path:"BENCH_history.json"
    with
    | Some entry ->
      Format.printf "history entry recorded for %s (%d metric(s))@."
        entry.Ash_bench.History.e_rev
        (List.length entry.Ash_bench.History.e_metrics)
    | None -> Format.printf "no headline metric in results; history unchanged@."
  end
