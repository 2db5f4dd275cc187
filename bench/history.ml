(* Perf-regression tracking over BENCH_results.json.

   [append] folds one results file into BENCH_history.json — an
   append-only log of headline metrics keyed by git revision — and
   [regress] compares a fresh results file against the most recent
   baseline entry with tolerance bands.

   Every headline is a virtual-time metric (simulated latencies,
   speedup ratios, goodput), deterministic for a given seed, so a drift
   beyond the band is a real regression and fails the check, and so
   does a headline missing from the results (a renamed row must not
   switch the gate off). Host cost is measured by perfbench/, not
   here. *)

module Minijson = Ash_util.Minijson

let schema = "ashs-bench-history/1"

type metric = {
  m_key : string;  (* stable id used in history entries *)
  m_tol : float;  (* allowed fractional drift vs baseline *)
  m_extract : Minijson.t -> float option;  (* from a results document *)
}

(* -- Extraction from the results document ------------------------------ *)

let table_row results ~table ~label =
  match Minijson.(mem "tables" results) with
  | None -> None
  | Some tables ->
    (match Minijson.mem table tables with
     | None -> None
     | Some t ->
       (match Minijson.mem "rows" t with
        | Some (Minijson.List rows) ->
          List.find_map
            (fun r ->
               match Minijson.mem "label" r with
               | Some (Minijson.Str l) when String.trim l = label ->
                 Option.bind (Minijson.mem "measured" r) Minijson.to_float
               | _ -> None)
            rows
        | _ -> None))

(* The headline set: one representative per subsystem the benchmarks
   exercise. Row labels are matched after trimming the report's column
   padding. *)
let headline =
  [
    {
      m_key = "exp_scale.rtt_p50_us.1024conns";
      m_tol = 0.05;
      m_extract =
        (fun r ->
          table_row r ~table:"exp_scale" ~label:"1024 conns | echo rtt p50");
    };
    {
      m_key = "exp_multicore.speedup_4core";
      m_tol = 0.05;
      m_extract =
        (fun r ->
          table_row r ~table:"exp_multicore" ~label:"4-core server | speedup vs 1");
    };
    {
      m_key = "exp_mq.goodput_5pct_loss";
      m_tol = 0.05;
      m_extract =
        (fun r -> table_row r ~table:"exp_mq" ~label:"goodput | 5% loss");
    };
    {
      m_key = "exp_mq.failover_blackout_ms";
      m_tol = 0.05;
      m_extract =
        (fun r -> table_row r ~table:"exp_mq" ~label:"failover | blackout");
    };
  ]

let extract results =
  List.filter_map
    (fun m ->
       match m.m_extract results with
       | Some v -> Some (m.m_key, v)
       | None -> None)
    headline

let results_rev results =
  match
    Option.bind
      (Option.bind (Minijson.mem "meta" results) (Minijson.mem "git_rev"))
      Minijson.to_string
  with
  | Some r when r <> "" -> r
  | _ -> "unknown"

(* -- History file ------------------------------------------------------ *)

type entry = {
  e_rev : string;
  e_at : string;  (* UTC timestamp, informative only *)
  e_metrics : (string * float) list;
}

let max_entries = 200

let parse_entry v =
  let str k =
    match Option.bind (Minijson.mem k v) Minijson.to_string with
    | Some s -> s
    | None -> ""
  in
  let metrics =
    match Option.bind (Minijson.mem "metrics" v) Minijson.to_obj with
    | Some fields ->
      List.filter_map
        (fun (k, f) ->
           match Minijson.to_float f with
           | Some x -> Some (k, x)
           | None -> None)
        fields
    | None -> []
  in
  { e_rev = str "git_rev"; e_at = str "recorded_at"; e_metrics = metrics }

let load_history path =
  if not (Sys.file_exists path) then []
  else
    match Minijson.parse_file path with
    | exception _ -> []
    | doc ->
      (match Option.bind (Minijson.mem "entries" doc) Minijson.to_list with
       | Some entries -> List.map parse_entry entries
       | None -> [])

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

let write_history path entries =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"%s\",\n" schema;
  add "  \"entries\": [\n";
  List.iteri
    (fun i e ->
       add "    {\"git_rev\": \"%s\", \"recorded_at\": \"%s\", \"metrics\": {"
         (json_escape e.e_rev) (json_escape e.e_at);
       List.iteri
         (fun j (k, v) ->
            add "%s\"%s\": %s"
              (if j = 0 then "" else ", ")
              (json_escape k) (Minijson.number v))
         e.e_metrics;
       add "}}%s\n" (if i = List.length entries - 1 then "" else ","))
    entries;
  add "  ]\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Fold a results file into the history: one entry per revision, and
   the log keeps the newest [max_entries]. A re-run of the same revision
   merges its headline values into that revision's entry, so a partial
   run (say `main.exe table1`) keeps the values an earlier full run
   recorded instead of replacing them with nothing; results holding no
   headline leave the history untouched. *)
let append ~results_path ~history_path =
  let results = Minijson.parse_file results_path in
  match extract results with
  | [] -> None
  | metrics ->
    let rev = results_rev results in
    let history = load_history history_path in
    let earlier =
      match List.find_opt (fun e -> e.e_rev = rev) history with
      | Some e ->
        List.filter (fun (k, _) -> not (List.mem_assoc k metrics)) e.e_metrics
      | None -> []
    in
    let entry =
      { e_rev = rev; e_at = utc_now (); e_metrics = earlier @ metrics }
    in
    let entries =
      List.filter (fun e -> e.e_rev <> rev) history @ [ entry ]
    in
    let entries =
      let n = List.length entries in
      if n > max_entries then
        List.filteri (fun i _ -> i >= n - max_entries) entries
      else entries
    in
    write_history history_path entries;
    Some entry

(* -- Regression check -------------------------------------------------- *)

type status = Pass | Warn | Fail

type check = {
  c_key : string;
  c_tol : float;
  c_base : float option;
  c_now : float option;
  c_status : status;
  c_note : string;
}

type report = {
  r_baseline_rev : string;
  r_current_rev : string;
  r_checks : check list;
  r_ok : bool;  (* no Fail *)
}

(* Baseline = the newest entry recorded for a different revision, so a
   re-run of HEAD compares against the last landed state rather than
   against itself; with a single-revision history the sole entry serves
   (the check then degenerates to run-to-run stability). *)
let pick_baseline entries ~rev =
  let others = List.filter (fun e -> e.e_rev <> rev) entries in
  match List.rev others with
  | b :: _ -> Some b
  | [] -> (match List.rev entries with b :: _ -> Some b | [] -> None)

(* A headline missing from the results fails: every headline is
   deterministic, so its absence means a renamed row or a dropped
   experiment. A missing baseline only warns, so a newly added headline
   passes until its first history entry lands. *)
let check_metric ~baseline m now_v =
  let base_v = List.assoc_opt m.m_key baseline.e_metrics in
  match (base_v, now_v) with
  | _, None ->
    { c_key = m.m_key; c_tol = m.m_tol; c_base = base_v; c_now = None;
      c_status = Fail; c_note = "missing from results" }
  | None, Some _ ->
    { c_key = m.m_key; c_tol = m.m_tol; c_base = None; c_now = now_v;
      c_status = Warn; c_note = "no baseline value" }
  | Some b, Some n ->
    let drift =
      if Float.abs b > 1e-12 then Float.abs (n -. b) /. Float.abs b
      else Float.abs (n -. b)
    in
    let note = Printf.sprintf "drift %.1f%% (band %.0f%%)"
        (100. *. drift) (100. *. m.m_tol)
    in
    { c_key = m.m_key; c_tol = m.m_tol; c_base = Some b; c_now = Some n;
      c_status = (if drift <= m.m_tol then Pass else Fail); c_note = note }

let regress ~results_path ~history_path =
  if not (Sys.file_exists results_path) then
    Error (Printf.sprintf "no results file at %s" results_path)
  else if not (Sys.file_exists history_path) then
    Error (Printf.sprintf "no history file at %s (run the bench harness \
                           or `history append` first)" history_path)
  else
    match Minijson.parse_file results_path with
    | exception Minijson.Parse_error { pos; msg } ->
      Error (Printf.sprintf "%s: parse error at %d: %s" results_path pos msg)
    | results ->
      let rev = results_rev results in
      let entries = load_history history_path in
      (match pick_baseline entries ~rev with
       | None -> Error (Printf.sprintf "%s has no entries" history_path)
       | Some baseline ->
         let checks =
           List.map
             (fun m ->
                check_metric ~baseline m (m.m_extract results))
             headline
         in
         Ok
           {
             r_baseline_rev = baseline.e_rev;
             r_current_rev = rev;
             r_checks = checks;
             r_ok =
               not (List.exists (fun c -> c.c_status = Fail) checks);
           })

let status_label = function
  | Pass -> "ok"
  | Warn -> "warn"
  | Fail -> "FAIL"

let print_report ppf r =
  let short s = if String.length s > 12 then String.sub s 0 12 else s in
  Format.fprintf ppf "regression check: %s vs baseline %s@."
    (short r.r_current_rev) (short r.r_baseline_rev);
  List.iter
    (fun c ->
       let v = function Some f -> Printf.sprintf "%.4g" f | None -> "-" in
       Format.fprintf ppf "  %-4s %-34s base %-12s now %-12s %s@."
         (status_label c.c_status) c.c_key (v c.c_base) (v c.c_now) c.c_note)
    r.r_checks;
  Format.fprintf ppf "  => %s@." (if r.r_ok then "pass" else "FAIL")
