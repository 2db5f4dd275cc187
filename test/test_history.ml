(* `ashbench regress` semantics over temp files: a headline inside its
   band passes, one outside it fails, one missing from the results
   fails (a renamed row must not switch the gate off), and one with no
   baseline value only warns. `History.append`: a partial run merges
   into its revision's entry, and a run with no headline writes
   nothing. *)

module History = Ash_bench.History

(* (table, row label, key in history, value) for each headline. *)
let headlines =
  [
    ("exp_scale", "1024 conns | echo rtt p50", "exp_scale.rtt_p50_us.1024conns",
     1404.67);
    ("exp_multicore", "4-core server | speedup vs 1",
     "exp_multicore.speedup_4core", 3.12485);
    ("exp_mq", "goodput | 5% loss", "exp_mq.goodput_5pct_loss", 1.35109);
    ("exp_mq", "failover | blackout", "exp_mq.failover_blackout_ms", 14.5727);
  ]

let write_temp contents =
  let path = Filename.temp_file "ash_history" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

(* A results document in the shape bench/main.exe writes, holding the
   given (table, label, value) rows; row labels carry the report's
   column padding, which extraction trims. *)
let results_doc rows =
  let tables =
    List.sort_uniq compare (List.map (fun (t, _, _) -> t) rows)
    |> List.map (fun table ->
        let rs =
          List.filter_map
            (fun (t, label, v) ->
               if t = table then
                 Some
                   (Printf.sprintf "{\"label\": \"%-40s\", \"measured\": %g}"
                      label v)
               else None)
            rows
        in
        Printf.sprintf "\"%s\": {\"title\": \"t\", \"rows\": [%s]}" table
          (String.concat ", " rs))
  in
  Printf.sprintf
    "{\"meta\": {\"git_rev\": \"current\"}, \"tables\": {%s}}"
    (String.concat ", " tables)

let history_doc metrics =
  Printf.sprintf
    "{\"entries\": [{\"git_rev\": \"base\", \"recorded_at\": \"\", \
     \"metrics\": {%s}}]}"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %g" k v) metrics))

let baseline = List.map (fun (_, _, k, v) -> (k, v)) headlines

(* Run regress on [rows] against [base]; return the report. *)
let regress ~rows ~base =
  let results_path = write_temp (results_doc rows) in
  let history_path = write_temp (history_doc base) in
  let r = History.regress ~results_path ~history_path in
  Sys.remove results_path;
  Sys.remove history_path;
  match r with
  | Ok report -> report
  | Error msg -> Alcotest.failf "regress: %s" msg

let status_of report key =
  match
    List.find_opt (fun c -> c.History.c_key = key) report.History.r_checks
  with
  | Some c -> c.History.c_status
  | None -> Alcotest.failf "no check for %s" key

let status =
  Alcotest.testable
    (fun ppf s ->
       Format.pp_print_string ppf
         (match s with
          | History.Pass -> "pass"
          | History.Warn -> "warn"
          | History.Fail -> "fail"))
    ( = )

let rows_with f = List.map (fun (t, l, k, v) -> (t, l, f k v)) headlines

let test_within_band_passes () =
  (* 1% drift on every headline: inside each 5% band. *)
  let report = regress ~rows:(rows_with (fun _ v -> v *. 1.01)) ~base:baseline in
  List.iter
    (fun (k, _) -> Alcotest.check status k History.Pass (status_of report k))
    baseline;
  Alcotest.(check bool) "report passes" true report.History.r_ok

let test_drift_beyond_band_fails () =
  let rows =
    rows_with (fun k v ->
        if k = "exp_mq.goodput_5pct_loss" then v *. 1.10 else v)
  in
  let report = regress ~rows ~base:baseline in
  Alcotest.check status "drifted headline" History.Fail
    (status_of report "exp_mq.goodput_5pct_loss");
  Alcotest.check status "untouched headline" History.Pass
    (status_of report "exp_scale.rtt_p50_us.1024conns");
  Alcotest.(check bool) "report fails" false report.History.r_ok

let test_missing_headline_fails () =
  (* As if the row had been renamed: the results lack it entirely. *)
  let rows =
    List.filter_map
      (fun (t, l, k, v) ->
         if k = "exp_multicore.speedup_4core" then None else Some (t, l, v))
      headlines
  in
  let report = regress ~rows ~base:baseline in
  Alcotest.check status "missing headline" History.Fail
    (status_of report "exp_multicore.speedup_4core");
  Alcotest.(check bool) "report fails" false report.History.r_ok

let test_no_baseline_warns () =
  (* A newly added headline has no value in the recorded baseline. *)
  let base =
    List.filter (fun (k, _) -> k <> "exp_mq.failover_blackout_ms") baseline
  in
  let report = regress ~rows:(rows_with (fun _ v -> v)) ~base in
  Alcotest.check status "no baseline value" History.Warn
    (status_of report "exp_mq.failover_blackout_ms");
  Alcotest.(check bool) "report passes" true report.History.r_ok

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Append [rows] (recorded as revision "current") to [history_path]. *)
let append ~rows ~history_path =
  let results_path = write_temp (results_doc rows) in
  let entry = History.append ~results_path ~history_path in
  Sys.remove results_path;
  entry

let metrics_of_rev history_path rev =
  match
    List.find_opt (fun e -> e.History.e_rev = rev)
      (History.load_history history_path)
  with
  | Some e -> List.sort compare e.History.e_metrics
  | None -> Alcotest.failf "no history entry for %s" rev

let metrics = Alcotest.(list (pair string (float 1e-9)))

let test_partial_run_keeps_earlier_values () =
  let history_path = write_temp (history_doc baseline) in
  ignore (append ~rows:(rows_with (fun _ v -> v)) ~history_path);
  (* A later run of the same revision that only covers exp_mq, with a
     moved goodput. *)
  let mq_only =
    List.filter_map
      (fun (t, l, k, v) ->
         if t <> "exp_mq" then None
         else if k = "exp_mq.goodput_5pct_loss" then Some (t, l, v *. 2.)
         else Some (t, l, v))
      headlines
  in
  (match append ~rows:mq_only ~history_path with
   | Some e ->
     Alcotest.(check int) "entry keeps all headlines" (List.length headlines)
       (List.length e.History.e_metrics)
   | None -> Alcotest.fail "partial run wrote no entry");
  let expected =
    List.map
      (fun (k, v) -> if k = "exp_mq.goodput_5pct_loss" then (k, v *. 2.) else (k, v))
      baseline
    |> List.sort compare
  in
  Alcotest.check metrics "merged entry" expected
    (metrics_of_rev history_path "current");
  Alcotest.check metrics "other revision untouched"
    (List.sort compare baseline) (metrics_of_rev history_path "base");
  Sys.remove history_path

let test_empty_run_leaves_history_unchanged () =
  let history_path = write_temp (history_doc baseline) in
  ignore (append ~rows:(rows_with (fun _ v -> v)) ~history_path);
  let before = read_file history_path in
  (match append ~rows:[] ~history_path with
   | None -> ()
   | Some _ -> Alcotest.fail "a run with no headline wrote an entry");
  Alcotest.(check string) "history file" before (read_file history_path);
  Sys.remove history_path

let () =
  Alcotest.run "history"
    [
      ( "regress",
        [
          Alcotest.test_case "within band passes" `Quick
            test_within_band_passes;
          Alcotest.test_case "drift beyond band fails" `Quick
            test_drift_beyond_band_fails;
          Alcotest.test_case "missing headline fails" `Quick
            test_missing_headline_fails;
          Alcotest.test_case "no baseline warns" `Quick test_no_baseline_warns;
        ] );
      ( "append",
        [
          Alcotest.test_case "partial run keeps the earlier values" `Quick
            test_partial_run_keeps_earlier_values;
          Alcotest.test_case "empty run leaves history unchanged" `Quick
            test_empty_run_leaves_history_unchanged;
        ] );
    ]
