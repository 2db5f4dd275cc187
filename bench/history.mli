(** Perf-regression tracking: fold BENCH_results.json into an
    append-only BENCH_history.json keyed by git revision, and compare a
    fresh results file against the recorded baseline with per-metric
    tolerance bands. *)

type metric = {
  m_key : string;
  m_tol : float;  (** allowed fractional drift vs baseline *)
  m_extract : Ash_util.Minijson.t -> float option;
}

val headline : metric list
(** The tracked set, all virtual-time: scale-suite p50, multicore
    speedup, MQ goodput at 5% loss and failover blackout. *)

val extract : Ash_util.Minijson.t -> (string * float) list
(** Headline metrics present in a parsed results document. *)

type entry = {
  e_rev : string;
  e_at : string;
  e_metrics : (string * float) list;
}

val load_history : string -> entry list
(** Entries of a history file, oldest first; [[]] when absent or
    unreadable. *)

val append : results_path:string -> history_path:string -> entry option
(** Fold the results file into the history file (creating it if
    needed): one entry per revision, keeping the newest 200. A re-run of
    the same revision merges its headline values into that revision's
    entry, so values the run lacks keep their earlier ones. Returns the
    entry written, or [None] when the results hold no headline (the
    history is then left untouched). Raises on an unreadable results
    file. *)

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
  r_ok : bool;  (** no check failed *)
}

val regress :
  results_path:string -> history_path:string -> (report, string) result
(** Compare results against the newest history entry from a different
    revision (falling back to the newest entry). A headline outside its
    band or missing from the results fails; one with no baseline value
    warns. [Error] carries a human-readable reason (missing file, empty
    history, parse error). *)

val print_report : Format.formatter -> report -> unit
