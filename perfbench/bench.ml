(* The repository benchmark: host cost per simulated message.

   One process runs one workload. It builds the workload's simulated
   system, runs a warm-up prefix of ops, then times ops in a closed loop
   with one caller until [--seconds] of host time have passed, building
   the system again at intervals (the median build is [setup_s]). Every
   op's output is checked; the last stdout line is one JSON object with
   the correctness verdict and the metrics.

   With [--trace 1] the same workload instead runs a fixed number of
   ops untraced, then the same number again with a {!Ash_obs.Trace}
   tap armed, and reports per-layer work counts and host self time per
   stage (see README.md for the attribution rule).

   All traffic is between simulated hosts inside this process: links,
   NICs and switches are objects of the simulator, not sockets. *)

module Engine = Ash_sim.Engine
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Fault = Ash_sim.Fault
module Kernel = Ash_kern.Kernel
module Tcp = Ash_proto.Tcp
module Trace = Ash_obs.Trace
module Testbed = Ash_core.Testbed
module Lab = Ash_core.Lab
module Fabric = Ash_core.Fabric
module Mq = Ash_core.Mq
module Exp_scale = Ash_core.Exp_scale

let now_ns = Ref_speed.now_ns

(* ------------------------------------------------------------------ *)
(* Per-layer tap                                                       *)
(* ------------------------------------------------------------------ *)

(* Host time is split into slices at every event the tap sees; each
   slice goes to the innermost open synchronous stage, or to "outside"
   when none is open. An engine event boundary ([Ev_fired]) closes the
   stack: spans still open there are asynchronous. A span that ends in
   a later event than it began in (Deliver, Reply) claims the
   top-level time of the event that ends it, since that event is the
   span's own continuation. [Wire] spans are never attributed: they
   measure link occupancy, not host work. Stage self times plus the
   outside time therefore add up to the traced time of the ops. *)
module Tap = struct
  let stage_index = function
    | Trace.Wire -> -1
    | Trace.Rx_dma -> 0
    | Trace.Demux -> 1
    | Trace.Ash_run -> 2
    | Trace.Pipe -> 3
    | Trace.Proto -> 4
    | Trace.Deliver -> 5
    | Trace.Reply -> 6

  let stage_names =
    [| "rx_dma"; "demux"; "ash_run"; "pipe"; "proto"; "deliver"; "reply";
       "outside_spans" |]

  let outside = 7
  let nslots = 8

  (* Work counters. *)
  let c_fired = 0
  let c_scheduled = 1
  let c_vm_runs = 2
  let c_vm_insns = 3
  let c_vm_checks = 4
  let c_dilp_runs = 5
  let c_dilp_bytes = 6
  let c_tx = 7
  let c_rx = 8
  let c_drops = 9
  let c_faults = 10
  let c_dpf_evals = 11
  let c_dispatch = 12
  let c_commit = 13
  let c_user_deliver = 14
  let c_fast_hit = 15
  let c_fast_miss = 16
  let c_retransmit = 17
  let ncounters = 18

  let counters = Array.make ncounters 0
  let self_ns = Array.make nslots 0
  let self_words = Float.Array.make nslots 0.
  let stack = Array.make 64 0
  let depth = ref 0
  let active = ref false
  let attribute = ref true
  let last_ns = ref 0
  let pend_ns = ref 0

  (* Float state lives unboxed: [last minor words; pending words]. *)
  let fl = Float.Array.make 2 0.

  let reset () =
    Array.fill counters 0 ncounters 0;
    Array.fill self_ns 0 nslots 0;
    Float.Array.fill self_words 0 nslots 0.

  let bump i n = counters.(i) <- counters.(i) + n

  (* Charge the host time and minor words since the last slice to the
     innermost open stage, or to outside. *)
  let charge t =
    let w = Gc.minor_words () in
    let i = if !depth = 0 then outside else stack.(!depth - 1) in
    let dt = t - !last_ns in
    let dw = w -. Float.Array.get fl 0 in
    self_ns.(i) <- self_ns.(i) + dt;
    Float.Array.set self_words i (Float.Array.get self_words i +. dw);
    if !depth = 0 then begin
      pend_ns := !pend_ns + dt;
      Float.Array.set fl 1 (Float.Array.get fl 1 +. dw)
    end;
    last_ns := t;
    Float.Array.set fl 0 w

  let slice () = if !attribute then charge (now_ns ())

  let clear_pending () =
    pend_ns := 0;
    Float.Array.set fl 1 0.

  let span_begin i =
    slice ();
    if !depth < Array.length stack then begin
      stack.(!depth) <- i;
      incr depth
    end

  let span_end i =
    slice ();
    let rec find d = if d < 0 || stack.(d) = i then d else find (d - 1) in
    let d = find (!depth - 1) in
    if d >= 0 then begin
      Array.blit stack (d + 1) stack d (!depth - d - 1);
      decr depth
    end
    else if !depth = 0 && !attribute then begin
      self_ns.(outside) <- self_ns.(outside) - !pend_ns;
      self_ns.(i) <- self_ns.(i) + !pend_ns;
      let pw = Float.Array.get fl 1 in
      Float.Array.set self_words outside
        (Float.Array.get self_words outside -. pw);
      Float.Array.set self_words i (Float.Array.get self_words i +. pw);
      clear_pending ()
    end

  let on_event ~ts:_ ~corr:_ (k : Trace.kind) =
    if !active then
      match k with
      | Trace.Ev_fired ->
        bump c_fired 1;
        slice ();
        depth := 0;
        clear_pending ()
      | Trace.Ev_scheduled _ -> bump c_scheduled 1
      | Trace.Span_begin { stage; _ } ->
        let i = stage_index stage in
        if i >= 0 then span_begin i
      | Trace.Span_end { stage; _ } ->
        let i = stage_index stage in
        if i >= 0 then span_end i
      | Trace.Vm_run { insns; check_insns; _ } ->
        bump c_vm_runs 1;
        bump c_vm_insns insns;
        bump c_vm_checks check_insns
      | Trace.Dilp_run { len; _ } ->
        bump c_dilp_runs 1;
        bump c_dilp_bytes len
      | Trace.Pkt_tx _ -> bump c_tx 1
      | Trace.Pkt_rx _ -> bump c_rx 1
      | Trace.Pkt_drop _ -> bump c_drops 1
      | Trace.Fault_injected _ -> bump c_faults 1
      | Trace.Dpf_eval _ -> bump c_dpf_evals 1
      | Trace.Ash_dispatch _ -> bump c_dispatch 1
      | Trace.Ash_commit _ -> bump c_commit 1
      | Trace.User_deliver _ -> bump c_user_deliver 1
      | Trace.Tcp_fast_hit -> bump c_fast_hit 1
      | Trace.Tcp_fast_miss -> bump c_fast_miss 1
      | Trace.Tcp_retransmit _ -> bump c_retransmit 1
      | _ -> ()

  (* Both return the host clock reading that bounds the op, so the
     slices add up to exactly the op's traced time. *)
  let op_begin () =
    depth := 0;
    clear_pending ();
    Float.Array.set fl 0 (Gc.minor_words ());
    last_ns := now_ns ();
    active := true;
    !last_ns

  let op_end () =
    let t = now_ns () in
    charge t;
    active := false;
    t
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One built instance of a workload. [prepare] makes the next op's
   inputs and does any between-op upkeep (untimed; it returns failures
   found among earlier ops, e.g. by a deferred audit); [op] is the
   timed unit of user work; [check] verifies that op's output
   (untimed); [finish] runs the final deferred checks; [extras] adds
   workload-specific per-layer metrics in traced mode. *)
type inst = {
  prepare : unit -> int;
  op : unit -> unit;
  check : unit -> bool;
  finish : unit -> int;
  extras : unit -> (string * float) list * int;
}

type workload = {
  name : string;
  setup_reps : int;  (** builds in a run; their median is [setup_s] *)
  warmup : int;  (** ops run and discarded before timing *)
  trace_ops : int;  (** ops per phase in traced mode *)
  window : int;  (** ops per statistics window (see [summarize]) *)
  sharded : bool;
      (** runs in several shards: the tap sees shard events only when
          they merge at epoch barriers, so host stage times are not
          attributed *)
  build : seed:int -> wrong:bool -> inst;
}

(* Set-up durations in seconds, including rebuilds during the run. *)
let setup_samples : float list ref = ref []

let timed_setup f =
  let t0 = now_ns () in
  let x = f () in
  setup_samples := Ref_speed.scale (now_ns () - t0) /. 1e9 :: !setup_samples;
  x

let no_extras () = ([], 0)

(* The steady virtual times of one 4-byte TCP echo on the sandboxed
   ASH fast path with checksums (paper Table VI), as the model computes
   them at the commit that defined this benchmark: the echo reaches the
   client [reference_echo_ns] after the write, and the engine is idle
   again (final ack processed) after [reference_rtt_ns]. The first op on
   a fresh testbed runs with cold caches and is exempt. A model change
   shows up as failed ops, not as a speed-up. *)
let reference_echo_ns = 254_936
let reference_rtt_ns = 313_291

let tcp_testbed ~in_place =
  let tb = Testbed.create () in
  let c, s =
    Lab.tcp_pair
      ~mode:(Tcp.Fast_ash { sandbox = true })
      ~checksum:true ~in_place tb
  in
  (tb, c, s)

let node_mem (n : Testbed.node) = Machine.mem (Kernel.machine n.Testbed.kernel)

(* tcp_rtt_4b: one op is one 4-byte echo round trip. *)
let build_rtt ~seed ~wrong =
  let tb, c, s = tcp_testbed ~in_place:false in
  let smem = node_mem tb.Testbed.server in
  let cmem = node_mem tb.Testbed.client in
  Tcp.set_reader s (fun ~addr ~len ->
      Tcp.write_string s (Memory.read_string smem ~addr ~len)
        ~on_complete:ignore);
  let got = Bytes.create 4 in
  let got_len = ref 0 in
  let sent_at = ref 0 in
  let echo = ref 0 and rtt = ref 0 and ops = ref 0 in
  Tcp.set_reader c (fun ~addr ~len ->
      if !got_len + len <= 4 then
        Memory.blit_to_bytes cmem ~src:addr ~dst:got ~dst_off:!got_len ~len;
      got_len := !got_len + len;
      echo := Engine.now tb.Testbed.engine - !sent_at);
  let src = Testbed.alloc tb.Testbed.client 4 in
  let payload = Bytes.create 4 in
  let rng = Random.State.make [| seed; 1 |] in
  let completed = ref false in
  let on_complete () = completed := true in
  let expect_rtt = if wrong then reference_rtt_ns + 1 else reference_rtt_ns in
  {
    prepare =
      (fun () ->
        Bytes.set_int32_le payload 0 (Random.State.bits32 rng);
        Memory.blit_from_bytes cmem ~src:payload ~src_off:0
          ~dst:src.Memory.base ~len:4;
        got_len := 0;
        completed := false;
        0);
    op =
      (fun () ->
        sent_at := Engine.now tb.Testbed.engine;
        Tcp.write c ~addr:src.Memory.base ~len:4 ~on_complete;
        Testbed.run tb;
        rtt := Engine.now tb.Testbed.engine - !sent_at);
    check =
      (fun () ->
        incr ops;
        !completed && !got_len = 4 && Bytes.equal got payload
        && (!ops = 1 || (!echo = reference_echo_ns && !rtt = expect_rtt)));
    finish = (fun () -> 0);
    extras = no_extras;
  }

(* tcp_bulk_8k: one op is one 8 KB write, run to completion. *)
let chunk = 8192

let build_bulk ~seed ~wrong =
  let tb, c, s = tcp_testbed ~in_place:true in
  let smem = node_mem tb.Testbed.server in
  let cmem = node_mem tb.Testbed.client in
  let got = Bytes.create chunk in
  let got_len = ref 0 in
  Tcp.set_reader s (fun ~addr ~len ->
      if !got_len + len <= chunk then
        Memory.blit_to_bytes smem ~src:addr ~dst:got ~dst_off:!got_len ~len;
      got_len := !got_len + len);
  let src = Testbed.alloc tb.Testbed.client chunk in
  let expected = Bytes.create chunk in
  let rng = Random.State.make [| seed; 2 |] in
  let completed = ref false in
  let on_complete () = completed := true in
  {
    prepare =
      (fun () ->
        for i = 0 to (chunk / 4) - 1 do
          Bytes.set_int32_le expected (4 * i) (Random.State.bits32 rng)
        done;
        Memory.blit_from_bytes cmem ~src:expected ~src_off:0
          ~dst:src.Memory.base ~len:chunk;
        if wrong then
          Bytes.set expected 0
            (Char.chr (Char.code (Bytes.get expected 0) lxor 1));
        got_len := 0;
        completed := false;
        0);
    op =
      (fun () ->
        Tcp.write c ~addr:src.Memory.base ~len:chunk ~on_complete;
        Testbed.run tb);
    check =
      (fun () -> !completed && !got_len = chunk && Bytes.equal got expected);
    finish = (fun () -> 0);
    extras = no_extras;
  }

(* mq_lossy: one op is one acknowledged produce, alternating between
   the two producers. A queue generation serves [mq_gen_ops] ops (well
   inside the default log capacity and telemetry horizon) and is then
   audited and replaced by a fresh one, whose build counts as set-up. *)
let mq_gen_ops = 500
let mq_consumer_interval_ns = 1_000_000
let mq_drain_ns = 60_000_000_000

type mq_gen = {
  fab : Fabric.t;
  q : Mq.t;
  t0 : int;
  mutable ops : int;
  mutable drained : bool;
}

let build_mq ~seed ~wrong =
  let spec = Mq.default_spec in
  let gens = ref 0 in
  let new_gen () =
    let g = !gens in
    incr gens;
    let fab = Fabric.create ~hosts:(2 + spec.Mq.producers) () in
    let q = Mq.create fab spec in
    Mq.install_chaos q
      ~config:{ Fault.none with Fault.drop = 0.05; jitter = 0.2 }
      ~seed:(seed + (64 * g));
    let t0 = Fabric.now fab in
    ignore
      (Mq.add_consumer q ~host:2 ~start_at:0
         ~interval_ns:mq_consumer_interval_ns ~until:spec.Mq.horizon_ns);
    { fab; q; t0; ops = 0; drained = false }
  in
  let acked = ref 0 and redeliveries = ref 0 in
  (* Failures found when a generation retires: every op it served is
     failed when its audit is not clean. *)
  let retire g =
    let st = Mq.stats g.q in
    acked := !acked + st.Mq.s_acked;
    redeliveries := !redeliveries + st.Mq.s_redeliveries;
    let a = Mq.audit g.q in
    let expect = if wrong then g.ops + 1 else g.ops in
    let payloads_ok =
      List.for_all (fun (_, _, _, ok) -> ok) (Mq.delivered g.q ~consumer:0)
    in
    if a.Mq.a_ok && st.Mq.s_acked = expect && payloads_ok then 0 else g.ops
  in
  let cur = ref (new_gen ()) in
  let rel g = Fabric.now g.fab - g.t0 in
  {
    prepare =
      (fun () ->
        let g = !cur in
        if g.ops < mq_gen_ops then 0
        else begin
          let failed = retire g in
          cur := timed_setup new_gen;
          failed
        end);
    op =
      (fun () ->
        let g = !cur in
        Mq.produce g.q ~producer:(g.ops land 1) ~count:1 ~at:(rel g);
        g.drained <- Mq.drain g.q ~deadline:(rel g + mq_drain_ns);
        g.ops <- g.ops + 1);
    check = (fun () -> !cur.drained);
    finish = (fun () -> retire !cur);
    extras =
      (fun () ->
        let st = Mq.stats !cur.q in
        let a = !acked + st.Mq.s_acked in
        let r = !redeliveries + st.Mq.s_redeliveries in
        ([ ("core.mq_useful_ratio", float_of_int a /. float_of_int (a + r)) ],
         0));
  }

(* fabric_churn: one op is one full churn batch. The two shards run on
   one domain (jobs 1): the engine still runs them in epochs with
   barriers, and a second domain on this two-vCPU host would time the
   scheduler as much as the library. The jobs 2 cost is the traced
   [cluster.jobs2_over_jobs1]. *)
let churn_spec =
  {
    Exp_scale.default_spec with
    Exp_scale.connections = 256;
    client_hosts = 8;
    rounds = 4;
    verify = true;
    shards = 2;
    jobs = 1;
  }

let churn_ok ~wrong (r : Exp_scale.churn_result) =
  let expect =
    if wrong then churn_spec.Exp_scale.connections + 1
    else churn_spec.Exp_scale.connections
  in
  r.Exp_scale.completed = expect
  && r.Exp_scale.verify_failures = 0
  && r.Exp_scale.stragglers = 0
  && r.Exp_scale.leaked_bindings = 0
  && r.Exp_scale.leaked_filters = 0
  && r.Exp_scale.leaked_regions = 0

(* The fabric one batch builds before its first connection. *)
let build_churn_fabric () =
  let sp = churn_spec in
  let fab =
    Fabric.create ~queue_limit:sp.Exp_scale.queue_limit
      ~notify_queue_limit:(max 256 (2 * sp.Exp_scale.connections))
      ~shards:sp.Exp_scale.shards ~jobs:sp.Exp_scale.jobs
      ~hosts:(sp.Exp_scale.client_hosts + 1) ()
  in
  Fabric.warm_arp fab ~server:0

(* Nearest-rank percentile [p] of a sorted array. *)
let rank a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  rank a 0.5

(* Host time of the same batch at jobs 1 and 2, alternating; the two
   results must be identical (sharding is deterministic at any job
   count). *)
let churn_jobs_ratio ~wrong =
  let time jobs =
    let t0 = now_ns () in
    let r = Exp_scale.run_churn { churn_spec with Exp_scale.jobs } in
    (float_of_int (now_ns () - t0), r)
  in
  let ratios = ref [] and failed = ref 0 in
  for _ = 1 to 3 do
    let t1, r1 = time 1 in
    let t2, r2 = time 2 in
    if r1 <> r2 || not (churn_ok ~wrong r2) then incr failed;
    ratios := (t2 /. t1) :: !ratios
  done;
  ([ ("cluster.jobs2_over_jobs1", median !ratios) ], !failed)

let build_churn ~seed:_ ~wrong =
  build_churn_fabric ();
  let last = ref None in
  {
    prepare = (fun () -> 0);
    op = (fun () -> last := Some (Exp_scale.run_churn churn_spec));
    check =
      (fun () -> match !last with Some r -> churn_ok ~wrong r | None -> false);
    finish = (fun () -> 0);
    extras = (fun () -> churn_jobs_ratio ~wrong);
  }

let workloads =
  [
    { name = "tcp_rtt_4b"; setup_reps = 51; warmup = 2000; window = 20_000;
      trace_ops = 20_000; sharded = false; build = build_rtt };
    { name = "tcp_bulk_8k"; setup_reps = 51; warmup = 300; window = 1000;
      trace_ops = 3000; sharded = false; build = build_bulk };
    { name = "mq_lossy"; setup_reps = 5; warmup = 100; window = 5000;
      trace_ops = 1000; sharded = false; build = build_mq };
    { name = "fabric_churn"; setup_reps = 26; warmup = 1; window = 10;
      trace_ops = 2; sharded = true; build = build_churn };
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-op host times at the reference speed, kept off the OCaml heap
   so that the sample count (which grows with speed) does not move
   [heap_peak_mb]. *)
let max_samples = 4_000_000

let samples =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout max_samples

type run = {
  mutable ops : int;
  mutable failed : int;
  mutable busy_ns : int;  (** sum of raw op times *)
  mutable words : float;  (** minor words allocated inside ops *)
}

(* Run ops until [max_ops] are done or the host clock passes
   [deadline_ns]; with [record] the op times go to [samples]. [between]
   runs untimed before each op. *)
let run_ops ?(between = ignore) inst ~max_ops ~deadline_ns ~record ~traced =
  let r = { ops = 0; failed = 0; busy_ns = 0; words = 0. } in
  while r.ops < max_ops && now_ns () < deadline_ns do
    Ref_speed.tick ();
    between ();
    r.failed <- r.failed + inst.prepare ();
    let w0 = Gc.minor_words () in
    let t0 = if traced then Tap.op_begin () else now_ns () in
    inst.op ();
    let t1 = if traced then Tap.op_end () else now_ns () in
    let w1 = Gc.minor_words () in
    if not (inst.check ()) then r.failed <- r.failed + 1;
    let dt = t1 - t0 in
    if record && r.ops < max_samples then
      Bigarray.Array1.unsafe_set samples r.ops (Ref_speed.scale dt);
    r.ops <- r.ops + 1;
    r.busy_ns <- r.busy_ns + dt;
    r.words <- r.words +. (w1 -. w0)
  done;
  r

(* Summary statistics over the first [n] recorded op times, in µs.
   The run is cut into consecutive windows of [window] ops, each giving
   its throughput (ops over the sum of their times), its median and its
   nearest-rank p90. Each figure is reported a quarter of the way from
   the fastest window ([calm]): other tenants of the host slow it in
   bursts of a fraction of a second to seconds that the speed reference
   does not always see in full, and up to three quarters of a run may be
   slowed that way without moving the figures, while a change to the
   library moves every window. The tail stops at p90 because the host
   also stalls for a millisecond or more several times a second: on
   [tcp_bulk_8k] 0.2% to 0.9% of its 0.5 ms ops took three times their
   median, a share that differed from run to run, so their p99 flipped
   between two values 30% apart. With fewer than three full windows the
   whole run is one window. *)
type summary = { ops_per_s : float; p50_us : float; p90_us : float }

let sorted lo len =
  let a = Array.init len (fun i -> Bigarray.Array1.get samples (lo + i)) in
  Array.sort compare a;
  a

let calm = 0.25

let summarize n ~window =
  let n = min n max_samples in
  let stats a =
    ( float_of_int (Array.length a) *. 1e9 /. Array.fold_left ( +. ) 0. a,
      rank a 0.5,
      rank a 0.9 )
  in
  let nw = n / window in
  let ws =
    if nw >= 3 then Array.init nw (fun k -> stats (sorted (k * window) window))
    else [| stats (sorted 0 n) |]
  in
  let pick f p =
    let a = Array.map f ws in
    Array.sort compare a;
    rank a p
  in
  {
    ops_per_s = pick (fun (t, _, _) -> t) (1. -. calm);
    p50_us = pick (fun (_, m, _) -> m) calm /. 1e3;
    p90_us = pick (fun (_, _, t) -> t) calm /. 1e3;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " fields)

(* The host's speed drifts over seconds, so the set-up samples are
   spread evenly over the timed window (discarding what they build)
   rather than taken in one burst at the start: [setup_s] then sees the
   same mix of host speeds as the ops. *)
let end_to_end w ~seed ~seconds ~wrong =
  let build () = w.build ~seed ~wrong in
  let inst = timed_setup build in
  let warm = run_ops inst ~max_ops:w.warmup ~deadline_ns:max_int
      ~record:false ~traced:false in
  let start = now_ns () in
  let deadline_ns = start + (seconds * 1_000_000_000) in
  let period = seconds * 1_000_000_000 / w.setup_reps in
  let builds = ref 1 in
  let between () =
    if !builds < w.setup_reps && now_ns () >= start + (!builds * period)
    then begin
      ignore (timed_setup build);
      incr builds
    end
  in
  let r = run_ops ~between inst ~max_ops:max_int ~deadline_ns ~record:true
      ~traced:false in
  let failed = warm.failed + r.failed + inst.finish () in
  let heap = heap_peak_mb () in
  let sm = summarize r.ops ~window:w.window in
  print_result ~attempted:(warm.ops + r.ops) ~failed
    [
      ("setup_s", "s", median !setup_samples);
      ("ops_per_s", "1/s", sm.ops_per_s);
      ("op_us_p50", "us", sm.p50_us);
      ("op_us_p90", "us", sm.p90_us);
      ("alloc_words_per_op", "words", r.words /. float_of_int r.ops);
      ("heap_peak_mb", "MB", heap);
    ]

let traced w ~seed ~seconds ~wrong =
  let inst = w.build ~seed ~wrong in
  let warm = run_ops inst ~max_ops:w.warmup ~deadline_ns:max_int
      ~record:false ~traced:false in
  let half = now_ns () + (seconds * 500_000_000) in
  let plain = run_ops inst ~max_ops:w.trace_ops ~deadline_ns:half
      ~record:false ~traced:false in
  Tap.reset ();
  Ref_speed.readings := [];
  Ref_speed.sample ();
  Tap.attribute := not w.sharded;
  let tap = Trace.add_tap Tap.on_event in
  let deadline_ns = now_ns () + (seconds * 500_000_000) in
  let tr = run_ops inst ~max_ops:w.trace_ops ~deadline_ns ~record:false
      ~traced:true in
  Trace.remove_tap tap;
  let extras, extra_failed = inst.extras () in
  let failed =
    warm.failed + plain.failed + tr.failed + extra_failed + inst.finish ()
  in
  let ops = float_of_int (max 1 tr.ops) in
  let per c = float_of_int Tap.counters.(c) /. ops in
  let ratio a b =
    let a = Tap.counters.(a) and b = Tap.counters.(b) in
    if b = 0 then 0. else float_of_int a /. float_of_int b
  in
  let hit_ratio =
    let h = Tap.counters.(Tap.c_fast_hit)
    and m = Tap.counters.(Tap.c_fast_miss) in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let traced_ns = float_of_int tr.busy_ns /. ops in
  let plain_ns = float_of_int plain.busy_ns /. float_of_int (max 1 plain.ops) in
  let stage_ns i =
    if not w.sharded then float_of_int Tap.self_ns.(i) /. ops
    else if i = Tap.outside then traced_ns
    else 0.
  in
  let stage_words i =
    if not w.sharded then Float.Array.get Tap.self_words i /. ops
    else if i = Tap.outside then tr.words /. ops
    else 0.
  in
  let extra name = try List.assoc name extras with Not_found -> 0. in
  let count = "count" and ns = "ns" and ratio_u = "ratio" in
  let stage_metrics =
    List.concat
      (List.init Tap.nslots (fun i ->
           let s = Tap.stage_names.(i) in
           [
             ("host." ^ s ^ "_ns_per_op", ns, stage_ns i);
             ("alloc." ^ s ^ "_words_per_op", "words", stage_words i);
           ]))
  in
  print_result ~attempted:(warm.ops + plain.ops + tr.ops) ~failed
    ([
       ("vm.runs_per_op", count, per Tap.c_vm_runs);
       ("vm.insns_per_op", count, per Tap.c_vm_insns);
       ("vm.check_insns_per_op", count, per Tap.c_vm_checks);
       ("pipes.dilp_runs_per_op", count, per Tap.c_dilp_runs);
       ("pipes.dilp_bytes_per_op", "bytes", per Tap.c_dilp_bytes);
       ("sim.events_per_op", count, per Tap.c_fired);
       ("sim.scheduled_per_op", count, per Tap.c_scheduled);
       ("nic.frames_tx_per_op", count, per Tap.c_tx);
       ("nic.frames_rx_per_op", count, per Tap.c_rx);
       ("nic.drops_per_op", count, per Tap.c_drops);
       ("nic.faults_per_op", count, per Tap.c_faults);
       ("kern.demux_evals_per_op", count, per Tap.c_dpf_evals);
       ("kern.ash_dispatch_per_op", count, per Tap.c_dispatch);
       ("kern.ash_commit_ratio", ratio_u, ratio Tap.c_commit Tap.c_dispatch);
       ("kern.user_deliver_per_op", count, per Tap.c_user_deliver);
       ("proto.tcp_fast_hit_ratio", ratio_u, hit_ratio);
       ("proto.retransmits_per_op", count, per Tap.c_retransmit);
       ("core.mq_useful_ratio", ratio_u, extra "core.mq_useful_ratio");
       ("cluster.jobs2_over_jobs1", ratio_u, extra "cluster.jobs2_over_jobs1");
     ]
    @ stage_metrics
    @ [
        ("host.traced_ns_per_op", ns, traced_ns);
        ("host.untraced_ns_per_op", ns, plain_ns);
        ("host.trace_overhead_ratio", ratio_u, traced_ns /. plain_ns);
        ( "host.ref_loop_ns",
          ns,
          median (List.map float_of_int !Ref_speed.readings) );
      ])

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--wrong-reference]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 and wrong = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured host seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ( "--wrong-reference",
        Arg.Set wrong,
        " check against a deliberately wrong reference (self-check)" );
    ]
    (fun _ -> usage ())
    "bench.exe: the repository benchmark";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S; choose one of: %s\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    Ref_speed.init ();
    if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds ~wrong:!wrong
    else end_to_end w ~seed:!seed ~seconds:!seconds ~wrong:!wrong
