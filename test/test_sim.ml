(* Tests for Ash_sim: event engine ordering, cache behaviour, memory
   protection, machine cycle accounting, and the Table-III copy
   calibration. *)

module Engine = Ash_sim.Engine
module Cache = Ash_sim.Cache
module Memory = Ash_sim.Memory
module Machine = Ash_sim.Machine
module Costs = Ash_sim.Costs
module Time = Ash_sim.Time

let costs = Costs.decstation

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_conversions () =
  Alcotest.(check int) "us->ns" 1500 (Time.ns_of_us 1.5);
  Alcotest.(check (float 1e-9)) "ns->us" 1.5 (Time.us_of_ns 1500);
  Alcotest.(check int) "cycles" 250 (Time.ns_of_cycles ~cycle_ns:25.0 10);
  (* 4096 bytes in 204.8 us = 20 MB/s *)
  Alcotest.(check (float 0.01)) "throughput" 20.0
    (Time.mbytes_per_sec ~bytes:4096 204_800)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:300 (mark "c"));
  ignore (Engine.schedule e ~delay:100 (mark "a"));
  ignore (Engine.schedule e ~delay:200 (mark "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 300 (Engine.now e)

let test_engine_fifo_same_instant () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:50 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let result = ref 0 in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         ignore
           (Engine.schedule e ~delay:5 (fun () -> result := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "nested fires at 15" 15 !result

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule e ~delay:30 (fun () -> fired := 30 :: !fired));
  Engine.run_until e 20;
  Alcotest.(check (list int)) "only <=20" [ 10 ] !fired;
  Alcotest.(check int) "clock at deadline" 20 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest fired" [ 30; 10 ] !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10 ignore);
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1) ignore));
  Alcotest.check_raises "past absolute"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:5 ignore))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_miss_then_hit () =
  let c = Cache.create costs in
  let miss_cost = Cache.load c ~addr:0x1000 ~size:4 in
  let hit_cost = Cache.load c ~addr:0x1004 ~size:4 in
  Alcotest.(check int) "miss pays penalty"
    (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles)
    miss_cost;
  Alcotest.(check int) "hit is cheap" costs.Costs.load_extra_cycles hit_cost;
  Alcotest.(check bool) "probe hit" true (Cache.probe c ~addr:0x1000 = Cache.Hit)

let test_cache_direct_mapped_conflict () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x1000 ~size:4);
  (* Same index, different tag: 64 KB away. *)
  ignore (Cache.load c ~addr:(0x1000 + costs.Costs.cache_size) ~size:4);
  Alcotest.(check bool) "evicted" true (Cache.probe c ~addr:0x1000 = Cache.Miss)

let test_cache_flush_all () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x2000 ~size:4);
  Cache.flush_all c;
  Alcotest.(check bool) "flushed" true (Cache.probe c ~addr:0x2000 = Cache.Miss)

let test_cache_flush_range () =
  let c = Cache.create costs in
  ignore (Cache.load c ~addr:0x2000 ~size:64);
  Cache.flush_range c ~addr:0x2000 ~len:32;
  Alcotest.(check bool) "flushed prefix" true
    (Cache.probe c ~addr:0x2000 = Cache.Miss);
  Alcotest.(check bool) "suffix survives" true
    (Cache.probe c ~addr:0x2030 = Cache.Hit)

let test_cache_store_no_allocate () =
  let c = Cache.create costs in
  let cost = Cache.store c ~addr:0x3000 ~size:4 in
  Alcotest.(check int) "store cost" costs.Costs.store_extra_cycles cost;
  Alcotest.(check bool) "no allocate on store miss" true
    (Cache.probe c ~addr:0x3000 = Cache.Miss)

let test_cache_spanning_access () =
  let c = Cache.create costs in
  (* A 4-byte access straddling a line boundary touches two lines. *)
  let cost = Cache.load c ~addr:(0x1000 + costs.Costs.cache_line - 2) ~size:4 in
  Alcotest.(check int) "two misses"
    (2 * (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles))
    cost

let test_cache_warm_range () =
  let c = Cache.create costs in
  Cache.warm_range c ~addr:0x4000 ~len:4096;
  let cost = Cache.load c ~addr:0x4000 ~size:4 in
  Alcotest.(check int) "warm = hit" costs.Costs.load_extra_cycles cost

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_rw () =
  let m = Memory.create () in
  let r = Memory.alloc m 64 in
  Memory.store32 m r.Memory.base 0xdeadbeef;
  Alcotest.(check int) "32-bit rw" 0xdeadbeef (Memory.load32 m r.Memory.base);
  Alcotest.(check int) "byte view (big-endian)" 0xde
    (Memory.load8 m r.Memory.base);
  Memory.store16 m (r.Memory.base + 4) 0xcafe;
  Alcotest.(check int) "16-bit rw" 0xcafe (Memory.load16 m (r.Memory.base + 4))

let test_memory_unmapped_faults () =
  let m = Memory.create () in
  let r = Memory.alloc m 16 in
  (match Memory.load32 m (r.Memory.base + 16) with
   | _ -> Alcotest.fail "expected fault"
   | exception Memory.Fault { reason; _ } ->
     Alcotest.(check string) "reason" "unmapped" reason);
  match Memory.load8 m 0 with
  | _ -> Alcotest.fail "expected fault at null"
  | exception Memory.Fault _ -> ()

let test_memory_nonresident_faults () =
  let m = Memory.create () in
  let r = Memory.alloc m 16 in
  Memory.set_resident r false;
  (match Memory.load8 m r.Memory.base with
   | _ -> Alcotest.fail "expected fault"
   | exception Memory.Fault { reason; _ } ->
     Alcotest.(check string) "reason" "non-resident page" reason);
  Memory.set_resident r true;
  Alcotest.(check int) "readable again" 0 (Memory.load8 m r.Memory.base)

let test_memory_guard_gap () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 in
  let b = Memory.alloc m 32 in
  Alcotest.(check bool) "gap between regions" true
    (b.Memory.base >= a.Memory.base + a.Memory.len + 64)

let test_memory_blit () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 and b = Memory.alloc m 32 in
  Memory.blit_from_bytes m ~src:(Bytes.of_string "hello world.....") ~src_off:0
    ~dst:a.Memory.base ~len:16;
  Memory.blit m ~src:a.Memory.base ~dst:b.Memory.base ~len:16;
  Alcotest.(check string) "copied" "hello world"
    (Memory.read_string m ~addr:b.Memory.base ~len:11)

let test_memory_many_regions_lookup () =
  let m = Memory.create () in
  let regions = List.init 100 (fun i -> (i, Memory.alloc m (8 + i))) in
  List.iter
    (fun (i, (r : Memory.region)) ->
       Memory.store8 m r.Memory.base i;
       Alcotest.(check int) "lookup" (i land 0xff) (Memory.load8 m r.Memory.base))
    regions

(* Every fault keeps its exact [addr], [size] and [reason], whether the
   lookup is served by the last-hit memo or by the binary search. *)
let expect_fault what ~addr ~size ~reason f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a fault" what
  | exception Memory.Fault f ->
    Alcotest.(check (triple int int string)) what (addr, size, reason)
      (f.addr, f.size, f.reason)

let test_memory_faults_exact () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 and b = Memory.alloc m 32 in
  let a0 = a.Memory.base and b0 = b.Memory.base in
  expect_fault "unmapped" ~addr:0 ~size:4 ~reason:"unmapped" (fun () ->
      Memory.load32 m 0);
  (* Memoise [a], then step into the guard gap after it. *)
  ignore (Memory.load8 m a0);
  expect_fault "guard gap" ~addr:(a0 + 40) ~size:1 ~reason:"unmapped"
    (fun () -> Memory.store8 m (a0 + 40) 1);
  expect_fault "straddles end" ~addr:(a0 + 30) ~size:4 ~reason:"unmapped"
    (fun () -> Memory.load32 m (a0 + 30));
  expect_fault "blit straddles end" ~addr:(b0 + 16) ~size:17
    ~reason:"unmapped" (fun () -> Memory.read_string m ~addr:(b0 + 16) ~len:17);
  Memory.set_resident b false;
  expect_fault "non-resident" ~addr:(b0 + 2) ~size:2
    ~reason:"non-resident page" (fun () -> Memory.load16 m (b0 + 2));
  Alcotest.(check bool) "is_resident: paged out" false
    (Memory.is_resident m ~addr:b0 ~size:4);
  Memory.set_resident b true;
  Alcotest.(check bool) "is_resident: back" true
    (Memory.is_resident m ~addr:b0 ~size:4);
  Alcotest.(check bool) "is_resident: gap" false
    (Memory.is_resident m ~addr:(a0 + 32) ~size:1);
  (* Use after free of the memoised region. *)
  ignore (Memory.load32 m a0);
  Memory.free m a;
  expect_fault "after free" ~addr:(a0 + 4) ~size:4 ~reason:"unmapped"
    (fun () -> Memory.load32 m (a0 + 4));
  Alcotest.(check bool) "find after free" true
    (Memory.find m ~addr:a0 ~size:1 = None);
  Alcotest.(check int) "neighbour still served" 0 (Memory.load8 m b0)

(* The lookup memoizes two regions ([last] and [prev]). Accessing [a]
   then [b] leaves [b] in [last] and [a] in [prev]. *)
let test_memory_memo_three_regions () =
  let m = Memory.create () in
  let rs = Array.init 3 (fun _ -> (Memory.alloc m 64).Memory.base) in
  (* Round-robin over three regions misses the two-entry memo on every
     access; pairs of regions hit it. *)
  for i = 0 to 15 do
    Array.iteri (fun k base -> Memory.store32 m (base + (4 * i)) ((k lsl 8) + i)) rs
  done;
  for i = 0 to 15 do
    Memory.store8 m (rs.(0) + 4 * i + 3) (0x80 + i);
    Alcotest.(check int) "b" ((1 lsl 8) + i) (Memory.load32 m (rs.(1) + (4 * i)))
  done;
  for i = 0 to 15 do
    Array.iteri
      (fun k base ->
         let want = if k = 0 then 0x80 + i else (k lsl 8) + i in
         Alcotest.(check int) (Printf.sprintf "region %d word %d" k i) want
           (Memory.load32 m (base + (4 * i))))
      rs
  done

let test_memory_memo_free () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 and b = Memory.alloc m 32 in
  let c = Memory.alloc m 32 in
  let a0 = a.Memory.base and b0 = b.Memory.base and c0 = c.Memory.base in
  ignore (Memory.load32 m a0);
  ignore (Memory.load32 m b0);
  Memory.free m a;  (* [a] sits in [prev] *)
  expect_fault "freed while in prev" ~addr:a0 ~size:4 ~reason:"unmapped"
    (fun () -> Memory.load32 m a0);
  ignore (Memory.load32 m c0);
  ignore (Memory.load32 m b0);
  Memory.free m b;  (* [b] sits in [last] *)
  expect_fault "freed while in last" ~addr:(b0 + 8) ~size:4
    ~reason:"unmapped" (fun () -> Memory.store32 m (b0 + 8) 1);
  Alcotest.(check int) "survivor still served" 0 (Memory.load32 m c0)

let test_memory_memo_residency () =
  let m = Memory.create () in
  let a = Memory.alloc m 32 and b = Memory.alloc m 32 in
  let a0 = a.Memory.base and b0 = b.Memory.base in
  ignore (Memory.load32 m a0);
  ignore (Memory.load32 m b0);
  Memory.set_resident a false;  (* in [prev] *)
  expect_fault "paged out in prev" ~addr:a0 ~size:4
    ~reason:"non-resident page" (fun () -> Memory.load32 m a0);
  Memory.set_resident b false;  (* in [last] *)
  expect_fault "paged out in last" ~addr:b0 ~size:2
    ~reason:"non-resident page" (fun () -> Memory.store16 m b0 1);
  Memory.set_resident a true;
  Memory.set_resident b true;
  Memory.store32 m b0 7;
  Alcotest.(check int) "back in" 7 (Memory.load32 m b0)

(* ------------------------------------------------------------------ *)
(* Machine: cycle accounting and Table III calibration                 *)
(* ------------------------------------------------------------------ *)

let mk_machine () = Machine.create costs

let throughput_of_copy ~warm_second m src dst1 dst2 len =
  (* Mirrors §V-A1: time one or two copies of [len] bytes, starting cold. *)
  Machine.flush_cache m;
  ignore (Machine.take_ns m);
  Machine.copy m ~src ~dst:dst1 ~len;
  (match dst2 with
   | None -> ()
   | Some d2 ->
     (* Our write-through cache does not allocate on stores, so "data in
        the cache for the second copy" (Table III) is set up explicitly;
        the uncached variant flushes instead. *)
     if warm_second then Machine.warm_range m ~addr:dst1 ~len
     else Machine.flush_cache m;
     Machine.copy m ~src:dst1 ~dst:d2 ~len);
  Time.mbytes_per_sec ~bytes:len (Machine.take_ns m)

let test_copy_moves_data () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = Memory.alloc mem 4096 and b = Memory.alloc mem 4096 in
  let payload = Bytes.create 4096 in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create 11) payload;
  Memory.blit_from_bytes mem ~src:payload ~src_off:0 ~dst:a.Memory.base
    ~len:4096;
  Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len:4096;
  Alcotest.(check string) "content equal" (Bytes.to_string payload)
    (Memory.read_string mem ~addr:b.Memory.base ~len:4096)

let test_copy_odd_length () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = Memory.alloc mem 64 and b = Memory.alloc mem 64 in
  Memory.blit_from_bytes mem ~src:(Bytes.of_string "0123456789abcdefg")
    ~src_off:0 ~dst:a.Memory.base ~len:17;
  Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len:17;
  Alcotest.(check string) "17 bytes copied" "0123456789abcdefg"
    (Memory.read_string mem ~addr:b.Memory.base ~len:17)

let test_table3_calibration () =
  (* Table III: single 20 MB/s, double (cached) 14, double (uncached) 11.
     We assert the calibrated model lands within 20% of each and that the
     ordering/ratios hold. *)
  let m = mk_machine () in
  let mem = Machine.mem m in
  let src = (Memory.alloc mem 4096).Memory.base in
  let d1 = (Memory.alloc mem 4096).Memory.base in
  let d2 = (Memory.alloc mem 4096).Memory.base in
  let single = throughput_of_copy ~warm_second:false m src d1 None 4096 in
  let double_cached =
    throughput_of_copy ~warm_second:true m src d1 (Some d2) 4096
  in
  let double_uncached =
    throughput_of_copy ~warm_second:false m src d1 (Some d2) 4096
  in
  let close paper v = abs_float (v -. paper) /. paper < 0.20 in
  Alcotest.(check bool)
    (Printf.sprintf "single ~20 (got %.1f)" single)
    true (close 20. single);
  Alcotest.(check bool)
    (Printf.sprintf "double cached ~14 (got %.1f)" double_cached)
    true (close 14. double_cached);
  Alcotest.(check bool)
    (Printf.sprintf "double uncached ~11 (got %.1f)" double_uncached)
    true (close 11. double_uncached);
  Alcotest.(check bool) "ordering" true
    (single > double_cached && double_cached > double_uncached)

let test_meter_drain () =
  let m = mk_machine () in
  Machine.charge_cycles m 40; (* = 1000 ns at 25 ns/cycle *)
  Machine.charge_ns m 500;
  Alcotest.(check int) "drain" 1500 (Machine.take_ns m);
  Alcotest.(check int) "reset" 0 (Machine.take_ns m);
  Alcotest.(check int) "monotonic total" 40 (Machine.consumed_cycles m)

(* The simulated memory path allocates nothing on the host. Checked on
   native code only: bytecode boxes what native code keeps in
   registers. *)
let check_no_alloc what f =
  if Sys.backend_type = Sys.Native then begin
    f ();
    let before = Gc.minor_words () in
    f ();
    let after = Gc.minor_words () in
    Alcotest.(check (float 0.)) (what ^ ": minor words") 0. (after -. before)
  end

let test_accessors_allocation_free () =
  let m = mk_machine () in
  let mem = Machine.mem m in
  let a = (Memory.alloc mem 4096).Memory.base in
  let b = (Memory.alloc mem 4096).Memory.base in
  let line = costs.Costs.cache_line in
  check_no_alloc "loads" (fun () ->
      let acc = ref 0 in
      for i = 0 to 1000 do
        let o = i * 4 in
        acc := !acc + Machine.load8 m (a + o) + Machine.load16 m (a + o)
               + Machine.load32 m (b + o)
      done;
      ignore (Sys.opaque_identity !acc));
  check_no_alloc "stores" (fun () ->
      for i = 0 to 1000 do
        let o = i * 4 in
        Machine.store8 m (a + o) i;
        Machine.store16 m (b + o) i;
        Machine.store32 m (a + o) i
      done);
  let ra = Machine.mem m in
  check_no_alloc "alternating regions" (fun () ->
      for i = 0 to 9999 do
        let o = (i land 1023) * 4 in
        Memory.store32 ra (b + o) (Memory.load32 ra (a + o))
      done);
  check_no_alloc "copy" (fun () ->
      Machine.copy m ~src:a ~dst:b ~len:4096;
      Machine.copy m ~src:(b + 1) ~dst:(a + 3) ~len:1001);
  let c = Machine.cache m in
  check_no_alloc "straddling cache accesses" (fun () ->
      let acc = ref 0 in
      for i = 1 to 1000 do
        let addr = a + (i * line) - 2 in
        acc := !acc + Cache.load c ~addr ~size:4 + Cache.store c ~addr ~size:4
               + Cache.load c ~addr ~size:(3 * line)
      done;
      ignore (Sys.opaque_identity !acc))

(* The cache as it was written before its accessors became direct
   loops, kept as the oracle: tags, hits and misses of its own. *)
module Oracle = struct
  type t = { tags : int array; mutable hits : int; mutable misses : int }

  let line = costs.Costs.cache_line
  let lines = costs.Costs.cache_size / line
  let create () = { tags = Array.make lines (-1); hits = 0; misses = 0 }
  let line_addr addr = addr land lnot (line - 1)
  let index addr = addr / line mod lines

  let fold_lines ~addr ~size f init =
    if size <= 0 then init
    else begin
      let last = line_addr (addr + size - 1) in
      let acc = ref init and la = ref (line_addr addr) in
      while !la <= last do
        acc := f !acc !la;
        la := !la + line
      done;
      !acc
    end

  let load t ~addr ~size =
    fold_lines ~addr ~size
      (fun cost la ->
         let i = index la in
         if t.tags.(i) = la then begin
           t.hits <- t.hits + 1;
           cost + costs.Costs.load_extra_cycles
         end
         else begin
           t.misses <- t.misses + 1;
           t.tags.(i) <- la;
           cost + costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles
         end)
      0

  let store _t ~addr ~size =
    fold_lines ~addr ~size (fun cost _ -> cost + costs.Costs.store_extra_cycles)
      0

  let flush_range t ~addr ~len =
    fold_lines ~addr ~size:len
      (fun () la -> if t.tags.(index la) = la then t.tags.(index la) <- -1)
      ()
end

let prop_cache_matches_oracle =
  QCheck.Test.make ~name:"cache load/store = fold_lines oracle" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 300)
        (triple (int_bound 3) (int_bound (4 * costs.Costs.cache_size))
           (int_range (-2) 200)))
    (fun ops ->
       let c = Cache.create costs and o = Oracle.create () in
       List.for_all
         (fun (op, off, size) ->
            let addr = 0x1000 + off in
            let same =
              match op with
              | 0 | 1 -> Cache.load c ~addr ~size = Oracle.load o ~addr ~size
              | 2 -> Cache.store c ~addr ~size = Oracle.store o ~addr ~size
              | _ ->
                Cache.flush_range c ~addr ~len:size;
                Oracle.flush_range o ~addr ~len:size;
                true
            in
            same
            && Cache.stats c = (o.Oracle.hits, o.Oracle.misses)
            && (Cache.probe c ~addr = Cache.Hit)
               = (o.Oracle.tags.(Oracle.index addr) = Oracle.line_addr addr))
         ops)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_engine_monotonic_clock =
  QCheck.Test.make ~name:"event clock is monotonic" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 10_000))
    (fun delays ->
       let e = Engine.create () in
       let ok = ref true in
       let last = ref 0 in
       List.iter
         (fun d ->
            ignore
              (Engine.schedule e ~delay:d (fun () ->
                   if Engine.now e < !last then ok := false;
                   last := Engine.now e)))
         delays;
       Engine.run e;
       !ok)

let prop_copy_preserves_content =
  QCheck.Test.make ~name:"machine copy preserves content" ~count:50
    QCheck.(string_of_size (Gen.int_range 1 2048))
    (fun s ->
       let m = mk_machine () in
       let mem = Machine.mem m in
       let len = String.length s in
       let a = Memory.alloc mem len and b = Memory.alloc mem len in
       Memory.blit_from_bytes mem ~src:(Bytes.of_string s) ~src_off:0
         ~dst:a.Memory.base ~len;
       Machine.copy m ~src:a.Memory.base ~dst:b.Memory.base ~len;
       Memory.read_string mem ~addr:b.Memory.base ~len = s)

let prop_cache_load_cost_bounded =
  QCheck.Test.make ~name:"load cost bounded by full-miss cost" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 64))
    (fun (addr, size) ->
       let c = Cache.create costs in
       let cost = Cache.load c ~addr:(0x1000 + addr) ~size in
       let lines = (size + (2 * costs.Costs.cache_line) - 1)
                   / costs.Costs.cache_line in
       cost
       <= lines
          * (costs.Costs.load_extra_cycles + costs.Costs.miss_penalty_cycles))

let () =
  Alcotest.run "ash_sim"
    [
      ("time", [ Alcotest.test_case "conversions" `Quick test_time_conversions ]);
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same instant" `Quick
            test_engine_fifo_same_instant;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "flush all" `Quick test_cache_flush_all;
          Alcotest.test_case "flush range" `Quick test_cache_flush_range;
          Alcotest.test_case "store no-allocate" `Quick
            test_cache_store_no_allocate;
          Alcotest.test_case "spanning access" `Quick test_cache_spanning_access;
          Alcotest.test_case "warm range" `Quick test_cache_warm_range;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "unmapped faults" `Quick
            test_memory_unmapped_faults;
          Alcotest.test_case "non-resident faults" `Quick
            test_memory_nonresident_faults;
          Alcotest.test_case "guard gap" `Quick test_memory_guard_gap;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          Alcotest.test_case "many regions" `Quick
            test_memory_many_regions_lookup;
          Alcotest.test_case "faults exact" `Quick test_memory_faults_exact;
          Alcotest.test_case "memo three regions" `Quick
            test_memory_memo_three_regions;
          Alcotest.test_case "memo free" `Quick test_memory_memo_free;
          Alcotest.test_case "memo residency" `Quick test_memory_memo_residency;
        ] );
      ( "machine",
        [
          Alcotest.test_case "copy moves data" `Quick test_copy_moves_data;
          Alcotest.test_case "copy odd length" `Quick test_copy_odd_length;
          Alcotest.test_case "Table III calibration" `Quick
            test_table3_calibration;
          Alcotest.test_case "meter drain" `Quick test_meter_drain;
          Alcotest.test_case "accessors allocation-free" `Quick
            test_accessors_allocation_free;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_engine_monotonic_clock;
          QCheck_alcotest.to_alcotest prop_copy_preserves_content;
          QCheck_alcotest.to_alcotest prop_cache_load_cost_bounded;
          QCheck_alcotest.to_alcotest prop_cache_matches_oracle;
        ] );
    ]
