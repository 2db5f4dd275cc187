(* Ethernet demultiplexing semantics: the merged DPF trie must be an
   invisible optimisation. Overlapping filters resolve by install order
   identically under the linear scan (interpreted filters,
   [~compiled:false], force it) and the trie (compiled filters), unbind
   removes exactly the one binding it names, and the trie's pure lookup
   agrees with the obvious first-match-in-priority-order reference on
   random filter sets. *)

module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Dpf = Ash_kern.Dpf
module Dpf_trie = Ash_kern.Dpf_trie
module Kernel = Ash_kern.Kernel
module Rng = Ash_util.Rng
module Bytesx = Ash_util.Bytesx
module TB = Ash_core.Testbed

(* ------------------------------------------------------------------ *)
(* Kernel-level: overlapping filters, linear scan vs trie              *)
(* ------------------------------------------------------------------ *)

(* Three mutually overlapping filters; [0xAA; 0xBB] frames match all
   three, so whichever engine runs must pick the first installed. *)
let overlap_filters =
  [
    ("f1", [ Dpf.atom ~offset:0 ~width:1 0xAA ]);
    ("f2", [ Dpf.atom ~offset:0 ~width:1 0xAA; Dpf.atom ~offset:1 ~width:1 0xBB ]);
    ("f3", [ Dpf.atom ~offset:1 ~width:1 0xBB ]);
  ]

let frame b0 b1 =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 (Char.chr b0);
  Bytes.set b 1 (Char.chr b1);
  b

let trial_frames =
  [ frame 0xAA 0xBB; frame 0xAA 0x00; frame 0x00 0xBB; frame 0x00 0x00 ]

(* Install [filters] in order, send every trial frame, and return the
   sequence of filter names that handled them (one entry per delivered
   frame; drops don't appear). [compiled:true] demuxes through the trie,
   [compiled:false] through the linear scan. *)
let run_demux ~compiled filters =
  let tb = TB.create ~ethernet:true () in
  let srv = tb.TB.server.TB.kernel in
  let hits = ref [] in
  List.iter
    (fun (name, filter) ->
       let pvc = Kernel.bind_eth_filter srv filter ~compiled Kernel.Deliver_user in
       Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
           hits := name :: !hits))
    filters;
  List.iter
    (fun f -> Kernel.eth_kernel_send tb.TB.client.TB.kernel f)
    trial_frames;
  TB.run tb;
  List.rev !hits

let test_overlap_install_order_trie_equals_linear () =
  List.iter
    (fun filters ->
       let linear = run_demux ~compiled:false filters in
       let trie = run_demux ~compiled:true filters in
       Alcotest.(check (list string)) "same winners under both engines"
         linear trie)
    (* Both install orders: the specific-first order makes f2 win the
       doubly-matching frame, the general-first order makes f1 win. *)
    [ overlap_filters; List.rev overlap_filters ];
  (* And pin the install-order-wins semantics explicitly. *)
  Alcotest.(check (list string)) "first installed wins"
    [ "f1"; "f1"; "f3" ]
    (run_demux ~compiled:true overlap_filters);
  Alcotest.(check (list string)) "specific first wins when installed first"
    [ "f3"; "f1"; "f3" ]
    (run_demux ~compiled:true (List.rev overlap_filters))

let test_unbind_removes_exactly_one () =
  let tb = TB.create ~ethernet:true () in
  let srv = tb.TB.server.TB.kernel in
  let hits = ref [] in
  let bind name filter =
    let pvc = Kernel.bind_eth_filter srv filter ~compiled:true Kernel.Deliver_user in
    Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
        hits := name :: !hits);
    pvc
  in
  let vc1 = bind "f1" [ Dpf.atom ~offset:0 ~width:1 0xAA ] in
  let _vc2 = bind "f2" [ Dpf.atom ~offset:0 ~width:1 0xAA ] in
  let send () =
    Kernel.eth_kernel_send tb.TB.client.TB.kernel (frame 0xAA 0);
    TB.run tb
  in
  send ();
  Alcotest.(check (list string)) "first binding wins" [ "f1" ] !hits;
  hits := [];
  Kernel.unbind_eth_filter srv ~vc:vc1;
  send ();
  Alcotest.(check (list string)) "second binding takes over" [ "f2" ] !hits;
  (* Unbinding again, or unbinding a VC that isn't an Ethernet filter
     binding, is a caller error. *)
  Alcotest.(check bool) "double unbind rejected" true
    (match Kernel.unbind_eth_filter srv ~vc:vc1 with
     | () -> false
     | exception Invalid_argument _ -> true);
  Kernel.bind_vc srv ~vc:77 Kernel.Deliver_user;
  Alcotest.(check bool) "non-eth binding rejected" true
    (match Kernel.unbind_eth_filter srv ~vc:77 with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_unbind_under_both_engines () =
  List.iter
    (fun compiled ->
       let tb = TB.create ~ethernet:true () in
       let srv = tb.TB.server.TB.kernel in
       let hits = ref 0 in
       let vcs =
         List.map
           (fun (_, filter) ->
              let pvc =
                Kernel.bind_eth_filter srv filter ~compiled
                  Kernel.Deliver_user
              in
              Kernel.set_user_handler srv ~vc:pvc (fun ~addr:_ ~len:_ ->
                  incr hits);
              pvc)
           overlap_filters
       in
       List.iter (fun vc -> Kernel.unbind_eth_filter srv ~vc) vcs;
       Kernel.eth_kernel_send tb.TB.client.TB.kernel (frame 0xAA 0xBB);
       TB.run tb;
       Alcotest.(check int) "all bindings gone: frame dropped" 0 !hits;
       Alcotest.(check bool) "drop counted" true
         ((Kernel.stats srv).Kernel.rx_dropped_unbound >= 1))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Trie vs first-match reference on random filter sets                 *)
(* ------------------------------------------------------------------ *)

let pkt_len = 16

(* Small offsets and tiny value alphabets make overlaps and shared
   prefixes common — the interesting cases for a merged trie. *)
let gen_filter rng =
  List.init
    (1 + Rng.int rng 3)
    (fun _ ->
       let width = [| 1; 2 |].(Rng.int rng 2) in
       let offset = Rng.int rng 4 in
       let value = Rng.int rng 3 in
       let mask = if Rng.int rng 4 = 0 then 1 else (1 lsl (8 * width)) - 1 in
       { Dpf.offset; width; mask; value = value land mask })

let gen_packet rng =
  let b = Bytes.create pkt_len in
  for i = 0 to pkt_len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 3))
  done;
  b

(* First match in priority order — what a linear install-order scan
   computes. *)
let reference_find filters pkt =
  List.sort (fun ((_, a) : Dpf.t * int) (_, b) -> compare a b) filters
  |> List.find_opt (fun (f, _) -> Dpf.matches pkt f)
  |> Option.map snd

let prop_trie_find_equals_reference =
  QCheck.Test.make ~name:"trie find = first-match reference" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 101) in
      let nfilters = 1 + Rng.int rng 8 in
      let filters = List.init nfilters (fun i -> (gen_filter rng, i)) in
      let trie = Dpf_trie.create () in
      List.iter (fun (f, p) -> Dpf_trie.insert trie ~prio:p f p) filters;
      (* Remove a random subset, so incremental remove is part of the
         property, not just insert. *)
      let removed, kept =
        List.partition (fun _ -> Rng.int rng 3 = 0) filters
      in
      List.iter (fun (f, p) -> Dpf_trie.remove trie ~prio:p f) removed;
      if Dpf_trie.size trie <> List.length kept then
        QCheck.Test.fail_reportf "size %d after removals, expected %d"
          (Dpf_trie.size trie) (List.length kept);
      let ok = ref true in
      for _ = 1 to 16 do
        let pkt = gen_packet rng in
        let expected = reference_find kept pkt in
        if Dpf_trie.find trie pkt <> expected then ok := false
      done;
      !ok)

let prop_trie_lookup_equals_find =
  QCheck.Test.make ~name:"machine-charged lookup = pure find" ~count:200
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 211) in
      let nfilters = 1 + Rng.int rng 6 in
      let trie = Dpf_trie.create () in
      for p = 0 to nfilters - 1 do
        Dpf_trie.insert trie ~prio:p (gen_filter rng) p
      done;
      let pkt = gen_packet rng in
      let machine = Machine.create Costs.decstation in
      let mem = Machine.mem machine in
      let buf = Memory.alloc mem ~name:"pkt" pkt_len in
      Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base
        ~len:pkt_len;
      Dpf_trie.lookup trie machine ~msg_addr:buf.Memory.base ~msg_len:pkt_len
      = Dpf_trie.find trie pkt)

let test_trie_single_filter_costs_match_compiled () =
  (* The whole point of the cost model: a lone filter charges exactly
     what its compiled program charges, so merging is invisible in
     simulated time. *)
  let filter =
    [ Dpf.atom ~offset:9 ~width:1 17; Dpf.atom ~offset:22 ~width:2 7001 ]
  in
  let pkt = Bytes.make 64 '\000' in
  Bytesx.set_u8 pkt 9 17;
  Bytesx.set_u16 pkt 22 7001;
  let charge_of run =
    let machine = Machine.create Costs.decstation in
    let mem = Machine.mem machine in
    let buf = Memory.alloc mem ~name:"pkt" 64 in
    Memory.blit_from_bytes mem ~src:pkt ~src_off:0 ~dst:buf.Memory.base ~len:64;
    ignore (Machine.take_ns machine);
    run machine buf;
    Machine.take_ns machine
  in
  let compiled_ns =
    charge_of (fun machine buf ->
        ignore
          (Dpf.run_compiled machine (Dpf.compile filter)
             ~msg_addr:buf.Memory.base ~msg_len:64))
  in
  let trie_ns =
    charge_of (fun machine buf ->
        let trie = Dpf_trie.create () in
        Dpf_trie.insert trie ~prio:0 filter ();
        Alcotest.(check bool) "matched" true
          (Dpf_trie.lookup trie machine ~msg_addr:buf.Memory.base ~msg_len:64
           <> None))
  in
  Alcotest.(check int) "identical simulated charge" compiled_ns trie_ns

let () =
  Alcotest.run "demux"
    [
      ( "kernel",
        [
          Alcotest.test_case "overlap: trie = linear" `Quick
            test_overlap_install_order_trie_equals_linear;
          Alcotest.test_case "unbind removes one" `Quick
            test_unbind_removes_exactly_one;
          Alcotest.test_case "unbind under both engines" `Quick
            test_unbind_under_both_engines;
        ] );
      ( "trie",
        [
          QCheck_alcotest.to_alcotest prop_trie_find_equals_reference;
          QCheck_alcotest.to_alcotest prop_trie_lookup_equals_find;
          Alcotest.test_case "lone filter cost = compiled" `Quick
            test_trie_single_filter_costs_match_compiled;
        ] );
    ]
