module Engine = Ash_sim.Engine
module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory
module Costs = Ash_sim.Costs
module Kernel = Ash_kern.Kernel
module Ethernet = Ash_nic.Ethernet
module Switch = Ash_nic.Switch
module Arp = Ash_proto.Arp
module Tcp = Ash_proto.Tcp
module Udp = Ash_proto.Udp
module Packet = Ash_proto.Packet
module Bytesx = Ash_util.Bytesx

type node = {
  idx : int;
  ip : int;
  mac : int;
  kernel : Kernel.t;
  eth : Ethernet.t;
  arp : Arp.t;
}

type core = {
  core_idx : int;
  core_shard : int;
  core_kernel : Kernel.t;
  core_eth : Ethernet.t;
}

type t = {
  engine : Engine.t; (* shard 0's engine — the whole fabric when shards=1 *)
  costs : Costs.t;
  switch : Switch.t;
  nodes : node array;
  cluster : Engine.Cluster.t;
  jobs : int;
  cores : core array; (* host 0's RSS cores; [||] unless server_cores > 1 *)
}

let ip_of_index i = 0x0a00_0000 lor (i + 1)
let mac_of_index i = 0x0200_0000_0000 lor (i + 1)

(* Destination-station hook, consulted per transmitted frame: IPv4
   frames route by the destination address through the node's ARP
   cache; ARP replies unicast back to the requester whose station
   address is right there in the packet; everything else (notably ARP
   requests) broadcasts. An IPv4 destination the cache cannot resolve
   also goes out as broadcast — harmless before the ARP warm-up, exact
   afterwards. *)
let route arp frame =
  let len = Bytes.length frame in
  if len >= Packet.ip_header_len && Bytesx.get_u8 frame 0 = 0x45 then
    Arp.lookup arp ~ip:(Bytesx.get_u32 frame 16)
  else
    match Arp.Wire.read frame with
    | Ok p when p.Arp.Wire.op = Arp.Wire.op_reply ->
      Some p.Arp.Wire.target_mac
    | _ -> None

(* The RSS cores of a multi-queue host share one station address but
   only core 0 owns an ARP endpoint, so the other rings route from the
   fabric's static address plan instead of a (cross-shard) ARP cache:
   addresses here are a pure function of the host index. *)
let static_route ~hosts frame =
  let len = Bytes.length frame in
  if len >= Packet.ip_header_len && Bytesx.get_u8 frame 0 = 0x45 then begin
    let dst = Bytesx.get_u32 frame 16 in
    let i = (dst land 0x00ff_ffff) - 1 in
    if dst lsr 24 = 0x0a && i >= 0 && i < hosts then Some (mac_of_index i)
    else None
  end
  else
    match Arp.Wire.read frame with
    | Ok p when p.Arp.Wire.op = Arp.Wire.op_reply ->
      Some p.Arp.Wire.target_mac
    | _ -> None

let create ?(costs = Costs.decstation) ?(queue_limit = 16)
    ?notify_queue_limit ?(shards = 1) ?(jobs = 1) ?epoch_ns
    ?(server_cores = 1) ~hosts () =
  if hosts < 2 then invalid_arg "Fabric.create: need at least two hosts";
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  if server_cores < 1 then
    invalid_arg "Fabric.create: server_cores must be >= 1";
  (* The epoch must not exceed the minimum cross-shard virtual latency;
     every cross-shard hop in this topology is a wire with at least
     [eth_hw_oneway_ns] of fixed delay, so events posted during an
     epoch always land beyond it and sharding cannot change virtual
     timing. *)
  let epoch_ns =
    match epoch_ns with
    | None -> min 25_000 costs.Costs.eth_hw_oneway_ns
    | Some e ->
      if e < 1 || e > costs.Costs.eth_hw_oneway_ns then
        invalid_arg "Fabric.create: epoch_ns must be in [1, eth_hw_oneway_ns]";
      e
  in
  let cluster = Engine.Cluster.create ~epoch_ns ~shards () in
  (* Telemetry: per-shard event backlog — the load-balance view of a
     sharded run (all shards sampled together at the epoch barrier). *)
  (match Ash_obs.Timeseries.current () with
   | None -> ()
   | Some ts ->
     for s = 0 to shards - 1 do
       let e = Engine.Cluster.engine cluster s in
       Ash_obs.Timeseries.register_gauge ts
         (Printf.sprintf "engine.shard%d.pending" s)
         (fun () -> float_of_int (Engine.pending e))
     done);
  let shard_engine s = Engine.Cluster.engine cluster s in
  let shard_exec s =
    if shards > 1 then Some (Engine.Cluster.exec cluster s) else None
  in
  let shard_of_host h = h mod shards in
  let engine = shard_engine 0 in
  let switch = Switch.create engine ~queue_limit ~costs ~ports:hosts () in
  (match shard_exec 0 with
   | Some exec -> Switch.set_exec switch exec
   | None -> ());
  let set_rx nic s =
    match shard_exec s with
    | Some exec -> Ethernet.set_rx_exec nic exec
    | None -> ()
  in
  let cores = ref [||] in
  let nodes =
    Array.init hosts (fun i ->
        let s = shard_of_host i in
        let e = shard_engine s in
        if i = 0 && server_cores > 1 then begin
          (* Multi-queue server: one kernel + ring NIC per core, all
             behind one RSS switch port. Core c lives on shard
             (c mod shards); the flow hash decides which core — and
             therefore which shard — serves each flow. *)
          let built =
            Array.init server_cores (fun c ->
                let cs = c mod shards in
                let ce = shard_engine cs in
                let k =
                  Kernel.create ?notify_queue_limit ce costs
                    ~name:(Printf.sprintf "host0.core%d" c)
                in
                let ring = Ethernet.create ce (Kernel.machine k) in
                Kernel.attach_ethernet k ring;
                Ethernet.set_mac ring (mac_of_index 0);
                Ethernet.set_route ring (static_route ~hosts);
                set_rx ring cs;
                { core_idx = c; core_shard = cs; core_kernel = k;
                  core_eth = ring })
          in
          cores := built;
          Switch.attach_rss switch ~port:0
            (Array.map (fun c -> c.core_eth) built);
          let k0 = built.(0).core_kernel in
          let arp =
            Arp.create k0 ~my_ip:(ip_of_index 0) ~my_mac:(mac_of_index 0)
          in
          { idx = 0; ip = ip_of_index 0; mac = mac_of_index 0; kernel = k0;
            eth = built.(0).core_eth; arp }
        end
        else begin
          let kernel =
            Kernel.create ?notify_queue_limit e costs
              ~name:("host" ^ string_of_int i)
          in
          let eth = Ethernet.create e (Kernel.machine kernel) in
          Kernel.attach_ethernet kernel eth;
          Ethernet.set_mac eth (mac_of_index i);
          set_rx eth s;
          Switch.attach switch ~port:i eth;
          let arp =
            Arp.create kernel ~my_ip:(ip_of_index i) ~my_mac:(mac_of_index i)
          in
          Ethernet.set_route eth (route arp);
          { idx = i; ip = ip_of_index i; mac = mac_of_index i; kernel; eth;
            arp }
        end)
  in
  { engine; costs; switch; nodes; cluster; jobs; cores = !cores }

let hosts t = Array.length t.nodes
let host t i = t.nodes.(i)
let engine t = t.engine
let switch t = t.switch
let cluster t = t.cluster
let shards t = Engine.Cluster.shards t.cluster
let jobs t = t.jobs
let shard_of_host t h = h mod shards t
let host_engine t h = Engine.Cluster.engine t.cluster (shard_of_host t h)
let cores t = t.cores
let now t = Engine.Cluster.now t.cluster
let run t = Engine.Cluster.run ~jobs:t.jobs t.cluster
let run_until t at = Engine.Cluster.run_until ~jobs:t.jobs t.cluster at
let run_for t d = run_until t (now t + d)
let now_us t = Ash_sim.Time.us_of_ns (now t)

let alloc n ?(name = "app") len =
  Memory.alloc (Machine.mem (Kernel.machine n.kernel)) ~name len

let alloc_filled n ?(name = "payload") ~seed len =
  let r = alloc n ~name len in
  let payload = Bytes.create len in
  Ash_util.Rng.fill_bytes (Ash_util.Rng.create seed) payload;
  Memory.blit_from_bytes
    (Machine.mem (Kernel.machine n.kernel))
    ~src:payload ~src_off:0 ~dst:r.Memory.base ~len;
  r

(* Pre-resolve the server's station address from every other host, one
   host per virtual millisecond so the request broadcasts don't pile up
   on the finite egress queues. The broadcasts teach the server (and
   the switch) every client's address in the same sweep, so a warmed
   fabric runs all-unicast. Each resolution is scheduled on its host's
   own shard. *)
let warm_arp t ~server =
  let ip = t.nodes.(server).ip in
  Array.iter
    (fun n ->
       if n.idx <> server then
         ignore
           (Engine.schedule
              (host_engine t n.idx)
              ~delay:(n.idx * 1_000_000)
              (fun () -> Arp.resolve n.arp ~ip (fun _ -> ()))))
    t.nodes;
  run t;
  Array.iter
    (fun n ->
       if n.idx <> server && Arp.lookup n.arp ~ip = None then
         failwith "Fabric.warm_arp: resolution failed")
    t.nodes

(* A connection's two endpoints, preconfigured for each other. Ports
   must be unique per live connection: Ethernet TCP demux filters match
   (proto, src_port, dst_port). Creation installs the endpoint's demux
   filter, so on a sharded fabric each side must be created on its own
   host's shard — hence the split constructors. *)
let tcp_base ~mss ~window ~checksum ~rto =
  { Tcp.default_config with
    medium = Tcp.Tcp_ethernet; mss; window; checksum; rto }

let tcp_client t ~client ~server ~client_port ~server_port
    ?(mss = 1460) ?(window = 4096) ?(checksum = false)
    ?(rto = Tcp.default_rto) () =
  let cn = t.nodes.(client) and sn = t.nodes.(server) in
  Tcp.create cn.kernel
    { (tcp_base ~mss ~window ~checksum ~rto) with
      local_ip = cn.ip; local_port = client_port;
      remote_ip = sn.ip; remote_port = server_port;
      iss = 1_000 + client_port }

let tcp_server t ~client ~server ~client_port ~server_port
    ?(mss = 1460) ?(window = 4096) ?(checksum = false)
    ?(rto = Tcp.default_rto) () =
  let cn = t.nodes.(client) and sn = t.nodes.(server) in
  Tcp.create sn.kernel
    { (tcp_base ~mss ~window ~checksum ~rto) with
      local_ip = sn.ip; local_port = server_port;
      remote_ip = cn.ip; remote_port = client_port;
      iss = 5_000 + server_port }

let tcp_pair t ~client ~server ~client_port ~server_port
    ?(mss = 1460) ?(window = 4096) ?(checksum = false)
    ?(rto = Tcp.default_rto) () =
  let c =
    tcp_client t ~client ~server ~client_port ~server_port ~mss ~window
      ~checksum ~rto ()
  in
  let s =
    tcp_server t ~client ~server ~client_port ~server_port ~mss ~window
      ~checksum ~rto ()
  in
  (c, s)

let udp_pair t ~client ~server ~client_port ~server_port
    ?(checksum = false) () =
  let cn = t.nodes.(client) and sn = t.nodes.(server) in
  let base =
    { Udp.default_config with
      medium = Udp.Ethernet; checksum;
      mtu_payload =
        t.costs.Costs.eth_mtu - Packet.ip_header_len - Packet.udp_header_len }
  in
  let c =
    Udp.create cn.kernel
      { base with
        local_ip = cn.ip; local_port = client_port;
        remote_ip = sn.ip; remote_port = server_port }
  in
  let s =
    Udp.create sn.kernel
      { base with
        local_ip = sn.ip; local_port = server_port;
        remote_ip = cn.ip; remote_port = client_port }
  in
  (c, s)
