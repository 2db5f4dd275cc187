module Machine = Ash_sim.Machine
module Memory = Ash_sim.Memory

type outcome =
  | Committed
  | Aborted
  | Returned
  | Killed of Isa.violation

type result = {
  outcome : outcome;
  insns : int;
  check_insns : int;
  cycles : int;
  regs : int array;
}

type env = {
  machine : Machine.t;
  msg_addr : int;
  msg_len : int;
  allowed_calls : Isa.kcall list;
  dilp : id:int -> src:int -> dst:int -> len:int -> regs:int array -> bool;
  send : Bytes.t -> unit;
  gas_cycles : int;
}

let default_gas = 200_000

let mask32 v = v land 0xffff_ffff

exception Kill of Isa.violation

(* Hard backstop on interpreter steps independent of the cycle budget,
   so a mis-configured gas value cannot hang the host. *)
let max_steps = 20_000_000

(* Everything below takes its state as arguments: a run allocates its
   register file and its result, and nothing per instruction. *)

let get regs r = if r = Isa.reg_zero then 0 else regs.(r)

let set regs r v = if r <> Isa.reg_zero then regs.(r) <- mask32 v

let rec seed regs = function
  | [] -> ()
  | (r, v) :: rest ->
    regs.(r) <- mask32 v;
    seed regs rest

let addr_ok m addr size = Memory.is_resident (Machine.mem m) ~addr ~size

let spent m start = Machine.consumed_cycles m - start

(* Aggregated access check of the trusted interface (§III-B2). *)
let msg_bound env m off size =
  Machine.charge_cycles m 1;
  if off < 0 || size < 0 || off + size > env.msg_len then
    raise (Kill (Isa.Mem_fault (env.msg_addr + off)))

(* [List.memq], not [List.mem]: every [Isa.kcall] constructor is
   constant, so physical equality is exact and skips the polymorphic
   compare on each call. A constructor with arguments would break
   this. *)
let kcall env m regs k =
  if not (List.memq k env.allowed_calls) then raise (Kill (Isa.Call_denied k));
  let a0 = get regs Isa.reg_arg0
  and a1 = get regs Isa.reg_arg1
  and a2 = get regs Isa.reg_arg2
  and a3 = get regs Isa.reg_arg3 in
  match k with
  | Isa.K_msg_len -> set regs Isa.reg_arg0 env.msg_len
  | Isa.K_msg_read8 ->
    msg_bound env m a0 1;
    set regs Isa.reg_arg0 (Machine.load8 m (env.msg_addr + a0))
  | Isa.K_msg_read16 ->
    msg_bound env m a0 2;
    set regs Isa.reg_arg0 (Machine.load16 m (env.msg_addr + a0))
  | Isa.K_msg_read32 ->
    msg_bound env m a0 4;
    set regs Isa.reg_arg0 (Machine.load32 m (env.msg_addr + a0))
  | Isa.K_msg_write32 ->
    msg_bound env m a0 4;
    Machine.store32 m (env.msg_addr + a0) a1
  | Isa.K_copy ->
    msg_bound env m a0 a2;
    Machine.charge_cycles m 10;
    if not (addr_ok m a1 (max a2 1)) then raise (Kill (Isa.Mem_fault a1));
    Machine.copy m ~src:(env.msg_addr + a0) ~dst:a1 ~len:a2
  | Isa.K_dilp ->
    msg_bound env m a1 a3;
    Machine.charge_cycles m 10;
    let ok = env.dilp ~id:a0 ~src:(env.msg_addr + a1) ~dst:a2 ~len:a3 ~regs in
    set regs Isa.reg_arg0 (if ok then 1 else 0)
  | Isa.K_send ->
    Machine.charge_cycles m 10;
    if a1 < 0 || a1 > 65536 then raise (Kill (Isa.Mem_fault a0));
    let frame = Bytes.create a1 in
    Memory.blit_to_bytes (Machine.mem m) ~src:a0 ~dst:frame ~dst_off:0 ~len:a1;
    env.send frame

let finish (p : Program.t) m start regs ~insns ~check_insns outcome =
  let cycles = spent m start in
  if Ash_obs.Trace.enabled () then begin
    let outcome_str, violation =
      match outcome with
      | Committed -> ("commit", None)
      | Aborted -> ("abort", None)
      | Returned -> ("return", None)
      | Killed v -> ("kill", Some v)
    in
    Ash_obs.Trace.emit
      (Ash_obs.Trace.Vm_run
         { name = p.Program.name; outcome = outcome_str; insns; check_insns;
           cycles });
    match violation with
    | Some v ->
      Ash_obs.Trace.emit
        (Ash_obs.Trace.Sandbox_violation
           { reason = Format.asprintf "%a" Isa.pp_violation v })
    | None -> ()
  end;
  { outcome; insns; check_insns; cycles; regs }

(* Run states: [running] until a terminator retires. *)
let running = 0
let committed = 1
let aborted = 2
let returned = 3

let run env ?(regs_init = []) (p : Program.t) =
  let m = env.machine in
  let extra = (Machine.costs m).Ash_sim.Costs.sandboxed_insn_extra_cycles in
  let code = p.Program.code in
  let len = Array.length code in
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.reg_msg_addr) <- env.msg_addr;
  regs.(Isa.reg_msg_len) <- env.msg_len;
  seed regs regs_init;
  let start = Machine.consumed_cycles m in
  let pc = ref 0 and insns = ref 0 and check_insns = ref 0 in
  let state = ref running in
  match
    while !state = running do
      let i = !pc in
      if i < 0 || i >= len then raise (Kill (Isa.Wild_jump i));
      if !insns >= max_steps || spent m start > env.gas_cycles then
        raise (Kill Isa.Gas_exhausted);
      incr insns;
      let next = i + 1 in
      (* Each arm charges the instruction's cycles, then executes it.
         Memory instructions are charged by the Machine accessors;
         sandbox-inserted checks pay the per-check overhead on top. *)
      pc :=
        match Array.unsafe_get code i with
        | Isa.Li (d, v) ->
          Machine.charge_cycles m 1;
          set regs d v;
          next
        | Isa.Mov (d, s) ->
          Machine.charge_cycles m 1;
          set regs d (get regs s);
          next
        | Isa.Add (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a + get regs b);
          next
        | Isa.Addi (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a + v);
          next
        | Isa.Sub (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a - get regs b);
          next
        | Isa.Mul (d, a, b) ->
          Machine.charge_cycles m 8;
          set regs d (get regs a * get regs b);
          next
        | Isa.Divu (d, a, b) ->
          Machine.charge_cycles m 35;
          let bv = get regs b in
          if bv = 0 then raise (Kill Isa.Div_by_zero);
          set regs d (get regs a / bv);
          next
        | Isa.Remu (d, a, b) ->
          Machine.charge_cycles m 35;
          let bv = get regs b in
          if bv = 0 then raise (Kill Isa.Div_by_zero);
          set regs d (get regs a mod bv);
          next
        | Isa.And_ (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a land get regs b);
          next
        | Isa.Or_ (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lor get regs b);
          next
        | Isa.Xor_ (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lxor get regs b);
          next
        | Isa.Andi (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a land v);
          next
        | Isa.Ori (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lor v);
          next
        | Isa.Xori (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lxor v);
          next
        | Isa.Sll (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lsl (v land 31));
          next
        | Isa.Srl (d, a, v) ->
          Machine.charge_cycles m 1;
          set regs d (get regs a lsr (v land 31));
          next
        | Isa.Sltu (d, a, b) ->
          Machine.charge_cycles m 1;
          set regs d (if get regs a < get regs b then 1 else 0);
          next
        | Isa.Ld8 (d, b, o) ->
          set regs d (Machine.load8 m (get regs b + o));
          next
        | Isa.Ld16 (d, b, o) ->
          set regs d (Machine.load16 m (get regs b + o));
          next
        | Isa.Ld32 (d, b, o) ->
          set regs d (Machine.load32 m (get regs b + o));
          next
        | Isa.St8 (s, b, o) ->
          Machine.store8 m (get regs b + o) (get regs s);
          next
        | Isa.St16 (s, b, o) ->
          Machine.store16 m (get regs b + o) (get regs s);
          next
        | Isa.St32 (s, b, o) ->
          Machine.store32 m (get regs b + o) (get regs s);
          next
        | Isa.Beq (a, b, t) ->
          Machine.charge_cycles m 1;
          if get regs a = get regs b then t else next
        | Isa.Bne (a, b, t) ->
          Machine.charge_cycles m 1;
          if get regs a <> get regs b then t else next
        | Isa.Bltu (a, b, t) ->
          Machine.charge_cycles m 1;
          if get regs a < get regs b then t else next
        | Isa.Bgeu (a, b, t) ->
          Machine.charge_cycles m 1;
          if get regs a >= get regs b then t else next
        | Isa.Jmp t ->
          Machine.charge_cycles m 1;
          t
        | Isa.Jr r -> begin
            Machine.charge_cycles m 1;
            let v = get regs r in
            match p.Program.jump_map with
            | Some map when v >= 0 && v < Array.length map -> map.(v)
            | Some _ -> raise (Kill (Isa.Wild_jump v))
            | None ->
              if v >= 0 && v < len then v else raise (Kill (Isa.Wild_jump v))
          end
        | Isa.Call k ->
          Machine.charge_cycles m 1;
          kcall env m regs k;
          next
        | Isa.Cksum32 (acc, s) ->
          Machine.charge_cycles m 2;
          let sum = get regs acc + get regs s in
          set regs acc
            (if sum > 0xffff_ffff then (sum land 0xffff_ffff) + 1 else sum);
          next
        | Isa.Bswap16 (d, s) ->
          Machine.charge_cycles m 4;
          set regs d (Ash_util.Bytesx.bswap16 (get regs s));
          next
        | Isa.Bswap32 (d, s) ->
          Machine.charge_cycles m 9;
          set regs d (Ash_util.Bytesx.bswap32 (get regs s));
          next
        | Isa.Commit ->
          Machine.charge_cycles m 1;
          state := committed;
          next
        | Isa.Abort ->
          Machine.charge_cycles m 1;
          state := aborted;
          next
        | Isa.Halt ->
          Machine.charge_cycles m 1;
          state := returned;
          next
        | Isa.Adds (d, a, b) ->
          (* Unsandboxed execution of a signed add that the verifier
             should have rejected: behaves as unsigned here. *)
          Machine.charge_cycles m 1;
          set regs d (get regs a + get regs b);
          next
        | Isa.Fadd _ ->
          Machine.charge_cycles m 2;
          raise (Kill (Isa.Verifier_reject "floating point at runtime"))
        | Isa.Check_addr (r, o, size) ->
          incr check_insns;
          Machine.charge_cycles m (1 + extra);
          let addr = get regs r + o in
          if not (addr_ok m addr size) then raise (Kill (Isa.Mem_fault addr));
          next
        | Isa.Check_div r ->
          incr check_insns;
          Machine.charge_cycles m (1 + extra);
          if get regs r = 0 then raise (Kill Isa.Div_by_zero);
          next
        | Isa.Check_jump r -> begin
            incr check_insns;
            Machine.charge_cycles m (1 + extra);
            let v = get regs r in
            match p.Program.jump_map with
            | Some map when v >= 0 && v < Array.length map -> next
            | _ when v >= 0 && v < len -> next
            | _ -> raise (Kill (Isa.Wild_jump v))
          end
        | Isa.Gas_probe ->
          incr check_insns;
          Machine.charge_cycles m (1 + extra);
          if spent m start > env.gas_cycles then raise (Kill Isa.Gas_exhausted);
          next
    done
  with
  | () ->
    let outcome =
      if !state = committed then Committed
      else if !state = aborted then Aborted
      else Returned
    in
    finish p m start regs ~insns:!insns ~check_insns:!check_insns outcome
  | exception Kill v ->
    finish p m start regs ~insns:!insns ~check_insns:!check_insns (Killed v)
  | exception Memory.Fault f ->
    finish p m start regs ~insns:!insns ~check_insns:!check_insns
      (Killed (Isa.Mem_fault f.addr))
