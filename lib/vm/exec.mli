(** The execution-backend interface.

    Every layer that runs downloaded code (kernel ASH/upcall dispatch,
    DPF message demultiplexing, DILP transfers) executes through this
    module, selecting between two observably identical backends:

    - {!Interpreter}: {!Interp.run}, opcode dispatch per instruction;
    - {!Compiled}: {!Compile}, closures generated once at download time.

    "Observably identical" means the same {!Interp.result} and the same
    simulated cycle/cache accounting — switching backends changes host
    wall-clock only, never a simulated number. *)

type backend = Interpreter | Compiled

val backend_name : backend -> string

val backend_of_string : string -> backend option
(** Accepts ["interp"], ["interpreter"], ["compiled"], ["closure"]. *)

val default : unit -> backend
(** Process-wide default backend, {!Compiled} at startup. *)

val set_default : backend -> unit

val with_default : backend -> (unit -> 'a) -> 'a
(** Run a thunk with the default backend swapped, restoring on exit
    (also on exception). Used by bench/tests to compare backends. *)

type prepared
(** A program prepared for execution: carries a memoised compiled
    artifact. The artifact is created lazily on first compiled-backend
    run, so interpreter-only use never pays for it. *)

val prepare : Program.t -> prepared

val program : prepared -> Program.t

val force : prepared -> unit
(** Generate the closure artifact now — the kernel calls this at
    download time so no message ever pays the translation. *)

val run :
  ?backend:backend ->
  Interp.env ->
  ?regs_init:(Isa.reg * int) list ->
  prepared ->
  Interp.result
(** Execute under [backend] (default: {!default} ()). Signature mirrors
    {!Interp.run}. *)
