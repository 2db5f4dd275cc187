type backend = Interpreter | Compiled

let backend_name = function
  | Interpreter -> "interp"
  | Compiled -> "compiled"

let backend_of_string = function
  | "interp" | "interpreter" -> Some Interpreter
  | "compiled" | "closure" -> Some Compiled
  | _ -> None

let default_backend = ref Compiled

let default () = !default_backend

let set_default b = default_backend := b

let with_default b f =
  let saved = !default_backend in
  default_backend := b;
  Fun.protect ~finally:(fun () -> default_backend := saved) f

type prepared = {
  program : Program.t;
  mutable compiled : Compile.t option;
}

let prepare program = { program; compiled = None }

let program p = p.program

(* The closure artifact is generated at most once per prepared program.
   Kernels share one prepared value per distinct ASH download through
   the kernel's process-wide download memo, so a handler compiles once
   per process. Two domains forcing the same value at once may both
   compile; the artifacts are equivalent and either may win. *)
let compiled p =
  match p.compiled with
  | Some c -> c
  | None ->
    let c = Compile.compile p.program in
    p.compiled <- Some c;
    c

let force p = ignore (compiled p)

let run ?backend env ?regs_init p =
  let b = match backend with Some b -> b | None -> !default_backend in
  match b with
  | Interpreter -> Interp.run env ?regs_init p.program
  | Compiled -> Compile.run env ?regs_init (compiled p)
