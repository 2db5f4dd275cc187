(* Slicing-by-4 over native ints (a CRC-32 needs 32 bits, so a 63-bit
   [int] holds it unboxed). [table] holds four 256-entry tables back to
   back: entry [k * 256 + n] is the CRC register after byte [n] followed
   by [k] zero bytes, so one step folds a whole little-endian word. *)
let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 1023 do
    let c = t.(i - 256) in
    t.(i) <- t.(c land 0xff) lxor (c lsr 8)
  done;
  t

let digest b ~off ~len =
  (* [off > length - len], not [off + len > length]: the sum can
     overflow, and the loops below read without bounds checks. *)
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.digest";
  (* Every index below is a byte (or a byte plus 256 k), so in range. *)
  let t k = Array.unsafe_get table k in
  let crc = ref 0xffff_ffff in
  let i = ref off in
  let words_end = off + len - 3 in
  while !i < words_end do
    let c =
      !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xffff_ffff)
    in
    crc :=
      t (768 + (c land 0xff))
      lxor t (512 + ((c lsr 8) land 0xff))
      lxor t (256 + ((c lsr 16) land 0xff))
      lxor t (c lsr 24);
    i := !i + 4
  done;
  for j = !i to off + len - 1 do
    crc := t ((!crc lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
           lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xffff_ffff)

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
