(* IEEE 802.3 CRC-32 (polynomial 0xEDB88320, reflected), slice-by-8.
   Used for page and WAL-record checksums; must stay stable forever, since
   the values are part of the on-disk formats.

   The accumulator is a native int holding the 32 CRC bits (int has 63 bits
   on the 64-bit platforms the engine targets), so the inner loop neither
   boxes nor allocates; it becomes an [int32] once per call. [table] holds
   eight 256-entry rows: row 0 is the classic byte-at-a-time table, and row
   [k] gives a byte's contribution when [k] more bytes follow it, so one
   step folds eight bytes through eight independent lookups. *)

let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let[@inline] row k i = Array.unsafe_get table ((k lsl 8) lor i)
let[@inline] byte buf i = Char.code (Bytes.unsafe_get buf i)

(* [buf.[pos, pos + len)] must already be bounds-checked. *)
let feed crc buf pos len =
  let crc = ref crc and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let lo =
      !crc
      lxor (byte buf j
           lor (byte buf (j + 1) lsl 8)
           lor (byte buf (j + 2) lsl 16)
           lor (byte buf (j + 3) lsl 24))
    in
    crc :=
      row 7 (lo land 0xFF)
      lxor row 6 ((lo lsr 8) land 0xFF)
      lxor row 5 ((lo lsr 16) land 0xFF)
      lxor row 4 (lo lsr 24)
      lxor row 3 (byte buf (j + 4))
      lxor row 2 (byte buf (j + 5))
      lxor row 1 (byte buf (j + 6))
      lxor row 0 (byte buf (j + 7));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc := row 0 ((!crc lxor byte buf j) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let start = 0xFFFFFFFFl
let finish crc = Int32.logxor crc 0xFFFFFFFFl

let bytes ?(crc = start) buf ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length buf - pos then
    invalid_arg "Crc32: range out of bounds";
  Int32.of_int (feed (Int32.to_int crc land 0xFFFFFFFF) buf pos len)

let string ?(crc = start) s ~pos ~len =
  bytes ~crc (Bytes.unsafe_of_string s) ~pos ~len

let of_string s = finish (string s ~pos:0 ~len:(String.length s))
let of_bytes b = finish (bytes b ~pos:0 ~len:(Bytes.length b))
