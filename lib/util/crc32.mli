(** IEEE CRC-32 (the zlib/Ethernet polynomial), slice-by-8: eight bytes
    per step, no allocation but the [int32] each call returns.

    This is the checksum stamped into page headers and WAL record frames,
    so the function is part of the on-disk format and must never change.
    The incremental API ([start] / [bytes] / [string] / [finish]) lets a
    caller checksum a page image while skipping the field that stores the
    checksum itself. *)

val start : int32
(** Initial accumulator value for an incremental computation. *)

val bytes : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** Feeds [len] bytes starting at [pos] into the accumulator [crc]
    (default {!start}); returns the new accumulator. Pure; raises
    [Invalid_argument] if the range is out of bounds. *)

val string : ?crc:int32 -> string -> pos:int -> len:int -> int32
(** Same as {!bytes} over a string. *)

val finish : int32 -> int32
(** Finalizes an accumulator into the canonical CRC-32 value. *)

val of_string : string -> int32
(** One-shot checksum of a whole string. *)

val of_bytes : bytes -> int32
(** One-shot checksum of a whole byte buffer. *)
