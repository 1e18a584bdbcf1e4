(* Clock, sample statistics and file helpers shared by the run modes. *)

(* monotonic nanoseconds: immune to wall-clock steps during a run *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Sample quantile by linear interpolation between closest ranks, the
   method Python's statistics.quantiles(..., method='inclusive') uses. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else
      let f = pos -. float_of_int i in
      sorted.(i) +. (f *. (sorted.(i + 1) -. sorted.(i)))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile (sorted_floats l) 0.5

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* reads to end of file: /proc files report a length of 0 *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* first line of [path] that starts with [prefix], minus the prefix *)
let line_with_prefix path prefix =
  match read_file path with
  | exception Sys_error _ -> None
  | s ->
      List.find_map
        (fun l ->
          let n = String.length prefix in
          if String.starts_with ~prefix l then Some (String.sub l n (String.length l - n))
          else None)
        (String.split_on_char '\n' s)

let num x = Rx_obs.Json.Num x
let str s = Rx_obs.Json.Str s
