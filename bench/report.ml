(* Plain-text table rendering for the experiment reports. *)

let print_header title =
  let line = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n==  %s  ==\n%s\n" line title line

let print_note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* Render rows with right-aligned numeric columns. *)
let print_table ~columns rows =
  let ncols = List.length columns in
  let widths = Array.of_list (List.map String.length columns) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let print_row cells =
    List.iteri
      (fun i cell ->
        if i < ncols then Printf.printf "%s%*s" (if i = 0 then "" else "  ") widths.(i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') columns);
  List.iter print_row rows

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = (Unix.gettimeofday () -. t0) *. 1000. in
  (result, dt)

(* Repeat until at least [min_time_ms] elapsed; returns per-iteration ms. *)
let time_stable ?(min_time_ms = 50.) f =
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  let elapsed () = (Unix.gettimeofday () -. t0) *. 1000. in
  while elapsed () < min_time_ms || !iters = 0 do
    ignore (Sys.opaque_identity (f ()));
    incr iters
  done;
  elapsed () /. float_of_int !iters

let fmt_ms ms =
  if ms < 0.01 then Printf.sprintf "%.4f" ms
  else if ms < 1. then Printf.sprintf "%.3f" ms
  else if ms < 100. then Printf.sprintf "%.2f" ms
  else Printf.sprintf "%.0f" ms

let fmt_ratio r = Printf.sprintf "%.2fx" r

let fmt_bytes n =
  if n >= 10_000_000 then Printf.sprintf "%.1fMB" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fKB" (float_of_int n /. 1e3)
  else Printf.sprintf "%dB" n

(* Uniform gate verdict line. A skipped gate must read as "not checked",
   never as a pass — e.g. E15's informational 0.17x speedup on a 1-core
   host is a measurement, not a regression, and must not render like
   either a PASS or a FAIL. *)
let print_gate ~name verdict =
  match verdict with
  | `Passed -> Printf.printf "  gate %-28s PASSED\n" name
  | `Failed -> Printf.printf "  gate %-28s FAILED\n" name
  | `Skipped reason ->
      Printf.printf "  gate %-28s SKIPPED (informational only): %s\n" name reason

(* Host/runtime metadata embedded in every BENCH_*.json so scaling numbers
   are interpretable later: how many cores the host had, and what
   parallelism the engine ran with (mirrors Database.default_config's
   RX_PARALLELISM handling — 0/absent means one domain per core). *)
let host_cores () = Domain.recommended_domain_count ()

let effective_parallelism () =
  match Sys.getenv_opt "RX_PARALLELISM" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> host_cores ())
  | None -> host_cores ()

(* One JSON object member (no trailing comma): [ "meta": {...} ]; [extra]
   members are appended as already-rendered JSON values. *)
let json_meta ?(extra = []) () =
  Printf.sprintf {|"meta": { "host_cores": %d, "parallelism": %d%s }|}
    (host_cores ()) (effective_parallelism ())
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf {|, "%s": %s|} k v) extra))

(* Per-layer counter deltas (e.g. [Database.run]'s profile) as aligned
   "name value" lines, widest-delta first so the dominant cost leads. *)
let print_counters ?(indent = "  ") counters =
  List.stable_sort (fun (_, a) (_, b) -> compare b a) counters
  |> List.iter (fun (name, v) -> Printf.printf "%s%-28s %d\n" indent name v)
