(* rxbench compare A.json B.json: every workload x metric on its own row,
   median and quartiles per side, and a verdict against BENCHMARK.json's
   bounds. A side's spread is the distance between its quartiles as a
   share of its median. A metric is unresolved when either spread exceeds
   its bound, unless every run of one side beats every run of the other. *)

open Util

module J = Rx_obs.Json

(* The quartiles Python's statistics.quantiles(values, n=4) gives (its
   default 'exclusive' method), so spreads read the same as there. *)
let quartiles values =
  let d = sorted_floats values in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let records path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"{\"rxbench\"" line then
           J.member "rxbench" (J.of_string line)
         else None)

let field name j = Option.get (J.member name j)
let str_of = function J.Str s -> s | _ -> invalid_arg "string expected"
let num_of = function J.Num v -> v | _ -> invalid_arg "number expected"

(* (workload, metric) -> values over the runs of one side, the unbounded
   extras included *)
let values rs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let w = str_of (field "workload" r) in
      List.iter
        (fun section ->
          match J.member section r with
          | Some (J.Obj ms) ->
              List.iter
                (fun (name, v) ->
                  let x = num_of (field "value" v) in
                  Hashtbl.replace tbl (w, name)
                    (x :: Option.value ~default:[] (Hashtbl.find_opt tbl (w, name))))
                ms
          | _ -> ())
        [ "metrics"; "extra" ])
    rs;
  tbl

type bound = { better : string; bound : float option }

let bounds benchmark =
  let j = J.of_string (read_file benchmark) in
  let section key ~bounded =
    match J.member key j with
    | Some (J.Arr ms) ->
        List.map
          (fun mj ->
            ( str_of (field "name" mj),
              {
                better = str_of (field "better" mj);
                bound = (if bounded then Some (num_of (field "bound" mj)) else None);
              } ))
          ms
    | _ -> []
  in
  section "end_to_end" ~bounded:true @ section "per_layer" ~bounded:false

let spread v =
  let q1, med, q3 = quartiles v in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* The verdict on B against A. [worse x y] is positive when y is worse
   than x; [worse_by] is B's median against A's, positive when B is worse. *)
let verdict b va vb =
  let _, ma, _ = quartiles va and _, mb, _ = quartiles vb in
  let worse x y = if b.better = "higher" then x -. y else y -. x in
  let worse_by = if ma = 0. then 0. else worse ma mb /. Float.abs ma in
  (* every run of [xs] beats every run of [ys] *)
  let all_beat xs ys =
    List.for_all (fun x -> List.for_all (fun y -> worse x y > 0.) ys) xs
  in
  match b.bound with
  | None -> "-"
  | Some bound ->
      if Float.max (spread va) (spread vb) > bound then
        if all_beat vb va then "better"
        else if all_beat va vb then "worse"
        else "unresolved"
      else if worse_by > bound then "worse"
      else if worse_by < -.bound then "better"
      else "unchanged"

(* The verdict on hand-made sides, for both directions of a metric: tight
   sides judged by their medians, wide sides by whether one beats the
   other outright. Returns the cases that come out wrong. *)
let self_check () =
  let tight = [ 99.; 100.; 100.; 101. ] and wide = [ 70.; 100.; 100.; 130. ] in
  let scale k = List.map (fun x -> k *. x) in
  let cases =
    [
      ("lower", tight, tight, "unchanged");
      ("lower", tight, scale 1.5 tight, "worse");
      ("lower", tight, scale 0.5 tight, "better");
      ("lower", wide, scale 3. wide, "worse");
      ("lower", wide, scale 0.3 wide, "better");
      ("lower", wide, scale 1.1 wide, "unresolved");
      ("higher", tight, tight, "unchanged");
      ("higher", tight, scale 1.5 tight, "better");
      ("higher", tight, scale 0.5 tight, "worse");
      ("higher", wide, scale 3. wide, "better");
      ("higher", wide, scale 0.3 wide, "worse");
      ("higher", wide, scale 1.1 wide, "unresolved");
    ]
  in
  List.filter_map
    (fun (better, a, b, expected) ->
      let got = verdict { better; bound = Some 0.1 } a b in
      if got = expected then None
      else
        Some
          (Printf.sprintf "compare: %s-is-better, B = %.2g x A: %s, expected %s" better
             (List.nth b 1 /. List.nth a 1) got expected))
    cases

let run ~benchmark a b =
  let bounds = bounds benchmark in
  let va = values (records a) and vb = values (records b) in
  let keys =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) va [])
    |> List.filter (Hashtbl.mem vb)
  in
  Printf.printf "%-12s %-26s %32s %32s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  let cell v =
    let q1, med, q3 = quartiles v in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length v)
  in
  let worse = ref false in
  List.iter
    (fun ((w, name) as k) ->
      let b =
        Option.value ~default:{ better = "lower"; bound = None } (List.assoc_opt name bounds)
      in
      let xa = Hashtbl.find va k and xb = Hashtbl.find vb k in
      let v = verdict b xa xb in
      if v = "worse" then worse := true;
      let _, ma, _ = quartiles xa and _, mb, _ = quartiles xb in
      Printf.printf "%-12s %-26s %32s %32s %+7.1f%%  %s\n" w name (cell xa) (cell xb)
        (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
        v)
    keys;
  if !worse then exit 1
