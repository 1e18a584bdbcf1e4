open Rx_xpath
open Rx_xmlstore

type range = { min : Value_index.bound option; max : Value_index.bound option }

let range_of_compare (op : Ast.cmp) v =
  match op with
  | Ast.Eq -> Some { min = Some (v, true); max = Some (v, true) }
  | Ast.Lt -> Some { min = None; max = Some (v, false) }
  | Ast.Le -> Some { min = None; max = Some (v, true) }
  | Ast.Gt -> Some { min = Some (v, false); max = None }
  | Ast.Ge -> Some { min = Some (v, true); max = None }
  | Ast.Neq -> None

(* of two bounds on one side, the tighter; at equal values, exclusive wins *)
let tighter ~lower a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (va, ia), Some (vb, ib) ->
      let c = Rx_xml.Typed_value.compare va vb in
      if c = 0 then Some (va, ia && ib)
      else if (c > 0) = lower then Some (va, ia)
      else Some (vb, ib)

let intersect a b =
  let min = tighter ~lower:true a.min b.min
  and max = tighter ~lower:false a.max b.max in
  match (min, max) with
  | Some (lo, lo_incl), Some (hi, hi_incl) ->
      let c = Rx_xml.Typed_value.compare lo hi in
      if c > 0 || (c = 0 && not (lo_incl && hi_incl)) then None
      else Some { min; max }
  | _ -> Some { min; max }

let scan_entries index range f =
  Value_index.scan index ?min:range.min ?max:range.max f

let docid_list index range =
  let acc = ref [] in
  scan_entries index range (fun e ->
      (match !acc with
      | d :: _ when d = e.Value_index.docid -> ()
      | _ -> acc := e.Value_index.docid :: !acc);
      `Continue);
  List.sort_uniq compare !acc

let nodeid_list index range =
  let acc = ref [] in
  scan_entries index range (fun e ->
      acc := (e.Value_index.docid, e.Value_index.node) :: !acc;
      `Continue);
  List.sort_uniq compare !acc

let anchored_nodeid_list index range ~level =
  let acc = ref [] in
  scan_entries index range (fun e ->
      if Node_id.level e.Value_index.node >= level then
        acc :=
          (e.Value_index.docid, Node_id.prefix_at_level e.Value_index.node level)
          :: !acc;
      `Continue);
  List.sort_uniq compare !acc

let rec merge_sorted op a b =
  match (a, b, op) with
  | [], rest, `Or | rest, [], `Or -> rest
  | [], _, `And | _, [], `And -> []
  | x :: xs, y :: ys, _ ->
      let c = compare x y in
      if c = 0 then
        x :: merge_sorted op xs ys
      else if c < 0 then
        match op with
        | `And -> merge_sorted op xs (y :: ys)
        | `Or -> x :: merge_sorted op xs (y :: ys)
      else
        match op with
        | `And -> merge_sorted op (x :: xs) ys
        | `Or -> y :: merge_sorted op (x :: xs) ys

let and_docids a b = merge_sorted `And a b
let or_docids a b = merge_sorted `Or a b
let and_nodeids a b = merge_sorted `And a b
let or_nodeids a b = merge_sorted `Or a b
