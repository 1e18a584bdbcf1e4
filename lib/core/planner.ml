open Rx_xpath
open Rx_xindex

type granularity = Docid_level | Nodeid_level of int

type index_use = {
  index_name : string;
  match_kind : [ `Exact | `Containing ];
  range : Access.range;
}

type t =
  | Full_scan
  | Index_access of {
      granularity : granularity;
      uses : index_use list;
      exact : bool;
      tail : Ast.path option;
    }

(* Split a predicate into its top-level conjuncts, or None when the shape
   (disjunction/negation at the top) prevents per-conjunct index use. *)
let rec conjuncts = function
  | Ast.And (a, b) -> (
      match (conjuncts a, conjuncts b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | (Ast.Compare _ | Ast.Exists _) as leaf -> Some [ leaf ]
  | Ast.Or _ | Ast.Not _ -> None

(* Absolute, predicate-free value path for a comparison's operand path. *)
let absolute_value_path ~main_steps (p : Ast.path) =
  if p.Ast.absolute then None
  else
    let stripped = List.map (fun s -> { s with Ast.preds = [] }) main_steps in
    let candidate = { Ast.absolute = true; steps = stripped @ p.Ast.steps } in
    if Ast.is_linear candidate then Some candidate else None

(* Convert the literal into the index key type; [`Exact] means an index hit
   set equals the predicate's satisfying set for this conjunct. String
   indexes only support equality (order comparisons are numeric in XPath);
   numeric indexes accept numeric literals and numeric-looking strings. *)
let literal_range (kt : Index_def.key_type) (op : Ast.cmp) literal =
  let open Rx_xml.Typed_value in
  let numericize = function
    | `Num f -> Some f
    | `Str s -> float_of_string_opt (String.trim s)
  in
  match kt with
  | Index_def.K_string -> (
      match (op, literal) with
      | Ast.Eq, `Str s ->
          Option.map (fun r -> (r, `Exact)) (Access.range_of_compare op (String s))
      | _ -> None)
  | Index_def.K_double -> (
      match numericize literal with
      | Some f ->
          Option.map (fun r -> (r, `Exact)) (Access.range_of_compare op (Double f))
      | None -> None)
  | Index_def.K_integer -> (
      match numericize literal with
      | Some f when Float.is_integer f ->
          Option.map
            (fun r -> (r, `Exact))
            (Access.range_of_compare op (Integer (int_of_float f)))
      | Some f -> (
          (* non-integral bound: round to the enclosing integer range *)
          match op with
          | Ast.Gt | Ast.Ge ->
              Option.map
                (fun r -> (r, `Exact))
                (Access.range_of_compare Ast.Ge (Integer (int_of_float (Float.ceil f))))
          | Ast.Lt | Ast.Le ->
              Option.map
                (fun r -> (r, `Exact))
                (Access.range_of_compare Ast.Le (Integer (int_of_float (Float.floor f))))
          | Ast.Eq | Ast.Neq -> None)
      | None -> None)
  | Index_def.K_decimal -> (
      match literal with
      | `Num f ->
          Option.map
            (fun r -> (r, `Exact))
            (Access.range_of_compare op (Decimal (Rx_util.Decimal.of_float f)))
      | `Str s ->
          Option.bind (Rx_util.Decimal.of_string s) (fun d ->
              Option.map (fun r -> (r, `Exact)) (Access.range_of_compare op (Decimal d))))
  | Index_def.K_date -> (
      match literal with
      | `Str s ->
          Option.bind
            (Rx_xml.Typed_value.of_string `Date s)
            (fun d -> Option.map (fun r -> (r, `Exact)) (Access.range_of_compare op d))
      | `Num _ -> None)

(* Find an index serving one conjunct. Prefers exact path matches. *)
let index_for_conjunct ~indexes ~main_steps conjunct =
  let comparison =
    match conjunct with
    | Ast.Compare (op, Ast.Op_path p, Ast.Op_string s) -> Some (op, p, `Str s)
    | Ast.Compare (op, Ast.Op_path p, Ast.Op_number n) -> Some (op, p, `Num n)
    | Ast.Compare (op, Ast.Op_string s, Ast.Op_path p) ->
        Some (Ast.flip_cmp op, p, `Str s)
    | Ast.Compare (op, Ast.Op_number n, Ast.Op_path p) ->
        Some (Ast.flip_cmp op, p, `Num n)
    | _ -> None
  in
  match comparison with
  | None -> None
  | Some (op, p, literal) -> (
      match absolute_value_path ~main_steps p with
      | None -> None
      | Some value_path ->
          let usable =
            List.filter_map
              (fun idx ->
                let def = Value_index.def idx in
                let kind =
                  if Containment.equal_paths def.Index_def.path value_path then
                    Some `Exact
                  else if Containment.contains def.Index_def.path value_path then
                    Some `Containing
                  else None
                in
                match kind with
                | None -> None
                | Some kind -> (
                    match literal_range def.Index_def.key_type op literal with
                    | None -> None
                    | Some (range, conv) ->
                        let exact = kind = `Exact && conv = `Exact in
                        Some
                          ( {
                              index_name = def.Index_def.name;
                              match_kind = kind;
                              range;
                            },
                            exact )))
              indexes
          in
          (* prefer an exact match *)
          List.find_opt (fun (_, exact) -> exact) usable
          |> fun best ->
          (match best with Some _ as b -> b | None -> (
             match usable with u :: _ -> Some u | [] -> None)))

let all_child_steps steps =
  List.for_all (fun s -> s.Ast.axis = Ast.Child) steps

let plan ~indexes ~query =
  if not query.Ast.absolute then Full_scan
  else begin
    (* the anchor step: the last step carrying predicates; steps before it
       must be predicate-free, steps after it are the projection tail *)
    let rec split_at_anchor acc = function
      | [] -> None
      | s :: rest ->
          if s.Ast.preds <> [] && List.for_all (fun r -> r.Ast.preds = []) rest
          then Some (List.rev acc, s, rest)
          else split_at_anchor (s :: acc) rest
    in
    match split_at_anchor [] query.Ast.steps with
    | None -> Full_scan
    | Some (prefix, anchor, tail) ->
        if List.exists (fun s -> s.Ast.preds <> []) prefix then Full_scan
        else begin
          let main_steps = prefix @ [ { anchor with Ast.preds = [] } ] in
          let conjs =
            match
              List.fold_left
                (fun acc p ->
                  match (acc, conjuncts p) with
                  | Some xs, Some ys -> Some (xs @ ys)
                  | _ -> None)
                (Some []) anchor.Ast.preds
            with
            | Some cs -> cs
            | None -> []
          in
          if conjs = [] then Full_scan
          else begin
            let resolved =
              List.map (index_for_conjunct ~indexes ~main_steps) conjs
            in
            let usable = List.filter_map Fun.id resolved in
            if usable = [] then Full_scan
            else begin
              let granularity =
                if all_child_steps main_steps then
                  Nodeid_level (List.length main_steps)
                else Docid_level
              in
              (* anchor-exact when every conjunct has an exact index and we
                 can answer at node granularity: the anchors are then the
                 nodes the predicates select. Exact when, besides, the anchor
                 is the result step; otherwise the predicate-free tail runs
                 inside each anchor, from the anchor step itself *)
              let anchor_exact =
                List.for_all Option.is_some resolved
                && List.for_all (fun (_, e) -> e) usable
                && granularity <> Docid_level
              in
              let tail =
                if anchor_exact && tail <> [] then
                  let anchor = { anchor with Ast.preds = [] } in
                  Some { Ast.absolute = true; steps = anchor :: tail }
                else None
              in
              Index_access
                {
                  granularity;
                  uses = List.map fst usable;
                  exact = anchor_exact && tail = None;
                  tail;
                }
            end
          end
        end
  end

let describe = function
  | Full_scan -> "FULL-SCAN(QuickXScan)"
  | Index_access { granularity; uses; exact; _ } ->
      let names = String.concat "," (List.map (fun u -> u.index_name) uses) in
      let g =
        match granularity with
        | Docid_level -> "DOCID"
        | Nodeid_level _ -> "NODEID"
      in
      let m = if List.length uses > 1 then "-ANDING" else "-LIST" in
      Printf.sprintf "%s%s(%s)%s" g m names (if exact then "" else "+FILTER")

(* Plans bind indexes by *name*, resolved against the live index list at
   execution time: an online rebuild that swapped a new generation in under
   the same name is picked up transparently. A plan whose index was dropped
   (or rolled past) between compilation and execution degrades to a full
   scan — the plan-cache epoch will recompile it on the next fetch, but the
   in-flight execution must not fail. *)
exception Stale_index

let execute_candidates ~indexes plan =
  match plan with
  | Full_scan -> `All
  | Index_access { granularity; uses; _ } -> (
      let find_index name =
        match
          List.find_opt
            (fun idx -> (Value_index.def idx).Index_def.name = name)
            indexes
        with
        | Some idx -> idx
        | None -> raise Stale_index
      in
      try
      match granularity with
      | Docid_level ->
          let lists =
            List.map (fun u -> Access.docid_list (find_index u.index_name) u.range) uses
          in
          `Docids
            (match lists with
            | [] -> []
            | first :: rest -> List.fold_left Access.and_docids first rest)
      | Nodeid_level level ->
          let scan idx range = Access.anchored_nodeid_list idx range ~level in
          let exact, containing =
            List.partition (fun u -> u.match_kind = `Exact) uses
          in
          (* two or more exact ranges on one index: one closed scan of
             their intersection while no anchor at [level] holds two
             entries (checked on every run: a cached plan outlives the
             writes that change it) *)
          let per_index name =
            let idx = find_index name in
            match
              List.filter_map
                (fun u -> if u.index_name = name then Some u.range else None)
                exact
            with
            | first :: (_ :: _ as rest) when Value_index.merge_allowed idx ~level
              -> (
                match
                  List.fold_left
                    (fun acc r -> Option.bind acc (Access.intersect r))
                    (Some first) rest
                with
                | Some r -> [ scan idx r ]
                | None -> [ [] ])
            | ranges -> List.map (scan idx) ranges
          in
          let lists =
            List.concat_map per_index
              (List.sort_uniq compare (List.map (fun u -> u.index_name) exact))
            @ List.map (fun u -> scan (find_index u.index_name) u.range) containing
          in
          `Anchors
            (match lists with
            | [] -> []
            | first :: rest -> List.fold_left Access.and_nodeids first rest)
      with Stale_index -> `All)
