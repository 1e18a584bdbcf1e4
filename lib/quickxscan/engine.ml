open Rx_xml

(* Synthesized-attribute payload merged bottom-up. Items carry their
   document-order sequence number and, for value-output queries, the string
   value captured when the instance closed. *)
type 'a contribution = {
  mutable c_items : ('a * int * string option) list; (* unordered *)
  mutable c_values : string list;
  mutable c_count : int;
}

let fresh_contribution () = { c_items = []; c_values = []; c_count = 0 }
let[@inline] is_empty c = c.c_items = [] && c.c_values = [] && c.c_count = 0

let merge_into dst src =
  dst.c_items <- List.rev_append src.c_items dst.c_items;
  dst.c_values <- List.rev_append src.c_values dst.c_values;
  dst.c_count <- dst.c_count + src.c_count

(* A matching instance. Buckets and the pass-through hold the engine's
   shared [empty] contribution until something is delivered to them, and
   [i_up] holds the engine's [nil] instance for "propagate sideways", so a
   match allocates its record, its bucket array and a stack cell. *)
type 'a instance = {
  i_qnode : Query.qnode;
  i_depth : int;
  i_item : 'a option; (* output nodes only *)
  i_seq : int;
  i_anchor : 'a instance; (* previous-step instance matched against *)
  i_up : 'a instance; (* [nil] = propagate sideways on close *)
  i_buckets : 'a contribution array; (* one per child qnode *)
  mutable i_pass : 'a contribution; (* pass-through: bypasses this node's predicate *)
  i_value : Buffer.t; (* [no_value] unless the qnode needs its string value *)
}

type 'a t = {
  query : Query.t;
  parent_qid : int array; (* qid -> parent qid; -1 = virtual root *)
  stacks : 'a instance list ref array; (* by qid *)
  empty : 'a contribution; (* never written *)
  nil : 'a instance; (* "no instance"; never on a stack *)
  no_value : Buffer.t; (* never written *)
  root_inst : 'a instance;
  mutable depth : int;
  mutable seq : int;
  mutable active : int;
  mutable max_active : int;
  mutable events : int;
  (* registry counters are atomic, but one fetch-and-add per SAX event from
     every scan domain would serialize the hot loop on shared cache lines;
     events/predicate evals batch into these engine-local pending tallies
     and flush once per document (finish/reset) *)
  mutable pend_events : int;
  mutable pend_preds : int;
  c_events : Rx_obs.Metrics.counter;
  c_pred_evals : Rx_obs.Metrics.counter;
  c_matches : Rx_obs.Metrics.counter;
  (* value buffers of the open instances that accumulate text. Instances
     close in reverse order of creation (an element's instances close at
     its end tag, after every deeper one), so the k-th open value instance
     always owns [vbufs.(k)] and the buffers are reused across matches. *)
  mutable vbufs : Buffer.t array;
  mutable n_vals : int;
  (* what [descend] checks: the parents of descendant-axis steps (any
     below the virtual root makes every element's content relevant), and
     the steps that have steps below them *)
  desc_parents : int array;
  always_descend : bool;
  inner_qids : int array;
  elem_qnodes : Query.qnode array; (* ascending tree depth *)
  elem_qnodes_rev : Query.qnode array;
  text_qnodes : Query.qnode array;
  comment_qnodes : Query.qnode array;
  pi_qnodes : Query.qnode array;
  attr_qnodes : Query.qnode array;
}

let take_value_buffer t =
  if t.n_vals = Array.length t.vbufs then
    t.vbufs <- Array.append t.vbufs (Array.init (t.n_vals + 4) (fun _ -> Buffer.create 32));
  let b = t.vbufs.(t.n_vals) in
  (* reset, not clear: a long value's storage is not kept for later ones *)
  Buffer.reset b;
  t.n_vals <- t.n_vals + 1;
  b

let create ?(metrics = Rx_obs.Metrics.default) query =
  let n = Array.length query.Query.nodes in
  let parent_qid = Array.make n (-1) in
  Array.iter
    (fun (qn : Query.qnode) ->
      List.iter (fun (c : Query.qnode) -> parent_qid.(c.Query.qid) <- qn.Query.qid) qn.Query.children)
    query.Query.nodes;
  let select p =
    Array.of_list (List.filter p (Array.to_list query.Query.by_depth))
  in
  let elem_qnodes =
    select (fun (q : Query.qnode) ->
        (match q.Query.test with
        | Query.Any_element | Query.Element _ | Query.Any_node -> true
        | _ -> false)
        && q.Query.axis <> Query.Attribute)
  in
  let elem_qnodes_rev =
    let a = Array.copy elem_qnodes in
    let n = Array.length a in
    Array.init n (fun i -> a.(n - 1 - i))
  in
  let kind_nodes kind_test =
    select (fun (q : Query.qnode) ->
        (q.Query.test = kind_test || q.Query.test = Query.Any_node)
        && q.Query.axis <> Query.Attribute && q.Query.axis <> Query.Self)
  in
  let root_qnode = query.Query.root in
  let qids p = Array.of_list (List.filter_map p (Array.to_list query.Query.nodes)) in
  let desc_parents =
    qids (fun (q : Query.qnode) ->
        match q.Query.axis with
        | Query.Descendant | Query.Descendant_or_self -> Some parent_qid.(q.Query.qid)
        | Query.Child | Query.Attribute | Query.Self -> None)
  in
  let empty = fresh_contribution () and no_value = Buffer.create 0 in
  let rec nil =
    {
      i_qnode = root_qnode; i_depth = -1; i_item = None; i_seq = 0; i_anchor = nil;
      i_up = nil; i_buckets = [||]; i_pass = empty; i_value = no_value;
    }
  in
  let root_inst =
    {
      nil with
      i_depth = 0;
      i_buckets = Array.make (List.length root_qnode.Query.children) empty;
    }
  in
  {
    query;
    parent_qid;
    stacks = Array.init n (fun _ -> ref []);
    empty;
    nil;
    no_value;
    root_inst;
    depth = 0;
    seq = 0;
    active = 0;
    max_active = 0;
    events = 0;
    pend_events = 0;
    pend_preds = 0;
    c_events = Rx_obs.Metrics.counter metrics "qxs.events";
    c_pred_evals = Rx_obs.Metrics.counter metrics "qxs.predicate_evals";
    c_matches = Rx_obs.Metrics.counter metrics "qxs.matches";
    vbufs = [||];
    n_vals = 0;
    desc_parents;
    always_descend = Array.exists (fun pid -> pid < 0) desc_parents;
    inner_qids = qids (fun (q : Query.qnode) -> if q.Query.children = [] then None else Some q.Query.qid);
    elem_qnodes;
    elem_qnodes_rev;
    text_qnodes = kind_nodes Query.Text_node;
    comment_qnodes = kind_nodes Query.Comment_node;
    pi_qnodes = kind_nodes Query.Pi_node;
    attr_qnodes = select (fun (q : Query.qnode) -> q.Query.axis = Query.Attribute);
  }

(* Top of the previous step's stack, or [nil]. *)
let[@inline] parent_top t (q : Query.qnode) =
  let pid = t.parent_qid.(q.Query.qid) in
  if pid < 0 then t.root_inst
  else match !(t.stacks.(pid)) with top :: _ -> top | [] -> t.nil

let rec first_above depth nil = function
  | top :: rest -> if top.i_depth < depth then top else first_above depth nil rest
  | [] -> nil

(* Deepest previous-step instance strictly above the current node, or
   [nil]. Only the instance created at this very element can be at the
   current depth, so at most one stack entry is skipped — this is still the
   paper's stack-top check. *)
let[@inline] parent_above t (q : Query.qnode) =
  let pid = t.parent_qid.(q.Query.qid) in
  if pid < 0 then t.root_inst else first_above t.depth t.nil !(t.stacks.(pid))

let[@inline] bucket_for t inst qid =
  inst.i_buckets.(t.query.Query.nodes.(qid).Query.pos_in_parent)

(* The bucket of [inst] for child [qid], created on first delivery. *)
let[@inline] bucket_mut t inst qid =
  let j = t.query.Query.nodes.(qid).Query.pos_in_parent in
  let b = inst.i_buckets.(j) in
  if b != t.empty then b
  else begin
    let b = fresh_contribution () in
    inst.i_buckets.(j) <- b;
    b
  end

let[@inline] pass_mut t inst =
  if inst.i_pass != t.empty then inst.i_pass
  else begin
    let b = fresh_contribution () in
    inst.i_pass <- b;
    b
  end

(* --- predicate evaluation --- *)

let number_of_string s = float_of_string_opt (String.trim s)

let num_cmp (op : Rx_xpath.Ast.cmp) (a : float) b =
  match op with
  | Rx_xpath.Ast.Eq -> a = b
  | Rx_xpath.Ast.Neq -> a <> b
  | Rx_xpath.Ast.Lt -> a < b
  | Rx_xpath.Ast.Le -> a <= b
  | Rx_xpath.Ast.Gt -> a > b
  | Rx_xpath.Ast.Ge -> a >= b

(* XPath 1.0: string = string compares as strings; every other pairing
   compares numerically, and false when either side is not a number. *)
let atomic_compare (op : Rx_xpath.Ast.cmp) (l : [ `S of string | `N of float ])
    (r : [ `S of string | `N of float ]) =
  match (op, l, r) with
  | Rx_xpath.Ast.Eq, `S a, `S b -> String.equal a b
  | Rx_xpath.Ast.Neq, `S a, `S b -> not (String.equal a b)
  | _ -> (
      let as_num = function `N f -> Some f | `S s -> number_of_string s in
      match (as_num l, as_num r) with Some a, Some b -> num_cmp op a b | _ -> false)

(* [atomic_compare op (`S v) lit] for a literal, with no atoms built *)
let value_vs_literal op v = function
  | Query.Lit_number n -> (
      match number_of_string v with Some f -> num_cmp op f n | None -> false)
  | Query.Lit_string s -> atomic_compare op (`S v) (`S s)
  | Query.Self_value | Query.Branch _ -> false

let rec exists_vs_literal op lit = function
  | [] -> false
  | v :: rest -> value_vs_literal op v lit || exists_vs_literal op lit rest

let flip : Rx_xpath.Ast.cmp -> Rx_xpath.Ast.cmp = function
  | Rx_xpath.Ast.Lt -> Rx_xpath.Ast.Gt
  | Rx_xpath.Ast.Le -> Rx_xpath.Ast.Ge
  | Rx_xpath.Ast.Gt -> Rx_xpath.Ast.Lt
  | Rx_xpath.Ast.Ge -> Rx_xpath.Ast.Le
  | (Rx_xpath.Ast.Eq | Rx_xpath.Ast.Neq) as op -> op

(* the string values of a node operand *)
let operand_strings t inst = function
  | Query.Self_value ->
      if inst.i_value == t.no_value then [] else [ Buffer.contents inst.i_value ]
  | Query.Branch qid -> (bucket_for t inst qid).c_values
  | Query.Lit_string _ | Query.Lit_number _ -> []

let operand_atoms t inst = function
  | Query.Lit_string s -> [ `S s ]
  | Query.Lit_number n -> [ `N n ]
  | operand -> List.map (fun v -> `S v) (operand_strings t inst operand)

let rec eval_pexpr t inst = function
  | Query.P_exists qid -> not (is_empty (bucket_for t inst qid))
  | Query.P_compare
      (op, ((Query.Self_value | Query.Branch _) as l), ((Query.Lit_string _ | Query.Lit_number _) as lit)) ->
      exists_vs_literal op lit (operand_strings t inst l)
  | Query.P_compare
      (op, ((Query.Lit_string _ | Query.Lit_number _) as lit), ((Query.Self_value | Query.Branch _) as r)) ->
      exists_vs_literal (flip op) lit (operand_strings t inst r)
  | Query.P_compare (op, l, r) ->
      let ls = operand_atoms t inst l and rs = operand_atoms t inst r in
      List.exists (fun a -> List.exists (fun b -> atomic_compare op a b) rs) ls
  | Query.P_and (a, b) -> eval_pexpr t inst a && eval_pexpr t inst b
  | Query.P_or (a, b) -> eval_pexpr t inst a || eval_pexpr t inst b
  | Query.P_not a -> not (eval_pexpr t inst a)

let[@inline] predicate_passes t inst =
  match inst.i_qnode.Query.pred with
  | None -> true
  | Some pe ->
      t.pend_preds <- t.pend_preds + 1;
      eval_pexpr t inst pe

(* --- instance lifecycle --- *)

let push_instance t (q : Query.qnode) anchor ~item ~seq =
  let stack = t.stacks.(q.Query.qid) in
  let up =
    match !stack with
    (* shares the previous-step matching with its stack neighbour? then
       propagate sideways on close (Table 1) *)
    | below :: _ when below.i_anchor == anchor -> t.nil
    | _ -> anchor
  in
  let n = List.length q.Query.children in
  let inst =
    {
      i_qnode = q;
      i_depth = t.depth;
      i_item = item;
      i_seq = seq;
      i_anchor = anchor;
      i_up = up;
      i_buckets = (if n = 0 then [||] else Array.make n t.empty);
      i_pass = t.empty;
      i_value = (if q.Query.needs_self_value then take_value_buffer t else t.no_value);
    }
  in
  stack := inst :: !stack;
  t.active <- t.active + 1;
  if t.active > t.max_active then t.max_active <- t.active

(* Where a closing instance delivers its contribution. *)
let destination t inst =
  let qid = inst.i_qnode.Query.qid in
  if inst.i_up != t.nil then bucket_mut t inst.i_up qid
  else
    match !(t.stacks.(qid)) with
    | below :: _ -> pass_mut t below
    | [] -> (* no sharing partner left: deliver to the anchor *) bucket_mut t inst.i_anchor qid

(* Called after [inst] was popped off its stack. *)
let close_instance t inst =
  t.active <- t.active - 1;
  let q = inst.i_qnode in
  let passes = predicate_passes t inst in
  let chain =
    (* chain-child payload climbs the path *)
    match q.Query.children with
    | c :: _ when passes && c.Query.role = q.Query.role && not q.Query.is_terminal ->
        inst.i_buckets.(0)
    | _ -> t.empty
  in
  let own =
    passes
    &&
    match q.Query.role with
    | Query.Main -> q.Query.is_output
    | Query.Branch_value -> q.Query.is_terminal && inst.i_value != t.no_value
    | Query.Branch_exists -> q.Query.is_terminal
  in
  if own || not (is_empty chain && is_empty inst.i_pass) then begin
    let dst = destination t inst in
    (if own then
       match q.Query.role with
       | Query.Main ->
           let value =
             if inst.i_value == t.no_value then None else Some (Buffer.contents inst.i_value)
           in
           dst.c_items <- (Option.get inst.i_item, inst.i_seq, value) :: dst.c_items
       | Query.Branch_value -> dst.c_values <- Buffer.contents inst.i_value :: dst.c_values
       | Query.Branch_exists -> dst.c_count <- dst.c_count + 1);
    merge_into dst chain;
    merge_into dst inst.i_pass
  end;
  (* raw sideways copy for descendant-axis child buckets: this instance's
     subtree is also part of [below]'s subtree *)
  (if inst.i_up == t.nil then
     match !(t.stacks.(q.Query.qid)) with
     | below :: _ ->
         List.iteri
           (fun j (c : Query.qnode) ->
             match c.Query.axis with
             | (Query.Descendant | Query.Descendant_or_self)
               when not (is_empty inst.i_buckets.(j)) ->
                 merge_into (bucket_mut t below c.Query.qid) inst.i_buckets.(j)
             | _ -> ())
           q.Query.children
     | [] -> ());
  if inst.i_value != t.no_value then t.n_vals <- t.n_vals - 1

(* An instantaneous match (text, comment, PI, attribute): no children, so
   predicates see empty buckets; the value is the node's own content,
   [s.[off .. off+len-1]], copied only when delivered. *)
let instant t (q : Query.qnode) anchor ~item ~seq s off len =
  let passes =
    match q.Query.pred with
    | None -> true
    | Some _ ->
        let keeps_value =
          q.Query.needs_self_value
          || (q.Query.role = Query.Branch_value && q.Query.is_terminal)
          || (q.Query.role = Query.Main && q.Query.is_output)
        in
        let value =
          if keeps_value then begin
            let b = Buffer.create len in
            Buffer.add_substring b s off len;
            b
          end
          else t.no_value
        in
        predicate_passes t
          {
            t.nil with
            i_qnode = q;
            i_depth = t.depth;
            i_anchor = anchor;
            i_up = anchor;
            i_buckets = Array.make (List.length q.Query.children) t.empty;
            i_value = value;
          }
  in
  if passes then
    match q.Query.role with
    | Query.Main when q.Query.is_output ->
        let dst = bucket_mut t anchor q.Query.qid in
        dst.c_items <- (item (), seq, Some (String.sub s off len)) :: dst.c_items
    | Query.Branch_value when q.Query.is_terminal ->
        let dst = bucket_mut t anchor q.Query.qid in
        dst.c_values <- String.sub s off len :: dst.c_values
    | Query.Branch_exists when q.Query.is_terminal ->
        let dst = bucket_mut t anchor q.Query.qid in
        dst.c_count <- dst.c_count + 1
    | Query.Main | Query.Branch_value | Query.Branch_exists -> ()

(* --- events --- *)

let[@inline] elem_test_matches (test : Query.test) ~uri ~local =
  match test with
  | Query.Any_element | Query.Any_node -> true
  | Query.Element e -> e.uri = uri && e.local = local
  | Query.Any_attribute | Query.Attribute_named _ | Query.Text_node
  | Query.Comment_node | Query.Pi_node ->
      false

let[@inline] attr_test_matches (test : Query.test) ~uri ~local =
  match test with
  | Query.Any_attribute -> true
  | Query.Attribute_named a -> a.uri = uri && a.local = local
  | _ -> false

let start_element t ~uri ~local ~item =
  t.events <- t.events + 1;
  t.pend_events <- t.pend_events + 1;
  t.depth <- t.depth + 1;
  t.seq <- t.seq + 1;
  let node_seq = t.seq and qs = t.elem_qnodes in
  (* match element-selecting query nodes, shallow chain positions first so
     Self / descendant-or-self steps can see instances created this event *)
  for k = 0 to Array.length qs - 1 do
    let q = qs.(k) in
    if elem_test_matches q.Query.test ~uri ~local then begin
      let anchor =
        match q.Query.axis with
        | Query.Child ->
            let p = parent_above t q in
            if p != t.nil && p.i_depth = t.depth - 1 then p else t.nil
        | Query.Descendant -> parent_above t q
        | Query.Descendant_or_self | Query.Self ->
            (* prefer the instance at this very node (self); otherwise,
               for descendant-or-self, any strict ancestor *)
            let p = parent_top t q in
            if p != t.nil && p.i_depth = t.depth then p
            else if q.Query.axis = Query.Descendant_or_self then parent_above t q
            else t.nil
        | Query.Attribute -> t.nil
      in
      (* [item] is forced only for an output node's match — the common
         no-match element costs no allocation *)
      if anchor != t.nil then
        push_instance t q anchor
          ~item:(if q.Query.is_output then Some (item ()) else None)
          ~seq:node_seq
    end
  done

let attribute t ~uri ~local s ~off ~len ~item =
  t.seq <- t.seq + 1;
  let seq = t.seq and qs = t.attr_qnodes in
  (* instantaneous children of instances created at the owning element *)
  for k = 0 to Array.length qs - 1 do
    let q = qs.(k) in
    let p = parent_top t q in
    if p != t.nil && p.i_depth = t.depth && p != t.root_inst
       && attr_test_matches q.Query.test ~uri ~local
    then instant t q p ~item ~seq s off len
  done

let leaf_event t qs s ~off ~len ~item =
  t.events <- t.events + 1;
  t.pend_events <- t.pend_events + 1;
  t.seq <- t.seq + 1;
  let seq = t.seq in
  for k = 0 to Array.length qs - 1 do
    let q = qs.(k) in
    let p = parent_top t q in
    let ok =
      p != t.nil
      &&
      match q.Query.axis with
      | Query.Child -> p.i_depth = t.depth
      | Query.Descendant | Query.Descendant_or_self -> p.i_depth <= t.depth
      | Query.Self | Query.Attribute -> false
    in
    if ok then instant t q p ~item ~seq s off len
  done

let text t s ~off ~len ~item =
  for k = 0 to t.n_vals - 1 do
    Buffer.add_substring t.vbufs.(k) s off len
  done;
  leaf_event t t.text_qnodes s ~off ~len ~item

let comment t s ~off ~len ~item = leaf_event t t.comment_qnodes s ~off ~len ~item
let pi t s ~off ~len ~item = leaf_event t t.pi_qnodes s ~off ~len ~item

(* [descend] helpers, top-level so that the check allocates nothing *)
let rec any_anchored t k =
  k < Array.length t.desc_parents
  && (!(t.stacks.(t.desc_parents.(k))) <> [] || any_anchored t (k + 1))

let rec any_inner_here t k =
  k < Array.length t.inner_qids
  && ((match !(t.stacks.(t.inner_qids.(k))) with
      | top :: _ -> top.i_depth = t.depth
      | [] -> false)
     || any_inner_here t (k + 1))

(* Below the element just started, a node can only matter through an open
   string value (its text), a descendant-axis step with a live anchor, or
   a step whose parent step matched at this very element. *)
let descend t = t.n_vals > 0 || t.always_descend || any_anchored t 0 || any_inner_here t 0

let end_element t =
  t.events <- t.events + 1;
  t.pend_events <- t.pend_events + 1;
  let qs = t.elem_qnodes_rev in
  for k = 0 to Array.length qs - 1 do
    let stack = t.stacks.(qs.(k).Query.qid) in
    match !stack with
    | top :: rest when top.i_depth = t.depth ->
        stack := rest;
        close_instance t top
    | _ -> ()
  done;
  t.depth <- t.depth - 1

let flush_counters t =
  if t.pend_events > 0 then begin
    Rx_obs.Metrics.add t.c_events t.pend_events;
    t.pend_events <- 0
  end;
  if t.pend_preds > 0 then begin
    Rx_obs.Metrics.add t.c_pred_evals t.pend_preds;
    t.pend_preds <- 0
  end

let finish_full t =
  if t.depth <> 0 then invalid_arg "Engine.finish: unbalanced stream";
  flush_counters t;
  let results = t.root_inst.i_buckets.(0).c_items in
  let sorted = List.sort (fun (_, a, _) (_, b, _) -> compare a b) results in
  let rec dedup = function
    | (_, a, _) :: ((_, b, _) :: _ as rest) when a = b -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  let out = dedup sorted in
  Rx_obs.Metrics.add t.c_matches (List.length out);
  out

let finish t = List.map (fun (item, _, _) -> item) (finish_full t)
let finish_with_values t = List.map (fun (item, _, v) -> (item, v)) (finish_full t)

(* Clear per-document state so the compiled machine can be reused for the
   next document without recompiling the query. Cumulative instrumentation
   ([events_processed], [max_active], registry counters) is preserved. *)
let reset t =
  flush_counters t;
  Array.iter (fun stack -> stack := []) t.stacks;
  t.depth <- 0;
  t.seq <- 0;
  t.active <- 0;
  t.n_vals <- 0;
  Array.fill t.root_inst.i_buckets 0 (Array.length t.root_inst.i_buckets) t.empty;
  t.root_inst.i_pass <- t.empty

let max_active t = t.max_active
let events_processed t = t.events

(* Feeds one token; [next ()] hands out document-order sequence numbers. *)
let feed_token t ~item_of ~next token =
  let item_at seq () = item_of seq in
  match token with
  | Token.Start_document | Token.End_document -> ()
  | Token.Start_element { name; attrs; _ } ->
      start_element t ~uri:name.Qname.uri ~local:name.Qname.local
        ~item:(item_at (next ()));
      List.iter
        (fun ({ name; value; _ } : Token.attr) ->
          attribute t ~uri:name.Qname.uri ~local:name.Qname.local value ~off:0
            ~len:(String.length value) ~item:(item_at (next ())))
        attrs
  | Token.End_element -> end_element t
  | Token.Text { content = s; _ } | Token.Comment s | Token.Pi { data = s; _ } ->
      let item = item_at (next ()) and len = String.length s in
      (match token with
      | Token.Text _ -> text t s ~off:0 ~len ~item
      | Token.Comment _ -> comment t s ~off:0 ~len ~item
      | _ -> pi t s ~off:0 ~len ~item)

let counter () =
  let seq = ref 0 in
  fun () ->
    incr seq;
    !seq

let feed_tokens t ~item_of tokens =
  let next = counter () in
  List.iter (feed_token t ~item_of ~next) tokens

let feed_binary t ~item_of binary =
  let reader = Token_stream.Reader.of_string binary in
  let next = counter () in
  let rec loop () =
    match Token_stream.Reader.next reader with
    | None -> ()
    | Some token ->
        feed_token t ~item_of ~next token;
        loop ()
  in
  loop ()

let eval_tokens query tokens =
  let t = create query in
  feed_tokens t ~item_of:(fun seq -> seq) tokens;
  finish t
