open Rx_storage

type t = {
  pool : Buffer_pool.t;
  meta : int;
  mutable readahead : int; (* leaf-chain readahead window; <= 1 disables *)
  c_lookups : Rx_obs.Metrics.counter;
  c_splits : Rx_obs.Metrics.counter;
  h_scan : Rx_obs.Metrics.histogram;
}

let set_readahead t n = t.readahead <- n
let readahead t = t.readahead

(* Speculative leaf-chain readahead: nodes split off consecutive allocations,
   so the numeric window after [page_no] usually contains the next leaves.
   [Buffer_pool.prefetch] skips cached/foreign pages cheaply; misguesses show
   up as bufpool.readahead.wasted. *)
let prefetch_chain t page_no =
  if t.readahead > 1 && page_no <> 0 && not (Buffer_pool.cached t.pool page_no)
  then
    Buffer_pool.prefetch t.pool
      (List.init t.readahead (fun i -> page_no + i))

let instruments pool =
  let metrics = Buffer_pool.metrics pool in
  Rx_obs.Metrics.
    ( counter metrics "btree.lookups",
      counter metrics "btree.node_splits",
      histogram metrics "btree.scan_len" )

(* Meta page layout: 16 u32 root; 20 u64 entry count; from
   [meta_owner_offset] on, the owner's bytes. *)
let meta_owner_offset = 64

let u32_get page off =
  (Char.code (Bytes.get page off) lsl 24)
  lor (Char.code (Bytes.get page (off + 1)) lsl 16)
  lor (Char.code (Bytes.get page (off + 2)) lsl 8)
  lor Char.code (Bytes.get page (off + 3))

let u32_set page off v =
  Bytes.set page off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set page (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set page (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set page (off + 3) (Char.chr (v land 0xff))

let meta_root page = u32_get page 16
let meta_set_root page v = u32_set page 16 v
let meta_count page = Int64.to_int (Bytes.get_int64_be page 20)
let meta_set_count page v = Bytes.set_int64_be page 20 (Int64.of_int v)

let new_node pool ~level =
  let kind = if level = 0 then Page.Btree_leaf else Page.Btree_internal in
  let page_no = Buffer_pool.alloc pool kind in
  Buffer_pool.update pool page_no (fun page -> Node.init page ~level);
  page_no

let create pool =
  let meta = Buffer_pool.alloc pool Page.Meta in
  let root = new_node pool ~level:0 in
  Buffer_pool.update pool meta (fun page ->
      meta_set_root page root;
      meta_set_count page 0);
  let c_lookups, c_splits, h_scan = instruments pool in
  { pool; meta; readahead = 0; c_lookups; c_splits; h_scan }

let attach pool ~meta_page =
  let c_lookups, c_splits, h_scan = instruments pool in
  { pool; meta = meta_page; readahead = 0; c_lookups; c_splits; h_scan }
let meta_page t = t.meta
let root t = Buffer_pool.with_page t.pool t.meta meta_root
let entry_count t = Buffer_pool.with_page t.pool t.meta meta_count

let bump_count t delta =
  Buffer_pool.update t.pool t.meta (fun page ->
      meta_set_count page (meta_count page + delta))

let height t =
  let rec depth page_no acc =
    let child =
      Buffer_pool.with_page t.pool page_no (fun page ->
          if Node.is_leaf page then -1
          else if Node.right page <> 0 then Node.right page
          else Node.child_at page 0)
    in
    if child < 0 then acc else depth child (acc + 1)
  in
  depth (root t) 1

(* --- insertion --- *)

(* Rebuild [page] as an internal node at [level] from an entry list and
   rightmost child. *)
let rebuild_internal page ~level entries ~rightmost =
  Node.init page ~level;
  List.iteri
    (fun i (key, child) ->
      if not (Node.internal_insert_at page i ~key ~child) then
        failwith "Btree: internal rebuild overflow")
    entries;
  Node.set_right page rightmost

let rebuild_leaf page cells ~sibling =
  Node.init page ~level:0;
  List.iteri
    (fun i (key, value) ->
      if not (Node.leaf_insert_at page i ~key ~value) then
        failwith "Btree: leaf rebuild overflow")
    cells;
  Node.set_right page sibling

let leaf_cells page =
  List.init (Node.ncells page) (fun i -> Node.leaf_cell page i)

let internal_entries page =
  List.init (Node.ncells page) (fun i -> Node.internal_cell page i)

(* Split a cell list roughly in half by byte size. *)
let split_point cells size_of =
  let total = List.fold_left (fun acc c -> acc + size_of c) 0 cells in
  let rec loop acc i = function
    | [] -> i
    | c :: rest ->
        let acc = acc + size_of c in
        if acc * 2 >= total then i + 1 else loop acc (i + 1) rest
  in
  let m = loop 0 0 cells in
  (* keep both sides non-empty *)
  max 1 (min m (List.length cells - 1))

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let insert_leaf t page_no ~key ~value =
  let fast, was_replace =
    Buffer_pool.update t.pool page_no (fun page ->
        let found, i = Node.search page key in
        if found then
          if Node.replace_value_at page i value then (true, true)
          else (false, true)
        else if Node.leaf_insert_at page i ~key ~value then (true, false)
        else (false, false))
  in
  if not was_replace && fast then bump_count t 1;
  if fast then None
  else begin
    (* split: gather cells, merge the pending entry, rebuild both halves *)
    Rx_obs.Metrics.incr t.c_splits;
    let cells, sibling =
      Buffer_pool.with_page t.pool page_no (fun page ->
          (leaf_cells page, Node.right page))
    in
    let cells =
      let rec merge = function
        | [] -> [ (key, value) ]
        | (k, v) :: rest ->
            let c = String.compare key k in
            if c < 0 then (key, value) :: (k, v) :: rest
            else if c = 0 then (key, value) :: rest
            else (k, v) :: merge rest
      in
      merge cells
    in
    let size_of (k, v) = String.length k + String.length v + 4 in
    let m = split_point cells size_of in
    let left = take m cells and right_cells = drop m cells in
    let right_no = new_node t.pool ~level:0 in
    Buffer_pool.update t.pool right_no (fun page ->
        rebuild_leaf page right_cells ~sibling);
    Buffer_pool.update t.pool page_no (fun page ->
        rebuild_leaf page left ~sibling:right_no);
    if not was_replace then bump_count t 1;
    match right_cells with
    | (sep, _) :: _ -> Some (sep, right_no)
    | [] -> assert false
  end

let rec insert_rec t page_no ~key ~value =
  let route =
    Buffer_pool.with_page t.pool page_no (fun page ->
        if Node.is_leaf page then None
        else
          let found, i = Node.search page key in
          let idx = if found then i + 1 else i in
          let child =
            if idx < Node.ncells page then Node.child_at page idx
            else Node.right page
          in
          Some (idx, child))
  in
  match route with
  | None -> insert_leaf t page_no ~key ~value
  | Some (child_index, child) -> begin
    match insert_rec t child ~key ~value with
    | None -> None
    | Some (sep, right_page) ->
        let fast =
          Buffer_pool.update t.pool page_no (fun page ->
              if Node.internal_insert_at page child_index ~key:sep ~child then begin
                if child_index + 1 < Node.ncells page then
                  Node.set_internal_child page (child_index + 1) right_page
                else Node.set_right page right_page;
                true
              end
              else false)
        in
        if fast then None
        else begin
          (* split the internal node in list-land, promoting the middle key *)
          Rx_obs.Metrics.incr t.c_splits;
          let entries, rightmost, level =
            Buffer_pool.with_page t.pool page_no (fun page ->
                (internal_entries page, Node.right page, Node.level page))
          in
          let entries, rightmost =
            (* splice (sep, child) at child_index and repoint the old route *)
            let n = List.length entries in
            if child_index = n then (entries @ [ (sep, child) ], right_page)
            else
              let entries =
                List.concat
                  (List.mapi
                     (fun i (k, c) ->
                       if i = child_index then [ (sep, child); (k, right_page) ]
                       else [ (k, c) ])
                     entries)
              in
              (entries, rightmost)
          in
          let size_of (k, _) = String.length k + 8 in
          let m = split_point entries size_of in
          let left = take m entries in
          let promote_key, promote_child =
            match drop m entries with e :: _ -> e | [] -> assert false
          in
          let right_entries = drop (m + 1) entries in
          let right_no = new_node t.pool ~level in
          Buffer_pool.update t.pool right_no (fun page ->
              rebuild_internal page ~level right_entries ~rightmost);
          Buffer_pool.update t.pool page_no (fun page ->
              rebuild_internal page ~level left ~rightmost:promote_child);
          Some (promote_key, right_no)
        end
  end

let check_entry_size t ~fn ~key ~value =
  let max_entry =
    Node.max_entry_size ~page_size:(Buffer_pool.page_size t.pool)
  in
  if String.length key + String.length value > max_entry then
    invalid_arg (fn ^ ": entry too large")

let insert t ~key ~value =
  check_entry_size t ~fn:"Btree.insert" ~key ~value;
  match insert_rec t (root t) ~key ~value with
  | None -> ()
  | Some (sep, right_page) ->
      Rx_obs.Metrics.incr t.c_splits;
      let old_root = root t in
      let level =
        1 + Buffer_pool.with_page t.pool old_root Node.level
      in
      let new_root = new_node t.pool ~level in
      Buffer_pool.update t.pool new_root (fun page ->
          rebuild_internal page ~level [ (sep, old_root) ] ~rightmost:right_page);
      Buffer_pool.update t.pool t.meta (fun page -> meta_set_root page new_root)

(* --- bottom-up bulk load --- *)

(* A bulk-built node closes once its free space drops below a third of the
   page. Random inserts leave nodes about two-thirds full (a split halves
   one), so a bulk-built tree has the page count an insert-built one would,
   and later inserts do not split every leaf in turn. *)
let bulk_full image = Node.free_space image * 3 < Bytes.length image

(* The open (rightmost) node of one level, assembled in a scratch image and
   written to its page by one journaled update when it closes. *)
type open_node = {
  image : bytes;
  sep : string option;
      (* the key the parent routes on to reach this node; [None] for a
         level's leftmost node *)
  mutable last : int;
      (* internal levels: the newest child, which becomes a cell's child
         when the next separator arrives or the rightmost child at close *)
}

type bulk = {
  tree : t;
  mutable leaf_page : int; (* where the open leaf will be written *)
  mutable levels : open_node array; (* 0 is the open leaf *)
  mutable last_key : string option;
  mutable added : int;
}

let open_node pool ~level ~sep ~last =
  let image = Bytes.make (Buffer_pool.page_size pool) '\000' in
  Node.init image ~level;
  { image; sep; last }

(* The page header (LSN, kind, checksum) stays the pool's and the pager's;
   everything after it is the node. *)
let write_node pool page_no image =
  Buffer_pool.update pool page_no (fun page ->
      Bytes.blit image Page.header_size page Page.header_size
        (Bytes.length image - Page.header_size))

let close_internal b l =
  let node = b.levels.(l) in
  Node.set_right node.image node.last;
  let page_no = Buffer_pool.alloc b.tree.pool Page.Btree_internal in
  write_node b.tree.pool page_no node.image;
  page_no

(* Hands [child] to level [l]; [sep] routes keys at or above it there and
   is [None] only for the first child a level ever receives. *)
let rec add_child b l ~sep child =
  if l = Array.length b.levels then
    b.levels <-
      Array.append b.levels [| open_node b.tree.pool ~level:l ~sep ~last:child |]
  else begin
    let node = b.levels.(l) in
    let key = Option.get sep in
    if
      (not (bulk_full node.image))
      && Node.internal_insert_at node.image (Node.ncells node.image) ~key
           ~child:node.last
    then node.last <- child
    else begin
      let page_no = close_internal b l in
      add_child b (l + 1) ~sep:node.sep page_no;
      b.levels.(l) <- open_node b.tree.pool ~level:l ~sep ~last:child
    end
  end

let bulk_start t =
  let root = root t in
  let empty_leaf =
    Buffer_pool.with_page t.pool root (fun page ->
        Node.is_leaf page && Node.ncells page = 0)
  in
  if not empty_leaf then invalid_arg "Btree.bulk_start: tree is not empty";
  {
    tree = t;
    leaf_page = root;
    levels = [| open_node t.pool ~level:0 ~sep:None ~last:0 |];
    last_key = None;
    added = 0;
  }

let bulk_add b ~key ~value =
  check_entry_size b.tree ~fn:"Btree.bulk_add" ~key ~value;
  (match b.last_key with
  | Some last when String.compare key last <= 0 ->
      invalid_arg "Btree.bulk_add: keys must be strictly ascending"
  | _ -> ());
  let pool = b.tree.pool in
  let leaf = b.levels.(0) in
  let appended =
    (not (bulk_full leaf.image))
    && Node.leaf_insert_at leaf.image (Node.ncells leaf.image) ~key ~value
  in
  if not appended then begin
    (* close the open leaf, chained to the page the next one will fill *)
    let next = Buffer_pool.alloc pool Page.Btree_leaf in
    Node.set_right leaf.image next;
    write_node pool b.leaf_page leaf.image;
    add_child b 1 ~sep:leaf.sep b.leaf_page;
    let fresh = open_node pool ~level:0 ~sep:(Some key) ~last:0 in
    let fits = Node.leaf_insert_at fresh.image 0 ~key ~value in
    assert fits (* an empty leaf holds any entry of the checked size *);
    b.levels.(0) <- fresh;
    b.leaf_page <- next
  end;
  b.last_key <- Some key;
  b.added <- b.added + 1

let bulk_finish b =
  let pool = b.tree.pool in
  let leaf = b.levels.(0) in
  write_node pool b.leaf_page leaf.image;
  let root =
    if Array.length b.levels = 1 then b.leaf_page
    else begin
      add_child b 1 ~sep:leaf.sep b.leaf_page;
      let rec close l =
        let page_no = close_internal b l in
        if l = Array.length b.levels - 1 then page_no
        else begin
          add_child b (l + 1) ~sep:b.levels.(l).sep page_no;
          close (l + 1)
        end
      in
      close 1
    end
  in
  Buffer_pool.update pool b.tree.meta (fun page ->
      meta_set_root page root;
      meta_set_count page b.added)

(* --- lookup --- *)

(* One pin per level: the child is chosen in the same callback that tells
   a leaf from an internal node; [-1] stands for "this is the leaf". *)
let rec find_leaf t page_no key =
  let child =
    Buffer_pool.with_page t.pool page_no (fun page ->
        if Node.is_leaf page then -1 else Node.child_for page key)
  in
  if child < 0 then page_no else find_leaf t child key

let find t key =
  Rx_obs.Metrics.incr t.c_lookups;
  let leaf = find_leaf t (root t) key in
  Buffer_pool.with_page t.pool leaf (fun page ->
      let i = Node.lower_bound page key in
      if i < Node.ncells page && String.equal (Node.leaf_key page i) key then
        Some (Node.leaf_value page i)
      else None)

let mem t key = Option.is_some (find t key)

let delete t key =
  let leaf = find_leaf t (root t) key in
  let deleted =
    Buffer_pool.update t.pool leaf (fun page ->
        let found, i = Node.search page key in
        if found then begin
          Node.delete_at page i;
          true
        end
        else false)
  in
  if deleted then bump_count t (-1);
  deleted

(* --- iteration --- *)

let rec leftmost_leaf t page_no =
  let child =
    Buffer_pool.with_page t.pool page_no (fun page ->
        if Node.is_leaf page then -1
        else if Node.ncells page > 0 then Node.child_at page 0
        else Node.right page)
  in
  if child < 0 then page_no else leftmost_leaf t child

(* Delivers the cells of one leaf from index [i] while the leaf is pinned,
   materializing only the [(key, value)] pairs handed to [f]. Returns the
   right sibling to continue with, or [0] when the range ended or [f]
   stopped it. *)
let rec deliver page i hi f delivered =
  if i >= Node.ncells page then Node.right page
  else
    let key = Node.leaf_key page i in
    let past_hi = match hi with Some h -> String.compare key h >= 0 | None -> false in
    if past_hi then 0
    else begin
      incr delivered;
      match f key (Node.leaf_value page i) with
      | `Continue -> deliver page (i + 1) hi f delivered
      | `Stop -> 0
    end

let iter_range t ?lo ?hi f =
  Rx_obs.Metrics.incr t.c_lookups;
  let delivered = ref 0 in
  let rec walk page_no start =
    if page_no <> 0 then begin
      prefetch_chain t page_no;
      let next =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let i =
              match start with Some key -> Node.lower_bound page key | None -> 0
            in
            deliver page i hi f delivered)
      in
      walk next None
    end
  in
  (match lo with
  | Some key -> walk (find_leaf t (root t) key) lo
  | None -> walk (leftmost_leaf t (root t)) None);
  Rx_obs.Metrics.observe t.h_scan !delivered

let next_prefix prefix =
  let b = Bytes.of_string prefix in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let iter_prefix t ~prefix f =
  match next_prefix prefix with
  | Some hi -> iter_range t ~lo:prefix ~hi f
  | None -> iter_range t ~lo:prefix f

let fold_range t ?lo ?hi ~init f =
  let acc = ref init in
  iter_range t ?lo ?hi (fun k v ->
      acc := f !acc k v;
      `Continue);
  !acc

let to_list t =
  List.rev (fold_range t ~init:[] (fun acc k v -> (k, v) :: acc))

let page_count t =
  let count = ref 0 in
  let rec visit page_no =
    incr count;
    let leaf = Buffer_pool.with_page t.pool page_no Node.is_leaf in
    if not leaf then begin
      let children =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let base = List.map snd (internal_entries page) in
            if Node.right page <> 0 then base @ [ Node.right page ] else base)
      in
      List.iter visit children
    end
  in
  visit (root t);
  !count

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* returns (first_key, last_key) of the subtree, or None if empty *)
  let rec check page_no ~lo ~hi ~expected_level =
    Buffer_pool.with_page t.pool page_no (fun page ->
        (match expected_level with
        | Some l when Node.level page <> l ->
            fail "page %d: level %d, expected %d" page_no (Node.level page) l
        | _ -> ());
        let n = Node.ncells page in
        for i = 1 to n - 1 do
          if String.compare (Node.key_at page (i - 1)) (Node.key_at page i) >= 0
          then fail "page %d: keys out of order at %d" page_no i
        done;
        let in_bounds key =
          (match lo with
          | Some l when String.compare key l < 0 ->
              fail "page %d: key below subtree bound" page_no
          | _ -> ());
          match hi with
          | Some h when String.compare key h >= 0 ->
              fail "page %d: key above subtree bound" page_no
          | _ -> ()
        in
        for i = 0 to n - 1 do
          in_bounds (Node.key_at page i)
        done;
        if not (Node.is_leaf page) then begin
          if Node.right page = 0 then
            fail "page %d: internal node without rightmost child" page_no;
          let child_level = Some (Node.level page - 1) in
          let entries = internal_entries page in
          let rec loop lo_bound = function
            | [] ->
                check (Node.right page) ~lo:lo_bound ~hi ~expected_level:child_level
            | (key, child) :: rest ->
                check child ~lo:lo_bound ~hi:(Some key) ~expected_level:child_level;
                loop (Some key) rest
          in
          loop lo entries
        end)
  in
  check (root t) ~lo:None ~hi:None ~expected_level:None;
  (* leaf chain must produce all keys in sorted order and match the count *)
  let prev = ref None in
  let seen = ref 0 in
  iter_range t (fun k _ ->
      (match !prev with
      | Some p when String.compare p k >= 0 -> fail "leaf chain out of order"
      | _ -> ());
      prev := Some k;
      incr seen;
      `Continue);
  if !seen <> entry_count t then
    fail "entry count %d but leaf chain has %d" (entry_count t) !seen
