(* A hash table of nodes threaded on a doubly linked list, most recently
   used first. The links are a variant with a constant [Nil] rather than an
   option, so relinking a node stores existing blocks only: a hit through
   {!find} allocates nothing. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      mutable value : 'v;
      mutable prev : ('k, 'v) node;
      mutable next : ('k, 'v) node;
    }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node; (* most recently used *)
  mutable tail : ('k, 'v) node; (* least recently used *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create (2 * capacity); head = Nil; tail = Nil }

let length t = Hashtbl.length t.table
let capacity t = t.capacity
let set_prev n p = match n with Node r -> r.prev <- p | Nil -> ()
let set_next n x = match n with Node r -> r.next <- x | Nil -> ()

let unlink t = function
  | Nil -> ()
  | Node r ->
      if r.prev == Nil then t.head <- r.next else set_next r.prev r.next;
      if r.next == Nil then t.tail <- r.prev else set_prev r.next r.prev;
      r.prev <- Nil;
      r.next <- Nil

let push_front t node =
  (match node with
  | Node r ->
      r.next <- t.head;
      r.prev <- Nil
  | Nil -> ());
  if t.head == Nil then t.tail <- node else set_prev t.head node;
  t.head <- node

let touch t node =
  if t.head != node then begin
    unlink t node;
    push_front t node
  end

let value = function Node r -> r.value | Nil -> raise Not_found

let find t k =
  let node = Hashtbl.find t.table k in
  touch t node;
  value node

let find_opt t k =
  match find t k with v -> Some v | exception Not_found -> None

let peek t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node -> Some (value node)

let mem t k = Hashtbl.mem t.table k

let add t k v =
  let node = Node { key = k; value = v; prev = Nil; next = Nil } in
  Hashtbl.replace t.table k node;
  push_front t node

(* Unlinks and forgets [node], returning its binding. *)
let drop t node =
  match node with
  | Nil -> invalid_arg "Lru.drop"
  | Node r ->
      unlink t node;
      Hashtbl.remove t.table r.key;
      (r.key, r.value)

let replace t node v =
  (match node with Node r -> r.value <- v | Nil -> ());
  touch t node

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      replace t node v;
      None
  | None ->
      add t k v;
      if Hashtbl.length t.table > t.capacity then Some (drop t t.tail) else None

let put_evict_if t ~can_evict k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      replace t node v;
      Some None
  | None ->
      if Hashtbl.length t.table < t.capacity then begin
        add t k v;
        Some None
      end
      else begin
        (* walk from LRU end to find an evictable victim *)
        let rec find_victim = function
          | Nil -> None
          | Node r as node ->
              if can_evict r.key r.value then Some node else find_victim r.prev
        in
        match find_victim t.tail with
        | None -> None
        | Some victim ->
            let evicted = drop t victim in
            add t k v;
            Some (Some evicted)
      end

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some node -> ignore (drop t node)

let iter f t = Hashtbl.iter (fun k node -> f k (value node)) t.table

let to_list t =
  let rec loop acc = function
    | Nil -> List.rev acc
    | Node r -> loop ((r.key, r.value) :: acc) r.next
  in
  loop [] t.head
