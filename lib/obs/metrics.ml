(* All instruments are updated with Atomic operations so that concurrent
   domains (parallel scan workers, the WAL thread, server sessions) never
   lose increments; the registry table itself is guarded by a mutex, taken
   only at registration — never on the increment or snapshot path. *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_value : int Atomic.t }

let n_buckets = 32

type histogram = {
  h_counts : int Atomic.t array; (* raw per-bucket counts *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

type t = {
  instruments : (string, instrument) Hashtbl.t;
  reg_lock : Mutex.t;
  (* every instrument sorted by name, replaced (never mutated) on each new
     registration, so a [mark] holds the list it walked *)
  sorted : (string * instrument) array Atomic.t;
}

let create () =
  { instruments = Hashtbl.create 64; reg_lock = Mutex.create (); sorted = Atomic.make [||] }
let default = create ()

let locked t f =
  Mutex.lock t.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_lock) f

let register t name ~kind ~make ~cast =
  locked t (fun () ->
      match Hashtbl.find_opt t.instruments name with
      | Some i -> (
          match cast i with
          | Some v -> v
          | None ->
              invalid_arg (Printf.sprintf "Metrics: %s is not a %s" name kind))
      | None ->
          let v = make () in
          Hashtbl.replace t.instruments name v;
          let sorted = Array.append (Atomic.get t.sorted) [| (name, v) |] in
          Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) sorted;
          Atomic.set t.sorted sorted;
          match cast v with Some v -> v | None -> assert false)

let counter t name =
  register t name ~kind:"counter"
    ~make:(fun () -> C { c_name = name; c_value = Atomic.make 0 })
    ~cast:(function C c -> Some c | _ -> None)

let gauge t name =
  register t name ~kind:"gauge"
    ~make:(fun () -> G { g_value = Atomic.make 0 })
    ~cast:(function G g -> Some g | _ -> None)

let histogram t name =
  register t name ~kind:"histogram"
    ~make:(fun () ->
      H
        {
          h_counts = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
        })
    ~cast:(function H h -> Some h | _ -> None)

let incr c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg (Printf.sprintf "Metrics: counter %s is monotonic" c.c_name);
  ignore (Atomic.fetch_and_add c.c_value n)

let value c = Atomic.get c.c_value

let set g v = Atomic.set g.g_value v
let get g = Atomic.get g.g_value

(* bucket 0 holds 0; bucket i >= 1 holds [2^(i-1), 2^i); last is unbounded *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (bits v 0)
  end

let observe h v =
  let v = max 0 v in
  Atomic.incr h.h_counts.(bucket_of v);
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum v)

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

let bucket_upper i =
  if i = 0 then 0
  else if i >= n_buckets - 1 then max_int
  else (1 lsl i) - 1

let histogram_buckets h =
  (* trim trailing empty buckets but keep at least bucket 0 *)
  let counts = Array.map Atomic.get h.h_counts in
  let last = ref 0 in
  Array.iteri (fun i c -> if c > 0 then last := i) counts;
  Array.init (!last + 1) (fun i -> (bucket_upper i, counts.(i)))

type sample =
  | Counter of int
  | Gauge of int
  | Histogram of { count : int; sum : int; buckets : (int * int) array }

let snapshot t =
  Array.fold_right
    (fun (name, i) acc ->
      let sample =
        match i with
        | C c -> Counter (Atomic.get c.c_value)
        | G g -> Gauge (Atomic.get g.g_value)
        | H h ->
            Histogram
              {
                count = Atomic.get h.h_count;
                sum = Atomic.get h.h_sum;
                buckets = histogram_buckets h;
              }
      in
      (name, sample) :: acc)
    (Atomic.get t.sorted) []

(* [diff] runs on every profiled query ([Database.run]'s result.profile);
   both snapshots are name-sorted (see [snapshot]), so walk them as one
   linear merge instead of a quadratic assoc lookup per instrument *)
let diff ~before ~after =
  let deltas name sample prior =
    match sample with
    | Counter v ->
        let v0 = match prior with Some (Counter p) -> p | _ -> 0 in
        if v - v0 <> 0 then [ (name, v - v0) ] else []
    | Gauge v ->
        let v0 = match prior with Some (Gauge p) -> p | _ -> 0 in
        if v - v0 <> 0 then [ (name, v - v0) ] else []
    | Histogram { count; sum; _ } ->
        let c0, s0 =
          match prior with
          | Some (Histogram { count; sum; _ }) -> (count, sum)
          | _ -> (0, 0)
        in
        (if count - c0 <> 0 then [ (name ^ ".count", count - c0) ] else [])
        @ if sum - s0 <> 0 then [ (name ^ ".sum", sum - s0) ] else []
  in
  let rec merge before after acc =
    match (before, after) with
    | _, [] -> List.rev acc
    | [], (name, s) :: atl ->
        merge [] atl (List.rev_append (List.rev (deltas name s None)) acc)
    | (bn, _) :: btl, (an, _) :: _ when String.compare bn an < 0 ->
        (* instrument vanished between snapshots: nothing to report *)
        merge btl after acc
    | (bn, bs) :: btl, (an, s) :: atl when String.equal bn an ->
        merge btl atl (List.rev_append (List.rev (deltas an s (Some bs))) acc)
    | _, (name, s) :: atl ->
        merge before atl (List.rev_append (List.rev (deltas name s None)) acc)
  in
  merge before after []

(* Two slots per instrument: a counter's or gauge's value, or a
   histogram's count and sum. Bucket arrays are never read. *)
type mark = { m_sorted : (string * instrument) array; m_values : int array }

let mark t =
  let sorted = Atomic.get t.sorted in
  let values = Array.make (2 * Array.length sorted) 0 in
  Array.iteri
    (fun i (_, inst) ->
      match inst with
      | C c -> values.(2 * i) <- Atomic.get c.c_value
      | G g -> values.(2 * i) <- Atomic.get g.g_value
      | H h ->
          values.(2 * i) <- Atomic.get h.h_count;
          values.((2 * i) + 1) <- Atomic.get h.h_sum)
    sorted;
  { m_sorted = sorted; m_values = values }

(* [diff ~before:(snapshot) ~after:(snapshot)], walking the current
   instruments back to front against the mark's so the deltas cons up in
   name order; an instrument registered since the mark starts from 0 *)
let since t m =
  let sorted = Atomic.get t.sorted in
  let acc = ref [] and i = ref (Array.length m.m_sorted - 1) in
  for j = Array.length sorted - 1 downto 0 do
    let name, inst = sorted.(j) in
    while !i >= 0 && String.compare (fst m.m_sorted.(!i)) name > 0 do
      decr i
    done;
    let known = !i >= 0 && String.equal (fst m.m_sorted.(!i)) name in
    let v0 = if known then m.m_values.(2 * !i) else 0
    and v1 = if known then m.m_values.((2 * !i) + 1) else 0 in
    (* no closures here: one cons per nonzero delta is all a query pays *)
    match inst with
    | C c ->
        let d = Atomic.get c.c_value - v0 in
        if d <> 0 then acc := (name, d) :: !acc
    | G g ->
        let d = Atomic.get g.g_value - v0 in
        if d <> 0 then acc := (name, d) :: !acc
    | H h ->
        let dc = Atomic.get h.h_count - v0 and ds = Atomic.get h.h_sum - v1 in
        if dc <> 0 then acc := (name ^ ".count", dc) :: !acc;
        if ds <> 0 then acc := (name ^ ".sum", ds) :: !acc
  done;
  !acc

let to_text t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, sample) ->
      match sample with
      | Counter v | Gauge v -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | Histogram { count; sum; buckets } ->
          Buffer.add_string buf (Printf.sprintf "%s.count %d\n%s.sum %d\n" name count name sum);
          Array.iter
            (fun (le, c) ->
              let le = if le = max_int then "inf" else string_of_int le in
              Buffer.add_string buf (Printf.sprintf "%s.bucket{le=%s} %d\n" name le c))
            buckets)
    (snapshot t);
  Buffer.contents buf

let to_json t =
  Json.Obj
    (List.map
       (fun (name, sample) ->
         let body =
           match sample with
           | Counter v ->
               Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num (float_of_int v)) ]
           | Gauge v ->
               Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num (float_of_int v)) ]
           | Histogram { count; sum; buckets } ->
               Json.Obj
                 [
                   ("type", Json.Str "histogram");
                   ("count", Json.Num (float_of_int count));
                   ("sum", Json.Num (float_of_int sum));
                   ( "buckets",
                     Json.Arr
                       (Array.to_list
                          (Array.map
                             (fun (le, c) ->
                               Json.Obj
                                 [
                                   ( "le",
                                     if le = max_int then Json.Str "inf"
                                     else Json.Num (float_of_int le) );
                                   ("count", Json.Num (float_of_int c));
                                 ])
                             buckets)) );
                 ]
         in
         (name, body))
       (snapshot t))
