type t = string
type rel = string

let root = ""
let is_root t = t = ""
let compare = String.compare
let equal = String.equal

let is_odd_byte c = Char.code c land 1 = 1
let is_even_byte c = Char.code c land 1 = 0

let is_valid_rel rel =
  let n = String.length rel in
  n > 0
  && String.for_all (fun c -> c <> '\x00') rel
  && String.for_all is_odd_byte (String.sub rel 0 (n - 1))
  && is_even_byte rel.[n - 1]

(* Split an absolute ID into components: each component extends through odd
   bytes and ends at the first even byte. *)
let components t =
  let n = String.length t in
  let rec loop start i acc =
    if i >= n then
      if start = i then List.rev acc
      else invalid_arg "Node_id.components: truncated component"
    else if is_even_byte t.[i] then
      loop (i + 1) (i + 1) (String.sub t start (i + 1 - start) :: acc)
    else loop start (i + 1) acc
  in
  loop 0 0 []

let is_valid t =
  match components t with
  | comps -> List.for_all is_valid_rel comps
  | exception Invalid_argument _ -> false

let append t rel = t ^ rel

let parent t =
  (* drop the final component: scan backwards past the trailing even byte
     through the odd extension bytes *)
  let rec start i = if i >= 0 && is_odd_byte t.[i] then start (i - 1) else i + 1 in
  if is_root t then None else Some (String.sub t 0 (start (String.length t - 2)))

let level t = List.length (components t)

let prefix_at_level t n =
  let comps = components t in
  if List.length comps < n then invalid_arg "Node_id.prefix_at_level: too shallow";
  String.concat "" (List.filteri (fun i _ -> i < n) comps)

let last_component t =
  if is_root t then None
  else
    let p = Option.get (parent t) in
    Some (String.sub t (String.length p) (String.length t - String.length p))

let is_ancestor_or_self ~ancestor t =
  (* component-prefix test: prefix-free components make plain string prefix
     equivalent to component prefix *)
  String.length ancestor <= String.length t
  && String.sub t 0 (String.length ancestor) = ancestor

let is_ancestor ~ancestor t =
  String.length ancestor < String.length t && is_ancestor_or_self ~ancestor t

let first_child_rel = "\x02"

let next_sibling_rel rel =
  let n = String.length rel in
  let last = Char.code rel.[n - 1] in
  if last <= 0xfc then String.sub rel 0 (n - 1) ^ String.make 1 (Char.chr (last + 2))
  else
    (* 0xfe: no even byte above it; extend through odd 0xff *)
    String.sub rel 0 (n - 1) ^ "\xff\x02"

(* A component strictly smaller than [rel]. *)
let rec before_rel rel =
  let first = Char.code rel.[0] in
  if first >= 0x03 then "\x02"
  else if first = 0x02 then "\x01\x02"
  else (* 0x01: recurse into the tail *)
    "\x01" ^ before_rel (String.sub rel 1 (String.length rel - 1))

let between_rel a b =
  if String.compare a b >= 0 then invalid_arg "Node_id.between_rel: a >= b";
  (* find the first differing byte; since components are prefix-free and
     a < b, it exists within both *)
  let rec diff i =
    if i >= String.length a || i >= String.length b then
      invalid_arg "Node_id.between_rel: invalid components"
    else if a.[i] <> b.[i] then i
    else diff (i + 1)
  in
  let i = diff 0 in
  let prefix = String.sub a 0 i in
  let x = Char.code a.[i] and y = Char.code b.[i] in
  let m = if x land 1 = 0 then x + 2 else x + 1 in
  if m < y then prefix ^ String.make 1 (Char.chr m)
  else if x land 1 = 0 then begin
    if y = x + 2 then
      (* both even: a and b end here; slide in under the odd byte between *)
      prefix ^ String.make 1 (Char.chr (x + 1)) ^ "\x02"
    else
      (* y = x + 1, odd: descend into b's subspace, before its tail *)
      prefix
      ^ String.make 1 (Char.chr y)
      ^ before_rel (String.sub b (i + 1) (String.length b - i - 1))
  end
  else
    (* x odd, y = x + 1 even: extend within a's subspace, after its tail *)
    prefix
    ^ String.make 1 (Char.chr x)
    ^ next_sibling_rel (String.sub a (i + 1) (String.length a - i - 1))

let nth_sibling_rel n =
  if n < 0 then invalid_arg "Node_id.nth_sibling_rel: negative";
  (* 0..125 fit in one even byte (0x02..0xfc); beyond that, prepend 0xff
     extension bytes *)
  let rec loop n acc =
    if n < 126 then acc ^ String.make 1 (Char.chr (2 * (n + 1)))
    else loop (n - 126) (acc ^ "\xff")
  in
  loop n ""

let to_hex t =
  let hex comp = String.concat "" (List.map (Printf.sprintf "%02x") (List.of_seq (Seq.map Char.code (String.to_seq comp)))) in
  String.concat "." (List.map hex (components t))
