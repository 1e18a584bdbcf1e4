(** Bottom-up streaming tree packer (§3.2): packed records are generated
    directly from the token stream with no intermediate in-memory tree.

    Node IDs are assigned on the way down; encoded child entries accumulate
    per open element, and whenever an element's accumulated children exceed
    the record-size threshold, the inline children are flushed as one record
    (a sequence of subtrees sharing that element as context node) and
    replaced by proxy entries — the paper's "simple size-based grouping".
    Child records are therefore always emitted before their parents. *)

type t

(** Victim selection when an element's accumulated children overflow the
    threshold: [Largest_first] moves out the biggest subtrees until the
    rest fits (keeps small siblings inline, reproducing Figure 3's
    grouping); [Flush_all] moves every inline child (a simpler policy that
    produces fewer, fuller records but more proxies on the spine). The E1
    benchmark ablates the two. *)
type policy = Largest_first | Flush_all

val create :
  ?policy:policy ->
  threshold:int ->
  emit:(record:string -> unit) ->
  unit ->
  t
(** [threshold] bounds the encoded size of a record's entry section.
    [emit] receives each completed record (child records first, the root
    record last). Default policy: [Largest_first]. *)

val feed : t -> Rx_xml.Token.t -> unit
(** @raise Invalid_argument on an ill-formed stream. *)

val finish : t -> unit
(** Flushes the root record. Must follow a complete document. *)

val pack :
  ?policy:policy ->
  threshold:int ->
  emit:(record:string -> unit) ->
  Rx_xml.Token.t list ->
  unit

val records_of_tokens :
  ?policy:policy -> threshold:int -> Rx_xml.Token.t list -> string list
(** Convenience for tests: all records, in emission order. *)
