(** QuickXScan: the streaming XPath evaluation engine of §4.2.

    One pass over a document event stream evaluates the compiled query
    tree via attribute-grammar propagation: a (horizontal) stack per query
    node keeps matching instances; inherited attributes (matching) are
    decided top-down using only the stack top of the previous step;
    synthesized attributes (candidate result sequences, predicate operand
    values, existence counts) are merged bottom-up when instances are
    popped, with the Table-1 upward/sideways propagation rules. The number
    of live matching instances is O(|Q|·r) where r is the document's
    recursion depth — the property benchmarked in E4.

    The engine is polymorphic in the "item" attached to each node event,
    so the same code evaluates XPath over parsed token streams, packed
    records, and stored documents (the virtual-SAX organization of §4.4).

    Duplicate suppression: an item may travel along several matching paths
    (nested same-name matches); results are deduplicated by their
    document-order sequence number before being returned. *)

type 'a t

val create : ?metrics:Rx_obs.Metrics.t -> Query.t -> 'a t
(** [metrics] receives the [qxs.events] / [qxs.predicate_evals] /
    [qxs.matches] counters (default: the global registry). Event and
    predicate tallies batch engine-locally and flush to the registry at
    [finish]/[reset] time, so parallel scan domains do not contend on the
    shared counters inside the per-event hot loop. *)

(** {1 Events}

    The engine reads names as dictionary ids and string content as a
    substring [s.[off .. off+len-1]] of a caller's buffer — typically the
    packed record the XML store's cursor reads in place — and copies
    a string only when it becomes a predicate value or a result. Items are
    supplied lazily: [item ()] is forced only for a match of the query's
    output step, before the call returns (never retained), so it may read
    mutable cursor state and a non-matching node allocates nothing. *)

val start_element : 'a t -> uri:int -> local:int -> item:(unit -> 'a) -> unit
(** An element's start, by its name's namespace URI and local-name ids. *)

val attribute :
  'a t -> uri:int -> local:int -> string -> off:int -> len:int -> item:(unit -> 'a) -> unit
(** One attribute of the element just started, with its value; call it
    for each attribute, in stored order, right after {!start_element}.
    Each consumes a sequence number. *)

val descend : 'a t -> bool
(** After {!start_element} and its attributes: whether the element's content
    can still affect the result — an open string value needs its text, a
    descendant-axis step has a live anchor, or a step matched at this
    element has steps below it. When [false] the caller may skip the
    content and go straight to {!end_element}; skipped nodes consume no
    sequence numbers, which keeps results in document order. *)

val end_element : 'a t -> unit
(** The end of the innermost open element. *)

val text : 'a t -> string -> off:int -> len:int -> item:(unit -> 'a) -> unit
(** A text node's content. *)

val comment : 'a t -> string -> off:int -> len:int -> item:(unit -> 'a) -> unit
(** A comment's content. *)

val pi : 'a t -> string -> off:int -> len:int -> item:(unit -> 'a) -> unit
(** A processing instruction's data (the target is never tested). *)

val reset : 'a t -> unit
(** Clears all per-document state (instance stacks, depth, sequence
    numbers, accumulated results) so the compiled machine can be reused for
    another document without recompiling the query — the plan-cache hot
    path. Cumulative instrumentation ({!events_processed}, {!max_active})
    is preserved. *)

val finish : 'a t -> 'a list
(** Result sequence in document order, duplicate-free. The stream must be
    balanced (all elements closed). *)

val finish_with_values : 'a t -> ('a * string option) list
(** Results paired with their string values when the output step required
    value accumulation (used for index key extraction). *)

val max_active : 'a t -> int
(** High-water mark of live matching instances (Figure 7 metric). *)

val events_processed : 'a t -> int

val feed_tokens : 'a t -> item_of:(int -> 'a) -> Rx_xml.Token.t list -> unit
(** Drives the engine over a token list; [item_of seq] builds the item for
    the node whose document-order sequence number is [seq] (elements,
    texts, comments, PIs and attributes all consume sequence numbers, in
    document order, starting at 1). *)

val feed_binary : 'a t -> item_of:(int -> 'a) -> string -> unit
(** Same as {!feed_tokens} over a binary buffered token stream
    ({!Rx_xml.Token_stream}) — the virtual-SAX source matrix of §4.4. *)

val eval_tokens : Query.t -> Rx_xml.Token.t list -> int list
(** Convenience: result sequence numbers over a token stream. *)
