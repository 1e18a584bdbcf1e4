(** Index-based access methods (§4.3, Table 2).

    - {e DocID list access}: an index scan yields the unique documents whose
      nodes satisfy a predicate — efficient for small documents.
    - {e NodeID list access}: yields (DocID, NodeID) pairs, truncated to the
      query's anchor element level when that level is fixed — efficient for
      large documents.
    - {e Filtering}: when the index path merely contains the query path, the
      returned list is a superset and the query must be re-evaluated on the
      candidates.
    - {e ANDing/ORing}: sorted-list intersection/union of DocID or NodeID
      lists from multiple indexes. If all participating indexes match their
      predicates exactly, the result is exact; if at least one is exact,
      NodeID-level ANDing still yields an exact list (the paper's rule —
      which holds at the anchor level).
    - {e Range merge}: two exact ranges on the same index become one closed
      scan of their {!intersect}ion while the index's multi-value statistic
      says no anchor at the plan's level holds two entries. *)

type range = {
  min : Value_index.bound option;
  max : Value_index.bound option;
}

val range_of_compare :
  Rx_xpath.Ast.cmp -> Rx_xml.Typed_value.t -> range option
(** The key range selected by [node op literal]; [None] for [!=], which an
    ordered index cannot serve with one range. *)

val intersect : range -> range -> range option
(** The values both ranges select, as one range: the greater lower bound
    and the smaller upper bound, where a bound shared by both is inclusive
    only if it is in both. [None] when no value lies in both. Both ranges
    must be over one key type. Answering two conjuncts with the scan of
    their intersection is exact only where each anchor holds at most one
    entry ({!Value_index.merge_allowed}). *)

val docid_list : Value_index.t -> range -> int list
(** Sorted, duplicate-free. *)

val nodeid_list : Value_index.t -> range -> (int * Rx_xmlstore.Node_id.t) list
(** (DocID, value-node NodeID) pairs, sorted, duplicate-free. *)

val anchored_nodeid_list :
  Value_index.t -> range -> level:int -> (int * Rx_xmlstore.Node_id.t) list
(** NodeIDs truncated to the ancestor at [level] — the anchor elements the
    query predicates hang off. Entries shallower than [level] are
    dropped. *)

val and_docids : int list -> int list -> int list
(** Sorted-list intersection of DocID lists. *)

val or_docids : int list -> int list -> int list
(** Sorted-list union of DocID lists. *)

val and_nodeids :
  (int * Rx_xmlstore.Node_id.t) list ->
  (int * Rx_xmlstore.Node_id.t) list ->
  (int * Rx_xmlstore.Node_id.t) list
(** Sorted-list intersection of (DocID, NodeID) lists. *)

val or_nodeids :
  (int * Rx_xmlstore.Node_id.t) list ->
  (int * Rx_xmlstore.Node_id.t) list ->
  (int * Rx_xmlstore.Node_id.t) list
(** Sorted-list union of (DocID, NodeID) lists. *)
