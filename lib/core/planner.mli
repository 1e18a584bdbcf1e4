(** Access path selection (§4.3, Table 2). For a query whose final step
    carries value predicates, the planner matches each conjunct against the
    available XPath value indexes:

    - exact path match + faithful literal conversion → list access;
    - index path merely {e contains} the predicate path → filtering (a
      candidate superset that must be re-evaluated);
    - several usable conjuncts → DocID or NodeID ANDing;
    - no usable index → full QuickXScan.

    NodeID-level access requires a fixed anchor level (all main-path steps
    on the child axis); otherwise the planner falls back to DocID
    granularity. Unlike the paper's most aggressive rule, ANDing an exact
    list with containment-filtered lists is treated as filtering (the
    combination is only guaranteed to be a superset), so answers are always
    exact after re-evaluation.

    XPath comparisons are existential: [p[price >= 5 and price < 6]] holds
    for a [p] with prices 1 and 900, though neither lies in [\[5, 6)]. So
    the two conjuncts' ranges are intersected into one scan only at
    execution, and only while the index's multi-value statistic shows no
    anchor at the plan's level with two entries. *)

type granularity = Docid_level | Nodeid_level of int (** anchor level *)

type index_use = {
  index_name : string;
  match_kind : [ `Exact | `Containing ];
  range : Rx_xindex.Access.range;
}

type t =
  | Full_scan
  | Index_access of {
      granularity : granularity;
      uses : index_use list; (** one per usable conjunct; ≥ 1 *)
      exact : bool; (** true: candidates are the answer, no re-evaluation *)
    }

val plan :
  indexes:Rx_xindex.Value_index.t list -> query:Rx_xpath.Ast.path -> t
(** [query] must already be simplified. *)

val describe : t -> string
(** For EXPLAIN output and the E2 tables, e.g.
    ["NODEID-ANDING(regprice,discount)+FILTER"]. *)

val execute_candidates :
  indexes:Rx_xindex.Value_index.t list ->
  t ->
  [ `All
  | `Docids of int list
  | `Anchors of (int * Rx_xmlstore.Node_id.t) list ]
(** Runs the index scans and combines the lists. At NodeID granularity,
    two or more exact uses of one index become one closed scan of their
    {!Rx_xindex.Access.intersect}ion (none when it is empty) if
    {!Rx_xindex.Value_index.merge_allowed} holds at the plan's level on
    this run; otherwise, and for containing uses, each use is scanned and
    the lists are ANDed. Indexes are resolved by
    name against [indexes] at execution time, so a plan follows an online
    generation swap transparently; if a named index is no longer live
    (dropped, or rolled back under a concurrent execution), the plan
    degrades to [`All] rather than failing — the DDL epoch bump recompiles
    it for the next fetch. *)
