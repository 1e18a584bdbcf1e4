(** Document versions (§5.1): which version of a document a snapshot
    sees, and when a pre-image must be kept so that it still can.

    Each XML column's store always holds the current committed version of
    every document. While explicit transactions are open, this module
    keeps what their snapshots may still need beside it: a commit clock,
    the timestamp at which each document's current version became current,
    and a per-column {!Rx_txn.Mvcc_store} that holds staged (uncommitted)
    working copies and retained pre-images under (DocID, ver#). With no
    snapshot open it keeps nothing: writes only advance the clock, and the
    last snapshot to end purges every retained version. Nothing outside
    this module reads or writes the clock, the creation timestamps or the
    version stores.

    The version stores are scratch. They live in a buffer pool private to
    this module, over an in-memory pager with no journal: nothing in them
    is logged to the WAL, written to the data file or shipped to a
    replica, and a crash loses them, which is right, because no snapshot
    outlives the process. *)

type t
(** One database's versions: the commit clock and the open-snapshot
    count. *)

type column
(** One XML column's versions: the creation timestamps of its current
    documents and its version store, created on first use. *)

type staged
(** A transaction's private, uncommitted version of one document. *)

val create : page_size:int -> record_threshold:int -> t
(** A clock at 0 with no snapshot open. Version stores are allocated in
    the private pool, in pages of [page_size] bytes, with the given
    packing threshold. *)

val column : Rx_xmlstore.Doc_store.t -> column
(** The (empty) versions of a new or re-attached XML column whose current
    documents live in the given store. *)

(** {1 Snapshots and the clock} *)

val begin_snapshot : t -> int
(** Opens a snapshot and returns its timestamp: it sees every commit
    published so far and none after. *)

val end_snapshot : t -> (unit -> 'a) -> 'a
(** [end_snapshot v f] closes a snapshot and runs [f], the end of its
    transaction: a commit's writes in [f] keep pre-images only for the
    snapshots still open. Once [f] returns or raises, if no snapshot is
    open, every retained version and creation timestamp is dropped:
    nothing can read them any more. *)

val publish : t -> (int -> 'a) -> 'a
(** [publish v f] runs one commit: [f ts] makes its writes at timestamp
    [ts], the clock plus one, and the clock advances to [ts] when [f]
    returns. Snapshots opened before that see none of the commit. This
    is the only place the clock moves. *)

(** {1 Writes to the current version} *)

val change :
  t -> column -> docid:int -> ts:int -> ?delete:bool -> (unit -> 'a) -> 'a
(** [change v col ~docid ~ts f] runs [f], which overwrites
    (or, with [~delete:true], deletes) the current version of [docid] as
    part of the commit publishing at [ts]. While a snapshot is open it
    first retains the current version, readable at the timestamp it
    became current at — once per commit, however many statements change
    the document — and afterwards records [ts] as the new version's
    creation time, or a tombstone at [ts] for a delete. The retained copy
    goes to the private pool and is not logged; only [f]'s own writes
    are. *)

val inserted : t -> ts:int -> (column * int) list -> unit
(** Records fresh documents, inserted by the commit publishing at [ts],
    as created at [ts], so that open snapshots do not see them. Does
    nothing while no snapshot is open. *)

(** {1 Explicit transactions} *)

val conflict_check : column -> snapshot:int -> docid:int -> unit
(** First-updater-wins: a transaction may not write a document whose
    current version became current after its snapshot.
    @raise Failure ["Database: write-write conflict on DocID ..."] then. *)

val stage : t -> column -> docid:int -> Rx_xml.Token.t list -> staged
(** Writes a transaction's private version of [docid], invisible to
    everyone else, in the private pool: staging logs nothing, so an open
    transaction has no WAL record and has changed no data-file page. *)

val staged_doc : staged -> Rx_xmlstore.Doc_store.t * int
(** Where the staged version lives: its store and internal docid. Edits
    to it go there. *)

val discard : staged -> unit
(** Frees a staged version's storage (at rollback, or at commit once it
    has been copied to the current version). *)

(** {1 Snapshot reads} *)

val resolve :
  column ->
  snapshot:int ->
  docid:int ->
  [ `Main | `Internal of Rx_xmlstore.Doc_store.t * int | `Absent ]
(** Which committed version of [docid] a snapshot sees: the current one
    ([`Main]), a retained one ([`Internal (store, internal
    docid)]), or none. *)

val candidates : column -> int list -> int list
(** [candidates col docids]: [docids] plus every document with retained
    versions in [col] (it may be deleted now, but visible to an older
    snapshot), sorted and without duplicates. *)
