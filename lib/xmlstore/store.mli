(** A labeled, persistable XML document store.

    Indexing a {!Xmltree.Tree.t} assigns every node its preorder rank and
    records, per node, the containment interval [(id, last id)] covering its
    descendants, its level (root = 0), its parent and its child rank — the
    classic region-encoding / Dietz labeling used by native XML engines
    (RadegastXDB and the TwigStack line of work), so the structural
    predicates twig evaluation needs become O(1) integer arithmetic:

    - [is_ancestor a d]   ⟺  [a < d && d <= last a]
    - [is_child p c]      ⟺  [parent c = p]

    Alongside the labels the store keeps one inverted node list per element
    name, in document (preorder) order, laid out CSR-style in two flat
    arrays ([posting_offsets]/[posting_data]).  All numeric columns are
    [Bigarray] int arrays in one contiguous layout, so a labeled document
    can be persisted and later reloaded (memory-mapped when the platform
    allows) without re-parsing or re-labeling the XML.

    A store is cheap to share read-only, but the lazily-built caches
    ([postings], [all_ids]) and the generation-stamped scratch column used
    by child semijoins are not synchronized: use a store from one domain at
    a time (each {!Core.Pool} lane owns its shard). *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  n : int;  (** node count; preorder ids are [0 .. n-1], root is 0 *)
  last : ints;  (** descendants of [i] are exactly ids [i+1 .. last.{i}] *)
  parent : ints;  (** parent id, [-1] for the root *)
  rank : ints;  (** child index of [i] under its parent, [0] for the root *)
  level : ints;  (** depth; root is level [0] *)
  name_ids : ints;  (** interned element-name id of node [i] *)
  posting_offsets : ints;
      (** CSR row starts: name [k]'s nodes live at
          [posting_data.{posting_offsets.{k} .. posting_offsets.{k+1}-1}] *)
  posting_data : ints;  (** concatenated inverted lists, each ascending *)
  names : string array;  (** interned names, in order of first appearance *)
  name_tbl : (string, int) Hashtbl.t;
  mutable posting_cache : int array option array;
  mutable all_ids_cache : int array option;
  mutable stamp : int array;  (** scratch for child semijoins *)
  mutable stamp_gen : int;
}

val of_tree : Xmltree.Tree.t -> t
(** Label a document in one preorder pass: O(n) time, O(n) ints. *)

val size : t -> int
(** Node count. *)

val label : t -> int -> string
(** Element name of a node id. *)

val last : t -> int -> int
val level : t -> int -> int

val parent : t -> int -> int
(** Parent id; [-1] for the root. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a d]: is [a] a proper ancestor of [d]?  O(1). *)

val is_child : t -> int -> int -> bool
(** [is_child t p c]: is [c] a child of [p]?  O(1). *)

val postings : t -> string -> int array
(** Inverted node list for a name, ascending preorder ids; [[||]] if the
    name does not occur.  The returned array is cached and shared — treat
    it as read-only. *)

val all_ids : t -> int array
(** [[|0; 1; ...; n-1|]], cached and shared — treat it as read-only. *)

val path_of_id : t -> int -> Xmltree.Tree.path
(** Stable path address of a node, via the parent/rank columns. *)

val id_of_path : t -> Xmltree.Tree.path -> int option
(** Inverse of {!path_of_id}, walking first-child/next-sibling arithmetic
    ([first child of i] = [i+1], [next sibling of j] = [last j + 1]). *)

val fresh_stamp : t -> int array * int
(** A generation-stamped scratch column over node ids: the pair
    [(stamp, gen)] where [stamp.(i) = gen] marks [i] without clearing. *)

val to_bytes : t -> bytes
(** Serialize to the LQXSTORE on-disk layout (int64 little-endian columns
    behind a fixed 32-byte header, name table at the tail).  Deterministic:
    the same store always produces the same bytes. *)

val of_bytes : bytes -> (t, string) result

val save : ?fsync:bool -> t -> string -> unit
(** Persist to a file; [?fsync] (default [false]) forces the data to disk
    before returning, which is what corpus pipelines overlap with
    evaluation. *)

val load : ?mmap:bool -> string -> (t, string) result
(** Reload a persisted store without re-parsing.  With [mmap] (the
    default) on a 64-bit little-endian platform the numeric columns are
    memory-mapped straight out of the file; otherwise they are decoded
    portably. *)
