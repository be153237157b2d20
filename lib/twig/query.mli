(** Twig queries — the "highly practical and commonly used subclass of XPath"
    the paper learns over XML (Section 2, after Staworko & Wieczorek).

    A twig query is a node-selecting tree pattern: a {e spine} of steps from
    the document root down to the selected (output) node, where each step
    carries an axis (child [/] or descendant [//]), a node test (a label or
    the wildcard [*]), and a set of boolean {e filters} (tree-shaped
    predicates, XPath's [[...]]).  A {e path query} is a twig whose steps
    carry no filters.

    The {e anchored} fragment is the class shown learnable from positive
    examples alone: a twig is anchored when no wildcard node is incident to a
    descendant edge (every [*] is surrounded by [/] edges).  Anchoredness is
    what guarantees a unique least general generalization — see {!Lgg}. *)

type axis = Child | Descendant

type test = Label of string | Wildcard

type filter = { ftest : test; fsubs : (axis * filter) list }
(** A boolean condition: a node with test [ftest] exists, with, for each
    [(axis, sub)], a child ([Child]) or proper descendant ([Descendant])
    satisfying [sub]. *)

type step = { axis : axis; test : test; filters : (axis * filter) list }

type t = step list
(** Non-empty; the first step's axis is relative to a virtual root above the
    document root (so [\[{axis=Child; test=Label "a"; _}\]] is XPath [/a] and
    [Descendant] there is [//a]).  The last step is the output node. *)

val size : t -> int
(** Number of pattern nodes (spine nodes + all filter nodes) — the query-size
    measure of experiment E3. *)

val filter_size : filter -> int

val depth : t -> int
(** Spine length. *)

val is_path : t -> bool
(** No filters anywhere. *)

val strip_filters : t -> t
(** Forget all filters, keeping the spine: the path-query projection. *)

val is_anchored : t -> bool
(** No wildcard node incident to a descendant edge, and the output node is
    not a wildcard. *)

val anchor : t -> t
(** Normalizes into the anchored fragment by {e generalizing}: every spine
    wildcard adjacent to a descendant edge is dropped (its incident edges
    fuse into one descendant edge) and every filter subtree rooted at such a
    wildcard is pruned at that point.  The result contains the input query
    (it selects at least the same nodes) and is anchored, unless the output
    node itself is an offending wildcard, in which case it is left in place
    (and {!is_anchored} stays false). *)

val of_example : Xmltree.Tree.t -> Xmltree.Tree.path -> t
(** The characteristic (most specific) twig of an annotated node: the exact
    root-to-node label path as spine with child axes, and at every spine
    node, each non-spine child subtree attached as a child filter.  It
    selects the annotated node in its document, and any query selecting that
    node in that document contains it. *)

val filter_of_tree : Xmltree.Tree.t -> filter
(** A tree viewed as the most specific filter it satisfies. *)

val tests_equal : test -> test -> bool
val equal : t -> t -> bool
(** Syntactic equality (filters compared up to ordering). *)

val labels : t -> string list
(** Distinct labels mentioned, sorted. *)

val pp : Format.formatter -> t -> unit
(** XPath syntax, e.g. [//a/b[c//d]/e]. *)

val pp_filter : Format.formatter -> filter -> unit
val to_string : t -> string
