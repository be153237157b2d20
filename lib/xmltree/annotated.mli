(** Annotated documents: the examples of XML query learning.

    In the learning framework of Section 2 of the paper, "the examples are
    XML documents with annotated nodes": the user marks nodes the goal query
    must select (positive) or must not select (negative).  An annotated
    document pairs a tree with a node address and a polarity; a sample is a
    list of such annotations, possibly over several documents. *)

type t = { doc : Tree.t; target : Tree.path }
(** One annotation: [target] must address a node of [doc]. *)

val make : Tree.t -> Tree.path -> t
(** @raise Invalid_argument when [target] addresses no node of [doc]. *)

val target_node : t -> Tree.t
(** The annotated node. *)

val positive : Tree.t -> Tree.path -> t Core.Example.t
val negative : Tree.t -> Tree.path -> t Core.Example.t

val examples_of_answers :
  Tree.t -> answers:Tree.path list -> t Core.Example.t list
(** Labels every node of the document: paths in [answers] become positive
    examples, all other nodes negative — a fully annotated document as in
    the learning of n-ary queries from "completely annotated examples". *)

val pp : Format.formatter -> t -> unit
(** The target's root-to-node label path as an XPath location path, e.g.
    [/site/people/person[3]/name]: one step per node from the root down,
    named by its label.  A step carries its 1-based position among its
    same-named siblings, written only where that name repeats.  An
    attribute step reads [@id]; a text step reads [text()].  The work is
    O(depth × fan-out): the document itself is never printed. *)
