(** Dependency graphs of a schema, and the PTIME static analyses the paper
    reduces to them: "for disjunction-free multiplicity schemas, we have
    reduced query satisfiability and query implication to testing embedding
    from the query to some dependency graphs" (Section 2).

    The {e possible} graph has an edge [a → b] when [b] may appear among the
    children of [a] (it occurs in some clause of [a]'s rule); the
    {e required} graph has [a → b] when every valid node labeled [a] {e must}
    have a [b] child ([b] occurs with a non-nullable multiplicity in every
    clause).

    - A twig query is {e satisfiable} w.r.t. the schema iff it embeds into
      the possible graph from the root (sound and complete for
      disjunction-free schemas; sound as a necessary condition in general).
    - A filter is {e implied} at label [a] when it embeds into the required
      graph from [a]; implied filters are satisfied by every valid document
      and are exactly the "overspecialization" the schema-aware learner
      prunes.  The check is sound for all schemas and complete for the
      disjunction-free restriction. *)

type t

val of_schema : Schema.t -> t
val schema : t -> Schema.t

val possible_edges : t -> (string * string) list
(** Sorted pairs. *)

val satisfiable : t -> Twig.Query.t -> bool
(** Whether some valid document has a node selected by the query. *)

val filter_implied :
  t -> at:string -> Twig.Query.axis * Twig.Query.filter -> bool
(** Whether every valid document node labeled [at] satisfies the filter. *)

val label_implied : t -> at:string -> child:string -> bool
(** Required-edge membership (the simplest filter implication). *)
