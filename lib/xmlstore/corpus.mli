(** A sharded corpus of labeled documents.

    One shard = one {!Store.t}.  Shards are the parallelism granularity
    that actually pays: each {!Core.Pool} lane owns whole documents, so
    there is no cross-domain sharing of store caches, no per-probe
    dispatch overhead, and per-shard results are merged back in shard
    order — deterministically, whatever the pool size or interleaving.

    The per-shard work a lane runs is whatever the caller passes to
    {!map}: label, persist ({!Store.save}), validate, evaluate.  Keeping
    the whole per-shard pipeline inside one lane lets evaluation of one
    shard overlap the fsync of another. *)

type t

val of_trees : ?pool:Core.Pool.t -> Xmltree.Tree.t array -> t
(** Label every document; with a pool, shards are labeled in parallel. *)

val shards : t -> int
val store : t -> int -> Store.t

val total_nodes : t -> int

val map : ?pool:Core.Pool.t -> ?chunk:int -> t -> (int -> Store.t -> 'a) -> 'a array
(** [map ?pool ?chunk c f] runs [f shard_index store] per shard —
    sequentially without a pool, else via {!Core.Pool.map_array_chunked}
    (default [chunk = 1]: one shard per dispatch, since shards are
    chunky).  Results are in shard order at every pool size. *)

val select : ?pool:Core.Pool.t -> t -> Pattern.t -> int list array
(** Per-shard matching node ids (ascending within each shard), in shard
    order. *)
