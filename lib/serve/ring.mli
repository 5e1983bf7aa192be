(** Consistent-hash ring for the serving fleet.

    Each shard contributes [replicas] virtual points hashed onto a
    64-bit circle; a key is owned by the first point clockwise of its
    own hash.  Because a shard's points depend only on its name, adding
    or removing one shard moves only the keys whose owning arc changed
    — about [1/N] of the keyspace — while every other key keeps its
    shard, so rankings and batchers stay hot across fleet
    resizes.  [Test_fleet] checks both invariants exactly: removing a
    shard never moves a key the removed shard did not own, and a key
    that moves on addition always lands on the new shard. *)

type t

val create : ?replicas:int -> string list -> t
(** Build a ring from shard names (order-insensitive: the ring layout
    depends only on the set of names).  [replicas] virtual points per
    shard, default 128.  Raises [Invalid_argument] on an empty list or
    a duplicate name. *)

val size : t -> int
(** Number of shards. *)

val name : t -> int -> string
(** Shard name by index (creation order). *)

val owner : t -> string -> int
(** Index of the shard owning [key]. *)

val owners : t -> string -> int list
(** All shard indices in ring order starting at [key]'s owner, each
    appearing once.  The head is {!owner}; the tail is the preference
    order for failover when earlier shards are draining or down. *)
