(** A bounded, domain-safe LRU checkpoint store.

    The replay-elision layer (DPOR, exploration, inference) keys
    checkpoints — VM snapshots, analysis snapshots, scheduler prefixes —
    by their place in the execution tree and fetches the deepest cached
    ancestor instead of replaying from the root. This store is the shared
    substrate: a hash table threaded with an LRU list, capped by the
    {e sum of entry weights} in bytes. Entries should be immutable values
    (a consumer that mutated a fetched entry would corrupt every later
    hit), and their weights should not under-count what they retain: VM
    snapshots are flat copies weighed exactly, so the cap is a ceiling on
    what the cache can pin, which is the property the exploration layer
    needs (dropping an entry costs a replay, never correctness).

    All operations are mutex-protected: one store may be hit concurrently
    by every shard of a parallel exploration. Counters ({!stats}) are
    cumulative since {!create}; consumers flush deltas into [Coop_obs]
    (this library deliberately has no telemetry dependency). *)

type 'v t
(** A store holding values of type ['v]. *)

type stats = {
  hits : int;  (** [find] calls that returned an entry. *)
  misses : int;  (** [find] calls that found nothing. *)
  evictions : int;  (** Entries dropped to respect the cap. *)
  bytes : int;  (** Current estimated retained bytes. *)
  peak_bytes : int;  (** High-water mark of [bytes]. *)
  entries : int;  (** Current entry count. *)
}

val create : ?cap_bytes:int -> weight:('v -> int) -> unit -> 'v t
(** [create ~weight ()] builds an empty store. [weight v] estimates the
    retained size of [v] in bytes (clamped to at least 1); [cap_bytes]
    (default 64 MiB) bounds the weight sum. Raises [Invalid_argument] on a
    non-positive cap. *)

val find : 'v t -> string -> 'v option
(** [find t key] returns the cached value and marks it most recently
    used. Counted as a hit or miss. *)

val add : 'v t -> string -> 'v -> unit
(** [add t key v] inserts (or replaces) the entry and evicts least
    recently used entries until the weight sum fits the cap again. A
    value heavier than the whole cap is evicted immediately — the store
    never retains more than [cap_bytes]. *)

val remove : _ t -> string -> unit
(** [remove t key] drops the entry, if any, without counting an eviction —
    for a consumer that knows the key will never be looked up again. *)

val stats : _ t -> stats
(** Cumulative counters and current occupancy. *)

val cap_bytes : _ t -> int
(** The configured budget. *)
