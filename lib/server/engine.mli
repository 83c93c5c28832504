(** The server's request executor: one {!Toss_core.Session} plus the
    result cache and durable storage, on the MVCC read/write split.

    {2 Concurrency contract}

    [exec] is safe to call concurrently from any number of domains (the
    {!Pool} workers) and threads:

    - {b Reads} ([Query]/[Explain]) take no engine lock. Each request
      pins one (SEO, snapshot) capture via {!Toss_core.Session.pin} —
      the request's linearization point — and executes against it
      lock-free. The pinned {!Toss_core.Session.pinned_version} is both
      the result-cache key component and the [version] reported in the
      answer, so every answer names the exact state it ran against, and
      a cached payload is only ever served to a request that pinned the
      same version (plus identical config/mode/TQL).
    - {b Writes} ([Insert]) serialize on an internal write mutex: the
      session insert (which publishes the new collection version), the
      document append to [db_dir] and the cache invalidation commit as
      one critical section. In-flight reads are unaffected — they keep
      answering at their pinned version; reads that pin after the write
      see the new version.
    - A stale re-population racing an invalidation (a reader finishing
      at version [v] after a writer published [v+1]) is harmless by
      construction: its cache entry is keyed at [v], versions only
      advance, so no future request can pin [v] again — the entry is
      dead weight until FIFO eviction, never a wrong answer.
    - [Stats]/[Metrics]/[Ping] touch only the domain-safe
      {!Toss_obs.Metrics} registry.

    [exec] is deadline-aware: the deadline is an absolute
    [Unix.gettimeofday] instant, checked on entry and then cooperatively
    inside the compiled matcher via {!Toss_core.Plan.run}'s [check]
    hook — per-request state, so cancellation is domain-safe. A missed
    deadline surfaces as the typed [deadline_exceeded] wire error, never
    a partial result. *)

type t

val create :
  ?db_dir:string ->
  ?metric:Toss_similarity.Metric.t ->
  ?eps:float ->
  ?cache_capacity:int ->
  unit ->
  (t, string) result
(** [db_dir]: hydrate the session from the database directory
    (created if missing) and append every subsequent insert to it.
    [metric] is the similarity measure (default Levenshtein, the
    {!Toss_core.Session} default); its name enters the cache-key
    fingerprint, so engines with different measures never share
    entries. [cache_capacity] of 0 disables the result cache
    (default 256). [Error] aggregates hydration failures
    ({!Toss_store.Persist.load_database}). *)

val config_fingerprint : t -> string
(** The SEO-configuration component of the cache key. *)

val exec :
  t -> deadline:float option -> Protocol.request -> (Toss_json.t, Protocol.error) result
(** Executes one request, from any domain (see the concurrency contract
    above). [Shutdown] is not the engine's business and answers like
    [Ping] (the server layer intercepts it first). *)

val exec_traced :
  t ->
  deadline:float option ->
  Protocol.request ->
  (Toss_json.t, Protocol.error) result * Toss_obs.Span.t option
(** Like {!exec}, but also returns the executed query's span tree when
    one was built: [Some] exactly for a [Query] that ran the executor
    (a cache hit runs nothing, so it has no tree), [None] otherwise.
    This is how the server records full traces for sampled requests at
    zero extra cost — the executor always builds the tree; the server
    merely chooses whether to serialize it. *)
