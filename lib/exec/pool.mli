(** Domain pools for data-parallel sweeps.

    The census experiments map a pure decision procedure over a universe
    of schedules; this module fans the map out over OCaml 5 domains
    while keeping the result {e order} (and therefore every downstream
    verdict, count and printed row) identical to a sequential run.

    Determinism contract: [map pool f xs] returns exactly
    [List.map f xs] — items are partitioned by index, each result slot is
    written by one domain, and the output is reassembled in input order.
    [f] must be pure up to observable results and must not share mutable
    state across items (an analysis {e context} must be created inside
    [f], never captured from outside — see [Mvcc_analysis.Ctx]).

    A pool with [jobs = 1] never spawns a domain: it {e is} the
    sequential seed path, not an emulation of it. *)

type t
(** A pool configuration (the degree of parallelism; domains are spawned
    per call, not kept alive). *)

val sequential : t
(** The [jobs = 1] pool: plain [List.map]. *)

val create : jobs:int -> t
(** A pool running at most [jobs] domains per call ([jobs] is clamped to
    at least 1). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs = List.map f xs], computed on up to [jobs] domains.
    If [f] raises on some items, the exception of the smallest failing
    index is re-raised after every domain has been joined. *)
