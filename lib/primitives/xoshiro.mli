(** Deterministic, seedable pseudo-random number generator.

    The generator is xoshiro256** (Blackman & Vigna) seeded through
    splitmix64, the combination recommended by its authors.  Every source of
    randomness in this repository — key distributions, victim selection for
    spying, the randomized candidate selection of the shared k-LSM, skiplist
    heights, simulator scheduling jitter — draws from an explicit [t] so that
    whole experiments are reproducible from a single root seed.

    A [t] is not thread-safe; each thread/handle owns its own state. *)

type t
(** Mutable generator state (4 x 64-bit words). *)

val create : seed:int -> t
(** [create ~seed] expands [seed] with splitmix64 into a full 256-bit state.
    Distinct seeds yield decorrelated streams. *)

val split : t -> t
(** [split t] derives a new, decorrelated generator from [t], advancing [t].
    Used to hand one stream per thread out of a root stream. *)

val copy : t -> t
(** Snapshot of the current state, advancing nothing. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so there is no modulo bias. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float
(** Uniform float in [\[0, 1)], 53 bits of precision. *)

val bool : t -> bool
(** Fair coin flip. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts Bernoulli(p) failures before the first success
    (support 0, 1, 2, ...).  Used for skiplist tower heights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
