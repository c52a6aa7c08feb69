(** Three-dimensional vectors (doubles). *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val dot : t -> t -> float
val norm2 : t -> float
(** Squared length. *)

val norm : t -> float
val dist2 : t -> t -> float
val equal : ?eps:float -> t -> t -> bool
