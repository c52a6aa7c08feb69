module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; mn = infinity; mx = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  (* Empty summaries report 0.0, consistently with [mean] — the raw
     sentinels (infinity / neg_infinity) otherwise leak into reports. *)
  let min t = if t.n = 0 then 0.0 else t.mn
  let max t = if t.n = 0 then 0.0 else t.mx
  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        mn = Stdlib.min a.mn b.mn;
        mx = Stdlib.max a.mx b.mx;
        total = a.total +. b.total;
      }
    end

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n (mean t)
      (stddev t) (min t) (max t)
end

module Log_histogram = struct
  (* HDR-style log-scale histogram: the range [lo, hi) is split into
     octaves (powers of two above [lo]), each octave into [sub] linear
     sub-buckets, so resolution is a constant *fraction of the value* —
     the right shape for latency, where 10 us and 10 ms tails both
     matter.  Memory is octaves * sub counters regardless of sample
     count, so a million-request run costs the same as a hundred. *)
  type t = {
    lo : float;  (* smallest in-range value, > 0 *)
    hi : float;
    sub : int;  (* linear sub-buckets per octave *)
    octaves : int;
    counts : int array;  (* octaves * sub *)
    mutable under : int;
    mutable over : int;
    mutable nan : int;
    mutable n : int;  (* every add, including under/over/nan *)
    mutable mx : float;  (* exact max of non-NaN samples *)
    mutable total : float;  (* sum of non-NaN samples *)
  }

  let log2 x = log x /. log 2.0

  let create ~lo ~hi ~sub_buckets =
    if not (lo > 0.0) then invalid_arg "Log_histogram.create: lo must be > 0";
    if not (hi > lo) then invalid_arg "Log_histogram.create: bounds";
    if sub_buckets <= 0 then invalid_arg "Log_histogram.create: sub_buckets";
    let octaves = Stdlib.max 1 (int_of_float (ceil (log2 (hi /. lo)))) in
    {
      lo;
      hi;
      sub = sub_buckets;
      octaves;
      counts = Array.make (octaves * sub_buckets) 0;
      under = 0;
      over = 0;
      nan = 0;
      n = 0;
      mx = neg_infinity;
      total = 0.0;
    }

  let index t x =
    let oct = int_of_float (floor (log2 (x /. t.lo))) in
    let oct = Stdlib.min (Stdlib.max oct 0) (t.octaves - 1) in
    let base = t.lo *. Float.pow 2.0 (float_of_int oct) in
    let s = int_of_float ((x -. base) /. base *. float_of_int t.sub) in
    let s = Stdlib.min (Stdlib.max s 0) (t.sub - 1) in
    (oct * t.sub) + s

  let add t x =
    t.n <- t.n + 1;
    if Float.is_nan x then t.nan <- t.nan + 1
    else begin
      if x > t.mx then t.mx <- x;
      t.total <- t.total +. x;
      if x < t.lo then t.under <- t.under + 1
      else if x >= t.hi then t.over <- t.over + 1
      else begin
        let i = index t x in
        t.counts.(i) <- t.counts.(i) + 1
      end
    end

  let count t = t.n
  let underflow t = t.under
  let overflow t = t.over
  let nan_count t = t.nan
  let max t = if t.n - t.nan = 0 then 0.0 else t.mx
  let mean t = if t.n - t.nan = 0 then 0.0 else t.total /. float_of_int (t.n - t.nan)

  (* Representative value of bucket [i]: the sub-bucket midpoint, so the
     reported quantile is within half a sub-bucket width of the true
     sample — a relative error of at most 0.5 / sub. *)
  let bucket_value t i =
    let oct = i / t.sub and s = i mod t.sub in
    let base = t.lo *. Float.pow 2.0 (float_of_int oct) in
    base *. (1.0 +. ((float_of_int s +. 0.5) /. float_of_int t.sub))

  let percentile t p =
    if p < 0.0 || p > 100.0 then invalid_arg "Log_histogram.percentile: range";
    let pop = t.n - t.nan in
    if pop = 0 then invalid_arg "Log_histogram.percentile: empty";
    let rank =
      Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int pop)))
    in
    if rank <= t.under then t.lo
    else begin
      let seen = ref t.under in
      let result = ref None in
      (try
         for i = 0 to Array.length t.counts - 1 do
           seen := !seen + t.counts.(i);
           if !seen >= rank then begin
             result := Some (Stdlib.min (bucket_value t i) t.mx);
             raise Exit
           end
         done
       with Exit -> ());
      match !result with Some v -> v | None -> t.mx (* overflow ranks *)
    end

  let pp ppf t =
    let mx_count =
      Array.fold_left Stdlib.max 1 t.counts
    in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let oct = i / t.sub and s = i mod t.sub in
          let base = t.lo *. Float.pow 2.0 (float_of_int oct) in
          let b_lo = base *. (1.0 +. (float_of_int s /. float_of_int t.sub)) in
          let b_hi =
            base *. (1.0 +. (float_of_int (s + 1) /. float_of_int t.sub))
          in
          let bar = String.make (c * 40 / mx_count) '#' in
          Format.fprintf ppf "[%10.1f,%10.1f) %6d %s@." b_lo b_hi c bar
        end)
      t.counts;
    if t.under > 0 then Format.fprintf ppf "underflow %d@." t.under;
    if t.over > 0 then Format.fprintf ppf "overflow %d@." t.over;
    if t.nan > 0 then Format.fprintf ppf "nan %d@." t.nan
end

module Weighted = struct
  type t = {
    start : Time.t;
    mutable last : Time.t;
    mutable level : float;
    mutable area : float;
  }

  let create ~at ~level = { start = at; last = at; level; area = 0.0 }

  let update t ~at ~level =
    if Time.compare at t.last < 0 then invalid_arg "Weighted.update: time went backwards";
    t.area <- t.area +. (t.level *. float_of_int (Time.diff at t.last));
    t.last <- at;
    t.level <- level

  let average t ~upto =
    let span = Time.diff upto t.start in
    if span <= 0 then t.level
    else begin
      let tail =
        if Time.compare upto t.last > 0 then
          t.level *. float_of_int (Time.diff upto t.last)
        else 0.0
      in
      (t.area +. tail) /. float_of_int span
    end

  let current t = t.level
end
