type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

(* splitmix64: expands a 64-bit seed into a stream of well-mixed words.
   Recommended by Blackman & Vigna for seeding xoshiro. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  (* All-zero state is invalid for xoshiro; splitmix64 cannot produce four
     zero words from any seed, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (next t) in
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

(* Non-negative 62-bit int from the top bits of the raw output. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    (* Rejection sampling over the largest multiple of [bound] below 2^62. *)
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (((max62 mod bound) + 1) mod bound) in
    let rec draw () =
      let r = bits62 t in
      if r <= limit then r mod bound else draw ()
    in
    draw ()
  end

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Xoshiro.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let geometric t ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Xoshiro.geometric: p in (0,1]";
  let rec count acc = if float t < p then acc else count (acc + 1) in
  count 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
