type t = { dim : int; idx : int array; v : float array }

(* Sort-and-merge build: a stable sort keeps duplicate indices in list
   order, so summing each run left-to-right performs the same float
   additions (in the same order) as the accumulating hash table this
   replaces — no hashing, and a deterministic entry order throughout. *)
let of_list ~dim pairs =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= dim then invalid_arg "Sparse.of_list: index out of range")
    pairs;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b) pairs in
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, x) :: rest ->
      let rec take x = function
        | (j, y) :: tl when j = i -> take (x +. y) tl
        | tl -> (x, tl)
      in
      let x, tl = take (0. +. x) rest in
      if x = 0. then merge acc tl else merge ((i, x) :: acc) tl
  in
  let entries = merge [] sorted in
  { dim; idx = Array.of_list (List.map fst entries); v = Array.of_list (List.map snd entries) }

let of_sorted ~dim idx v =
  let n = Array.length idx in
  if Array.length v <> n then invalid_arg "Sparse.of_sorted: length mismatch";
  for k = 0 to n - 1 do
    if idx.(k) < 0 || idx.(k) >= dim then
      invalid_arg "Sparse.of_sorted: index out of range";
    if k > 0 && idx.(k) <= idx.(k - 1) then
      invalid_arg "Sparse.of_sorted: indices not strictly increasing";
    if v.(k) = 0. then invalid_arg "Sparse.of_sorted: explicit zero entry"
  done;
  { dim; idx = Array.copy idx; v = Array.copy v }

let of_dense a =
  let entries = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) <> 0. then entries := (i, a.(i)) :: !entries
  done;
  let entries = !entries in
  { dim = Array.length a;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let to_dense t =
  let a = Array.make t.dim 0. in
  Array.iteri (fun k i -> a.(i) <- t.v.(k)) t.idx;
  a

let dim t = t.dim
let nnz t = Array.length t.idx

let get t i =
  if i < 0 || i >= t.dim then invalid_arg "Sparse.get: index out of range";
  (* Binary search over the sorted index array. *)
  let lo = ref 0 and hi = ref (Array.length t.idx - 1) and found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.idx.(mid) = i then begin
      found := t.v.(mid);
      lo := !hi + 1
    end
    else if t.idx.(mid) < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let nonzeros t = Array.init (nnz t) (fun k -> (t.idx.(k), t.v.(k)))
let iteri f t = Array.iteri (fun k i -> f i t.v.(k)) t.idx

let dot a b =
  if a.dim <> b.dim then invalid_arg "Sparse.dot: dimension mismatch";
  let acc = ref 0. and i = ref 0 and j = ref 0 in
  let na = Array.length a.idx and nb = Array.length b.idx in
  while !i < na && !j < nb do
    let ia = a.idx.(!i) and ib = b.idx.(!j) in
    if ia = ib then begin
      acc := !acc +. (a.v.(!i) *. b.v.(!j));
      incr i;
      incr j
    end
    else if ia < ib then incr i
    else incr j
  done;
  !acc

let dot_dense t d =
  if Array.length d < t.dim then invalid_arg "Sparse.dot_dense: dense side too short";
  let acc = ref 0. in
  Array.iteri (fun k i -> acc := !acc +. (t.v.(k) *. d.(i))) t.idx;
  !acc

let axpy_dense a t d =
  if Array.length d < t.dim then invalid_arg "Sparse.axpy_dense: dense side too short";
  Array.iteri (fun k i -> d.(i) <- d.(i) +. (a *. t.v.(k))) t.idx

(* [a − b] as a two-pointer merge over the sorted indices, in two
   passes: [diff_count] sizes the result and [diff_fill] writes it.
   Both compute each entry as [a -. 0.], [0. -. b] or [a -. b] and drop
   a value that compares equal to 0, so the count is exact and a vector
   difference, a CSR row of pair differences and the tuple-list merge
   this replaces all hold the same entries, bit for bit.  Every read is
   guarded by its index's loop bound, so reads are unsafe. *)
let diff_count a b =
  let ai = a.idx and av = a.v and bi = b.idx and bv = b.v in
  let na = Array.length ai and nb = Array.length bi in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < na && !j < nb do
    let ia = Array.unsafe_get ai !i and ib = Array.unsafe_get bi !j in
    if ia < ib then begin
      if Array.unsafe_get av !i -. 0. <> 0. then incr n;
      incr i
    end
    else if ib < ia then begin
      if 0. -. Array.unsafe_get bv !j <> 0. then incr n;
      incr j
    end
    else begin
      if Array.unsafe_get av !i -. Array.unsafe_get bv !j <> 0. then incr n;
      incr i;
      incr j
    end
  done;
  while !i < na do
    if Array.unsafe_get av !i -. 0. <> 0. then incr n;
    incr i
  done;
  while !j < nb do
    if 0. -. Array.unsafe_get bv !j <> 0. then incr n;
    incr j
  done;
  !n

(* Writes the entries of [a − b] into [idx]/[v] from position [at]. *)
let diff_fill a b idx v at =
  let ai = a.idx and av = a.v and bi = b.idx and bv = b.v in
  let na = Array.length ai and nb = Array.length bi in
  let i = ref 0 and j = ref 0 and k = ref at in
  while !i < na && !j < nb do
    let ia = Array.unsafe_get ai !i and ib = Array.unsafe_get bi !j in
    if ia < ib then begin
      let x = Array.unsafe_get av !i -. 0. in
      if x <> 0. then begin
        idx.(!k) <- ia;
        v.(!k) <- x;
        incr k
      end;
      incr i
    end
    else if ib < ia then begin
      let x = 0. -. Array.unsafe_get bv !j in
      if x <> 0. then begin
        idx.(!k) <- ib;
        v.(!k) <- x;
        incr k
      end;
      incr j
    end
    else begin
      let x = Array.unsafe_get av !i -. Array.unsafe_get bv !j in
      if x <> 0. then begin
        idx.(!k) <- ia;
        v.(!k) <- x;
        incr k
      end;
      incr i;
      incr j
    end
  done;
  while !i < na do
    let x = Array.unsafe_get av !i -. 0. in
    if x <> 0. then begin
      idx.(!k) <- Array.unsafe_get ai !i;
      v.(!k) <- x;
      incr k
    end;
    incr i
  done;
  while !j < nb do
    let x = 0. -. Array.unsafe_get bv !j in
    if x <> 0. then begin
      idx.(!k) <- Array.unsafe_get bi !j;
      v.(!k) <- x;
      incr k
    end;
    incr j
  done

let sub a b =
  if a.dim <> b.dim then invalid_arg "Sparse.sub: dimension mismatch";
  let n = diff_count a b in
  let idx = Array.make n 0 and v = Array.make n 0. in
  diff_fill a b idx v 0;
  { dim = a.dim; idx; v }

let scale a t =
  if a = 0. then { dim = t.dim; idx = [||]; v = [||] }
  else { t with v = Array.map (fun x -> a *. x) t.v }

let norm2 t = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. t.v

let map_values f t =
  let entries = ref [] in
  for k = Array.length t.idx - 1 downto 0 do
    let x = f t.v.(k) in
    if x <> 0. then entries := (t.idx.(k), x) :: !entries
  done;
  let entries = !entries in
  { dim = t.dim;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let concat ts =
  let total = List.fold_left (fun acc t -> acc + t.dim) 0 ts in
  let entries = ref [] in
  let offset = ref 0 in
  List.iter
    (fun t ->
      Array.iteri (fun k i -> entries := (i + !offset, t.v.(k)) :: !entries) t.idx;
      offset := !offset + t.dim)
    ts;
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) !entries in
  { dim = total;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let equal ?(eps = 1e-12) a b =
  a.dim = b.dim
  &&
  let d = sub a b in
  Array.for_all (fun x -> Float.abs x <= eps) d.v

let pp ppf t =
  Format.fprintf ppf "{dim=%d;@ " t.dim;
  Array.iteri (fun k i -> Format.fprintf ppf "%d:%g@ " i t.v.(k)) t.idx;
  Format.fprintf ppf "}"

type sparse = t

(* Compressed sparse rows: one flat index array, one flat value array,
   row offsets.  Row [r] lives at [offs.(r), offs.(r+1)) of [idx]/[v]
   and obeys the same invariant as a sparse vector (strictly increasing
   indices, no explicit zeros), so every row kernel below performs the
   exact float operations of its [Sparse.t] counterpart — batch callers
   get bit-identical results with zero per-row allocation. *)
module Csr = struct
  type t = { dim : int; offs : int array; idx : int array; v : float array }

  let create ~dim ~offs ~idx ~v =
    let nnz = Array.length idx in
    if Array.length v <> nnz then invalid_arg "Csr.create: idx/v length mismatch";
    let nrows = Array.length offs - 1 in
    if nrows < 0 then invalid_arg "Csr.create: offs must have >= 1 entry";
    if offs.(0) <> 0 || offs.(nrows) <> nnz then
      invalid_arg "Csr.create: offsets must span the entry arrays";
    for r = 0 to nrows - 1 do
      if offs.(r) > offs.(r + 1) then invalid_arg "Csr.create: offsets must be nondecreasing";
      for k = offs.(r) to offs.(r + 1) - 1 do
        if idx.(k) < 0 || idx.(k) >= dim then invalid_arg "Csr.create: index out of range";
        if k > offs.(r) && idx.(k) <= idx.(k - 1) then
          invalid_arg "Csr.create: row indices not strictly increasing";
        if v.(k) = 0. then invalid_arg "Csr.create: explicit zero entry"
      done
    done;
    { dim; offs; idx; v }

  let dim t = t.dim
  let rows t = Array.length t.offs - 1
  let nnz t = t.offs.(rows t)
  let row_nnz t r = t.offs.(r + 1) - t.offs.(r)

  let of_rows ~dim rs =
    let n = Array.length rs in
    let offs = Array.make (n + 1) 0 in
    Array.iteri
      (fun r (s : sparse) ->
        if s.dim <> dim then invalid_arg "Csr.of_rows: row dimension mismatch";
        offs.(r + 1) <- offs.(r) + Array.length s.idx)
      rs;
    let total = offs.(n) in
    let idx = Array.make total 0 and v = Array.make total 0. in
    Array.iteri
      (fun r (s : sparse) ->
        Array.blit s.idx 0 idx offs.(r) (Array.length s.idx);
        Array.blit s.v 0 v offs.(r) (Array.length s.v))
      rs;
    { dim; offs; idx; v }

  (* Count pass, then fill pass: every row is exactly [sub] of its
     pair's two vectors, written in place with no per-pair vector. *)
  let of_diffs ~dim (vs : sparse array) pairs =
    let n = Array.length pairs in
    let offs = Array.make (n + 1) 0 in
    for p = 0 to n - 1 do
      let a, b = pairs.(p) in
      let (va : sparse) = vs.(a) and (vb : sparse) = vs.(b) in
      if va.dim <> dim || vb.dim <> dim then invalid_arg "Csr.of_diffs: row dimension mismatch";
      offs.(p + 1) <- offs.(p) + diff_count va vb
    done;
    let idx = Array.make offs.(n) 0 and v = Array.make offs.(n) 0. in
    for p = 0 to n - 1 do
      let a, b = pairs.(p) in
      diff_fill vs.(a) vs.(b) idx v offs.(p)
    done;
    { dim; offs; idx; v }

  let row t r =
    let lo = t.offs.(r) and hi = t.offs.(r + 1) in
    { dim = t.dim; idx = Array.sub t.idx lo (hi - lo); v = Array.sub t.v lo (hi - lo) }

  (* 4-wide unroll with a single sequential accumulator chain: float
     addition is not associative, so partial sums would change results;
     keeping one chain makes the unrolled loop bit-identical to the
     plain one while amortizing loop control.  [create] validated the
     entry arrays, so idx/v use unsafe loads; [w] is indexed through
     row contents and stays bounds-checked. *)
  let dot_row t r w =
    let lo = t.offs.(r) and hi = t.offs.(r + 1) in
    let idx = t.idx and v = t.v in
    let acc = ref 0. in
    let k = ref lo in
    while !k + 4 <= hi do
      let k0 = !k in
      acc := !acc +. (Array.unsafe_get v k0 *. w.(Array.unsafe_get idx k0));
      acc := !acc +. (Array.unsafe_get v (k0 + 1) *. w.(Array.unsafe_get idx (k0 + 1)));
      acc := !acc +. (Array.unsafe_get v (k0 + 2) *. w.(Array.unsafe_get idx (k0 + 2)));
      acc := !acc +. (Array.unsafe_get v (k0 + 3) *. w.(Array.unsafe_get idx (k0 + 3)));
      k := k0 + 4
    done;
    while !k < hi do
      acc := !acc +. (Array.unsafe_get v !k *. w.(Array.unsafe_get idx !k));
      incr k
    done;
    !acc

  (* One load per 64-byte line of the row's [idx] and [v] spans (8
     entries apart, plus the last entry), summed into an opaque value
     so the loads are kept.  The loads of several rows issued back to
     back miss in parallel instead of one row at a time. *)
  let prefetch_row t r =
    let lo = t.offs.(r) and hi = t.offs.(r + 1) in
    let acc = ref 0 and k = ref lo in
    while !k < hi do
      acc := !acc + Array.unsafe_get t.idx !k + int_of_float (Array.unsafe_get t.v !k);
      k := !k + 8
    done;
    if hi > lo then
      acc := !acc + Array.unsafe_get t.idx (hi - 1) + int_of_float (Array.unsafe_get t.v (hi - 1));
    ignore (Sys.opaque_identity !acc)

  let axpy_row a t r y =
    for k = t.offs.(r) to t.offs.(r + 1) - 1 do
      y.(t.idx.(k)) <- y.(t.idx.(k)) +. (a *. t.v.(k))
    done

  let norm2_row t r =
    let acc = ref 0. in
    for k = t.offs.(r) to t.offs.(r + 1) - 1 do
      acc := !acc +. (t.v.(k) *. t.v.(k))
    done;
    !acc
end
