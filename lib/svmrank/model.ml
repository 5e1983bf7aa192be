type t = { w : float array }

let create w = { w = Array.copy w }
let dim t = Array.length t.w
let weights t = Array.copy t.w

let score t phi =
  if Sorl_util.Sparse.dim phi <> Array.length t.w then
    invalid_arg "Model.score: dimension mismatch";
  Sorl_util.Sparse.dot_dense phi t.w

(* Scores the [lo, hi) range of a strictly-increasing (idx, v) scratch
   pair against w.  The sum runs in increasing index order — the same
   float additions as [dot_dense] on the equivalent sparse vector — so
   it is bit-identical to [score].  The loop is unrolled 4-wide but
   keeps a single accumulator chain: the additions stay sequential
   (float addition is not associative, so parallel partial sums would
   change results); the unroll only amortizes the loop-control
   overhead.
   Bounds on idx/v are validated up front, so the body can use unsafe
   loads on them; w is indexed through idx contents and stays checked.
   Allocation-free. *)
let range_scorer t =
  let w = t.w in
  fun idx v lo hi ->
    if lo < 0 || hi < lo || hi > Array.length idx || hi > Array.length v then
      invalid_arg "Model.range_scorer: range out of bounds";
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

(* Order contract: ascending score, and on equal scores (with [0.] and
   [-0.] equal) the lower index first — for finite scores exactly the
   order of sorting indices by the (score, index) pair.  A bottom-up
   stable merge sort over the identity permutation gives that order by
   construction: insertion-sorted runs of [insertion_run] indices,
   then merges that take from the right half only when its head is
   strictly smaller, so equal scores never swap.  Scores are compared
   with [<] on a [float array], which compiles to an unboxed load and
   one float compare — no closure call, no polymorphic compare.  Every
   index held in the permutation arrays is below
   [n = Array.length scores], so score loads through them skip the
   bounds check. *)
let insertion_run = 16

let sort_by_score (scores : float array) =
  let n = Array.length scores in
  let[@inline always] sc i = Array.unsafe_get scores i in
  let a = Array.init n Fun.id in
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min (!lo + insertion_run) n in
    for i = !lo + 1 to hi - 1 do
      let x = a.(i) in
      let s = sc x in
      let j = ref (i - 1) in
      while !j >= !lo && s < sc a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    lo := hi
  done;
  let src = ref a and dst = ref (Array.make n 0) in
  let width = ref insertion_run in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min (!lo + !width) n and hi = Int.min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j < hi && (!i >= mid || sc s.(!j) < sc s.(!i)) then begin
          d.(k) <- s.(!j);
          incr j
        end
        else begin
          d.(k) <- s.(!i);
          incr i
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* The head of [sort_by_score] in one pass: strict [<] keeps the
   earlier index on equal scores, and [0.] and [-0.] compare equal, so
   a signed-zero tie also resolves by index. *)
let best_index (scores : float array) =
  if Array.length scores = 0 then invalid_arg "Model.best_index: no scores";
  let b = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if scores.(i) < scores.(!b) then b := i
  done;
  !b

(* Only nonzero weights are written, so a reader cannot infer the
   expected line count from [dim] alone: the [nnz] header and the [end]
   terminator are what turn a file truncated at a line boundary — or
   mid-float, where "-0.0030" degrades to a still-parseable "-0.00" —
   into a hard error instead of a silently different model. *)
let to_string t =
  let b = Buffer.create 256 in
  let nnz = Array.fold_left (fun n v -> if v <> 0. then n + 1 else n) 0 t.w in
  Buffer.add_string b
    (Printf.sprintf "sorl-rank-model 1\ndim %d\nnnz %d\n" (Array.length t.w) nnz);
  Array.iteri (fun i v -> if v <> 0. then Buffer.add_string b (Printf.sprintf "%d %.17g\n" i v)) t.w;
  Buffer.add_string b "end\n";
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  match lines with
  | magic :: dim_line :: nnz_line :: rest ->
    (match String.split_on_char ' ' (String.trim magic) with
    | [ "sorl-rank-model"; "1" ] -> ()
    | [ "sorl-rank-model"; v ] ->
      failwith
        (Printf.sprintf "Model.of_string: unsupported format version %S (this build reads 1)" v)
    | _ -> failwith "Model.of_string: bad magic (expected \"sorl-rank-model 1\")");
    let dim =
      match String.split_on_char ' ' dim_line with
      | [ "dim"; d ] -> ( try int_of_string d with _ -> failwith "Model.of_string: bad dim")
      | _ -> failwith "Model.of_string: bad dim line"
    in
    if dim <= 0 then failwith "Model.of_string: nonpositive dim";
    (* A linear ranker over the feature encodings never has more than a
       few thousand weights; an absurd dimension means a corrupt or
       hostile file, not a model — refuse before allocating. *)
    if dim > 10_000_000 then failwith "Model.of_string: implausibly large dim";
    let nnz =
      match String.split_on_char ' ' nnz_line with
      | [ "nnz"; n ] -> ( try int_of_string n with _ -> failwith "Model.of_string: bad nnz")
      | _ -> failwith "Model.of_string: bad nnz line"
    in
    let weight_lines, terminator =
      match List.rev rest with
      | "end" :: rev_weights -> (List.rev rev_weights, true)
      | _ -> (rest, false)
    in
    if not terminator then failwith "Model.of_string: truncated (missing end marker)";
    if List.length weight_lines <> nnz then
      failwith
        (Printf.sprintf "Model.of_string: truncated (%d weight lines, header says %d)"
           (List.length weight_lines) nnz);
    let w = Array.make dim 0. in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ i; v ] -> (
          match (int_of_string_opt i, float_of_string_opt v) with
          | Some i, Some x when i >= 0 && i < dim ->
            (* A NaN or infinite weight makes every score it touches
               non-finite, and [sort_by_score] defines no order for
               NaN: refuse it here, so a loaded model always ranks. *)
            if not (Float.is_finite x) then
              failwith (Printf.sprintf "Model.of_string: non-finite weight %S at index %d" v i);
            w.(i) <- x
          | _ -> failwith "Model.of_string: bad weight line")
        | _ -> failwith "Model.of_string: bad weight line")
      weight_lines;
    { w }
  | _ -> failwith "Model.of_string: truncated"

let save t path =
  Sorl_util.Persist.write_atomic path (fun oc -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
