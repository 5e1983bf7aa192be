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

let sort_by_score (scores : float array) =
  let idx = Array.init (Array.length scores) (fun i -> i) in
  (* The parameter annotation matters: without it this function is
     inferred at ['a array] (the mli constrains only the interface, not
     the compiled code) and every comparison goes through generic array
     loads that box both floats plus a polymorphic compare call.
     Annotated, the loads and comparisons are unboxed primitives.
     Identical order for finite scores (ties, including 0. vs -0.,
     fall through to the index). *)
  Array.sort
    (fun a b ->
      if scores.(a) < scores.(b) then -1
      else if scores.(b) < scores.(a) then 1
      else compare (a : int) (b : int))
    idx;
  idx

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
          try w.(int_of_string i) <- float_of_string v
          with _ -> failwith "Model.of_string: bad weight line")
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
