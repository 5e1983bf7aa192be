(* Tests for Sorl_util.Vec and Sorl_util.Sparse. *)

open Sorl_util

let feq = Alcotest.float 1e-9
let checkb = Alcotest.check Alcotest.bool

(* ---- Vec ---- *)

let test_vec_dot () =
  Alcotest.check feq "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot [| 1. |] [| 1.; 2. |]))

let test_vec_norms () =
  Alcotest.check feq "norm2" 25. (Vec.norm2 [| 3.; 4. |]);
  Alcotest.check feq "norm" 5. (Vec.norm [| 3.; 4. |])

let test_vec_ops () =
  let x = [| 1.; 2. |] and y = [| 3.; 5. |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 4.; 7. |] (Vec.add x y);
  Alcotest.(check (array (float 1e-9))) "sub" [| -2.; -3. |] (Vec.sub x y);
  Alcotest.(check (array (float 1e-9))) "scale" [| 2.; 4. |] (Vec.scale 2. x);
  let z = Array.copy y in
  Vec.axpy 2. x z;
  Alcotest.(check (array (float 1e-9))) "axpy" [| 5.; 9. |] z;
  let w = Array.copy x in
  Vec.scale_inplace 3. w;
  Alcotest.(check (array (float 1e-9))) "scale_inplace" [| 3.; 6. |] w

let test_vec_inplace () =
  let x = [| 1.; 2. |] in
  Vec.add_inplace x [| 3.; 5. |];
  Alcotest.(check (array (float 1e-9))) "add_inplace" [| 4.; 7. |] x;
  Vec.sub_inplace x [| 1.; 1. |];
  Alcotest.(check (array (float 1e-9))) "sub_inplace" [| 3.; 6. |] x;
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.add_inplace: dimension mismatch")
    (fun () -> Vec.add_inplace [| 1. |] [| 1.; 2. |])

let test_vec_equal () =
  checkb "equal within eps" true (Vec.equal ~eps:1e-6 [| 1. |] [| 1. +. 1e-8 |]);
  checkb "not equal" false (Vec.equal [| 1. |] [| 2. |]);
  checkb "dim mismatch" false (Vec.equal [| 1. |] [| 1.; 2. |])

(* ---- Sparse ---- *)

let test_sparse_roundtrip () =
  let d = [| 0.; 1.5; 0.; -2.; 0. |] in
  let s = Sparse.of_dense d in
  Alcotest.check Alcotest.int "nnz" 2 (Sparse.nnz s);
  Alcotest.(check (array (float 1e-9))) "roundtrip" d (Sparse.to_dense s)

let test_sparse_of_list () =
  let s = Sparse.of_list ~dim:4 [ (2, 1.); (0, 3.); (2, 2.); (1, 0.) ] in
  Alcotest.check feq "duplicates summed" 3. (Sparse.get s 2);
  Alcotest.check feq "zero dropped" 0. (Sparse.get s 1);
  Alcotest.check Alcotest.int "nnz" 2 (Sparse.nnz s);
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Sparse.of_list: index out of range") (fun () ->
      ignore (Sparse.of_list ~dim:2 [ (2, 1.) ]))

let test_sparse_of_sorted () =
  let s = Sparse.of_sorted ~dim:5 [| 1; 3 |] [| 2.; -1. |] in
  let via_list = Sparse.of_list ~dim:5 [ (1, 2.); (3, -1.) ] in
  checkb "matches of_list" true (Sparse.equal ~eps:0. s via_list);
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Sparse.of_sorted: indices not strictly increasing") (fun () ->
      ignore (Sparse.of_sorted ~dim:5 [| 3; 1 |] [| 1.; 1. |]));
  Alcotest.check_raises "explicit zero" (Invalid_argument "Sparse.of_sorted: explicit zero entry")
    (fun () -> ignore (Sparse.of_sorted ~dim:5 [| 1 |] [| 0. |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Sparse.of_sorted: index out of range")
    (fun () -> ignore (Sparse.of_sorted ~dim:5 [| 7 |] [| 1. |]));
  Alcotest.check_raises "length mismatch" (Invalid_argument "Sparse.of_sorted: length mismatch")
    (fun () -> ignore (Sparse.of_sorted ~dim:5 [| 1; 2 |] [| 1. |]))

let test_sparse_get_binary_search () =
  let s = Sparse.of_list ~dim:100 [ (3, 1.); (50, 2.); (99, 3.) ] in
  Alcotest.check feq "first" 1. (Sparse.get s 3);
  Alcotest.check feq "middle" 2. (Sparse.get s 50);
  Alcotest.check feq "last" 3. (Sparse.get s 99);
  Alcotest.check feq "absent" 0. (Sparse.get s 4)

let test_sparse_dot () =
  let a = Sparse.of_list ~dim:5 [ (0, 1.); (2, 2.); (4, 3.) ] in
  let b = Sparse.of_list ~dim:5 [ (2, 5.); (3, 7.) ] in
  Alcotest.check feq "sparse-sparse" 10. (Sparse.dot a b);
  Alcotest.check feq "sparse-dense" 10. (Sparse.dot_dense a [| 0.; 0.; 5.; 0.; 0. |])

let test_sparse_axpy_dense () =
  let a = Sparse.of_list ~dim:3 [ (1, 2.) ] in
  let d = [| 1.; 1.; 1. |] in
  Sparse.axpy_dense 3. a d;
  Alcotest.(check (array (float 1e-9))) "axpy_dense" [| 1.; 7.; 1. |] d

(* [Sparse.sub] as the tuple-list merge it used to be: the same float
   operation per entry and the same zero-dropping, kept here so the
   count-then-fill rewrite (and the CSR pair builder that shares it)
   is checked bit for bit against it. *)
let list_sub a b =
  let ia = Array.map fst (Sparse.nonzeros a) and va = Array.map snd (Sparse.nonzeros a) in
  let ib = Array.map fst (Sparse.nonzeros b) and vb = Array.map snd (Sparse.nonzeros b) in
  let out = ref [] in
  let na = Array.length ia and nb = Array.length ib in
  let i = ref 0 and j = ref 0 in
  let push idx v = if v <> 0. then out := (idx, v) :: !out in
  while !i < na || !j < nb do
    if !i < na && (!j >= nb || ia.(!i) < ib.(!j)) then begin
      push ia.(!i) (va.(!i) -. 0.);
      incr i
    end
    else if !j < nb && (!i >= na || ib.(!j) < ia.(!i)) then begin
      push ib.(!j) (0. -. vb.(!j));
      incr j
    end
    else begin
      push ia.(!i) (va.(!i) -. vb.(!j));
      incr i;
      incr j
    end
  done;
  let entries = List.rev !out in
  Sparse.of_sorted ~dim:(Sparse.dim a)
    (Array.of_list (List.map fst entries))
    (Array.of_list (List.map snd entries))

let bits t =
  Array.map (fun (i, x) -> (i, Int64.bits_of_float x)) (Sparse.nonzeros t)

let test_sparse_sub_scale () =
  let a = Sparse.of_list ~dim:3 [ (0, 1.); (1, 2.) ] in
  let b = Sparse.of_list ~dim:3 [ (1, 2.); (2, 4.) ] in
  let d = Sparse.sub a b in
  Alcotest.(check (array (float 1e-9))) "sub" [| 1.; 0.; -4. |] (Sparse.to_dense d);
  (* exact cancellation must not be stored *)
  Alcotest.check Alcotest.int "cancelled entry dropped" 2 (Sparse.nnz d);
  (* bit for bit the list merge, on vectors with shared, disjoint and
     exactly cancelling entries, subnormals and huge values *)
  let rng = Rng.create 97 in
  let vals = [| 1.; -1.; 0.1; 0.3 -. 0.2; 1e-310; -1e-310; 3.5e300; -2.25 |] in
  let vector dim =
    Sparse.of_list ~dim
      (List.init (Rng.int rng (dim + 1)) (fun _ ->
           (Rng.int rng dim, vals.(Rng.int rng (Array.length vals)))))
  in
  let cancelled = ref 0 in
  for _ = 1 to 500 do
    let dim = 1 + Rng.int rng 12 in
    let a = vector dim in
    (* a copy with some entries kept, so shared indices cancel exactly *)
    let b =
      if Rng.int rng 3 = 0 then a
      else
        Sparse.of_list ~dim
          (List.filter (fun _ -> Rng.int rng 2 = 0) (Array.to_list (Sparse.nonzeros a))
          @ Array.to_list (Sparse.nonzeros (vector dim)))
    in
    let want = list_sub a b and got = Sparse.sub a b in
    Alcotest.(check (array (pair int int64))) "sub = list merge, bit for bit" (bits want) (bits got);
    let union =
      List.length
        (List.sort_uniq compare
           (Array.to_list (Array.map fst (Array.append (Sparse.nonzeros a) (Sparse.nonzeros b)))))
    in
    if Sparse.nnz got < union then incr cancelled
  done;
  checkb "some differences cancelled to exactly 0" true (!cancelled > 50);
  let s = Sparse.scale 0. a in
  Alcotest.check Alcotest.int "scale by zero empties" 0 (Sparse.nnz s)

let test_sparse_concat () =
  let a = Sparse.of_list ~dim:2 [ (1, 1.) ] in
  let b = Sparse.of_list ~dim:3 [ (0, 2.) ] in
  let c = Sparse.concat [ a; b ] in
  Alcotest.check Alcotest.int "dim" 5 (Sparse.dim c);
  Alcotest.(check (array (float 1e-9))) "layout" [| 0.; 1.; 2.; 0.; 0. |] (Sparse.to_dense c)

let test_sparse_map_values () =
  let a = Sparse.of_list ~dim:3 [ (0, 1.); (1, -1.) ] in
  let b = Sparse.map_values (fun v -> if v < 0. then 0. else v *. 2.) a in
  Alcotest.check Alcotest.int "produced zero dropped" 1 (Sparse.nnz b);
  Alcotest.check feq "mapped" 2. (Sparse.get b 0)

let gen_dense = QCheck2.Gen.(array_size (int_range 1 30) (float_range (-10.) 10.))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"sparse dense roundtrip" gen_dense (fun d ->
           Sparse.to_dense (Sparse.of_dense d) = d));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"sparse dot agrees with dense dot"
         QCheck2.Gen.(pair gen_dense gen_dense)
         (fun (a, b) ->
           let n = min (Array.length a) (Array.length b) in
           let a = Array.sub a 0 n and b = Array.sub b 0 n in
           let sd = Sparse.dot (Sparse.of_dense a) (Sparse.of_dense b) in
           Float.abs (sd -. Vec.dot a b) < 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"sub then to_dense = dense sub"
         QCheck2.Gen.(pair gen_dense gen_dense)
         (fun (a, b) ->
           let n = min (Array.length a) (Array.length b) in
           let a = Array.sub a 0 n and b = Array.sub b 0 n in
           Sparse.to_dense (Sparse.sub (Sparse.of_dense a) (Sparse.of_dense b))
           = Vec.sub a b));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"norm2 consistency" gen_dense (fun d ->
           Float.abs (Sparse.norm2 (Sparse.of_dense d) -. Vec.norm2 d) < 1e-6));
  ]

let suite =
  [
    Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec equal" `Quick test_vec_equal;
    Alcotest.test_case "vec inplace ops" `Quick test_vec_inplace;
    Alcotest.test_case "sparse roundtrip" `Quick test_sparse_roundtrip;
    Alcotest.test_case "sparse of_list" `Quick test_sparse_of_list;
    Alcotest.test_case "sparse of_sorted" `Quick test_sparse_of_sorted;
    Alcotest.test_case "sparse get" `Quick test_sparse_get_binary_search;
    Alcotest.test_case "sparse dot" `Quick test_sparse_dot;
    Alcotest.test_case "sparse axpy_dense" `Quick test_sparse_axpy_dense;
    Alcotest.test_case "sparse sub/scale" `Quick test_sparse_sub_scale;
    Alcotest.test_case "sparse concat" `Quick test_sparse_concat;
    Alcotest.test_case "sparse map_values" `Quick test_sparse_map_values;
  ]
  @ qcheck_tests
