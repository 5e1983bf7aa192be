type sample = {
  query : int;
  features : Sorl_util.Sparse.t;
  runtime : float;
  tag : string;
}

type t = {
  dim : int;
  samples : sample array;
  ids : int array;  (* distinct query ids, first-appearance order *)
  members : (int, int array) Hashtbl.t;
}

let create ~dim samples =
  if samples = [] then invalid_arg "Dataset.create: empty";
  List.iter
    (fun s ->
      if Sorl_util.Sparse.dim s.features <> dim then
        invalid_arg "Dataset.create: feature dimension mismatch";
      if not (Float.is_finite s.runtime) || s.runtime <= 0. then
        invalid_arg "Dataset.create: runtime must be finite and positive")
    samples;
  let samples = Array.of_list samples in
  let members = Hashtbl.create 64 in
  let ids = ref [] in
  Array.iteri
    (fun i s ->
      match Hashtbl.find_opt members s.query with
      | Some l -> Hashtbl.replace members s.query (i :: l)
      | None ->
        ids := s.query :: !ids;
        Hashtbl.replace members s.query [ i ])
    samples;
  let members' = Hashtbl.create (Hashtbl.length members) in
  Hashtbl.iter (fun q l -> Hashtbl.replace members' q (Array.of_list (List.rev l))) members;
  { dim; samples; ids = Array.of_list (List.rev !ids); members = members' }

let dim t = t.dim
let num_samples t = Array.length t.samples
let num_queries t = Array.length t.ids
let samples t = t.samples
let query_ids t = Array.copy t.ids

let query_members t q =
  match Hashtbl.find_opt t.members q with Some a -> Array.copy a | None -> raise Not_found

(* A query's strict pairs, packed [i lsl 31 lor j] in (a, b)
   enumeration order into one flat buffer: [(buf, m)] with the pairs in
   [buf.(0 .. m-1)].  At most one of (a, b) and (b, a) is strict, so
   n(n-1)/2 cells always suffice.  Sample indices stay far below 2^31
   (a dataset that large could not be held in memory). *)
let strict_pairs_of_query t idxs =
  let n = Array.length idxs in
  let rt = Array.map (fun i -> t.samples.(i).runtime) idxs in
  let buf = Array.make (n * (n - 1) / 2) 0 in
  let m = ref 0 in
  for a = 0 to n - 1 do
    let ra = rt.(a) and i = idxs.(a) lsl 31 in
    for b = 0 to n - 1 do
      if ra > rt.(b) then begin
        buf.(!m) <- i lor idxs.(b);
        incr m
      end
    done
  done;
  (buf, !m)

(* Queries are built one after another on the calling domain.
   Enumerating the 38,592 strict pairs of the default training set
   takes under 1 ms; the cost is allocating the pair arrays, and a pool
   fan-out pushed major-GC work onto the spawned domain: right after
   training-set generation it took 60-140 ms on 2 domains against
   3-5 ms on 1.  Subsampling draws from a per-query generator seeded by
   [Rng.derive_seed base qi] — [base] is the single value drawn from
   the caller's generator — so each query's subsample depends only on
   (caller rng state, query position), and the caller's stream advances
   by exactly one draw regardless of how many queries subsample.
   Pair [k] of a query is buffer cell [m-1-k], reverse enumeration
   order.  That order is part of the output: the subsample draws
   [max_per_query] of its [m] positions, and the solvers visit pairs
   in it.  Only the kept pairs are unpacked. *)
let pairs ?max_per_query ?rng t =
  let base =
    match rng with
    | None -> 0
    | Some r -> Int64.to_int (Sorl_util.Rng.bits64 r) land max_int
  in
  let blocks =
    Array.mapi
      (fun qi q ->
        let buf, m = strict_pairs_of_query t (Hashtbl.find t.members q) in
        let nth k =
          let p = buf.(m - 1 - k) in
          (p lsr 31, p land 0x7fff_ffff)
        in
        match max_per_query with
        | Some cap when m > cap ->
          if Option.is_none rng then invalid_arg "Dataset.pairs: subsampling requires ~rng";
          let qrng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed base qi) in
          Array.map nth (Sorl_util.Rng.sample_without_replacement qrng cap m)
        | _ -> Array.init m nth)
      t.ids
  in
  Array.concat (Array.to_list blocks)

let num_possible_pairs t =
  Array.fold_left
    (fun acc q -> acc + snd (strict_pairs_of_query t (Hashtbl.find t.members q)))
    0 t.ids

let subset t n =
  if n <= 0 || n > num_samples t then invalid_arg "Dataset.subset: size out of range";
  create ~dim:t.dim (Array.to_list (Array.sub t.samples 0 n))

let to_string t =
  let b = Buffer.create (4096 + (num_samples t * 64)) in
  Buffer.add_string b (Printf.sprintf "sorl-dataset 1 dim %d samples %d\n" t.dim (num_samples t));
  Array.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "%d %.17g" s.query s.runtime);
      Sorl_util.Sparse.iteri
        (fun i v -> Buffer.add_string b (Printf.sprintf " %d:%.17g" i v))
        s.features;
      (* newlines in tags would corrupt the format *)
      let tag = String.map (fun c -> if c = '\n' then ' ' else c) s.tag in
      if tag <> "" then Buffer.add_string b (" # " ^ tag);
      Buffer.add_char b '\n')
    t.samples;
  Buffer.contents b

let of_string str =
  let fail msg = failwith ("Dataset.of_string: " ^ msg) in
  match String.split_on_char '\n' str with
  | [] -> fail "empty"
  | header :: rest ->
    let dim =
      match String.split_on_char ' ' header with
      | [ "sorl-dataset"; "1"; "dim"; d; "samples"; _ ] -> (
        try int_of_string d with _ -> fail "bad dim")
      | _ -> fail "bad header"
    in
    let parse_line line =
      let body, tag =
        match String.index_opt line '#' with
        | Some i ->
          ( String.trim (String.sub line 0 i),
            String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
        | None -> (String.trim line, "")
      in
      match String.split_on_char ' ' body |> List.filter (fun s -> s <> "") with
      | qid :: runtime :: feats ->
        let query = try int_of_string qid with _ -> fail "bad qid" in
        let runtime = try float_of_string runtime with _ -> fail "bad runtime" in
        let entries =
          List.map
            (fun f ->
              match String.split_on_char ':' f with
              | [ i; v ] -> (
                try (int_of_string i, float_of_string v) with _ -> fail "bad feature")
              | _ -> fail "bad feature")
            feats
        in
        { query; runtime; tag; features = Sorl_util.Sparse.of_list ~dim entries }
      | _ -> fail "truncated sample line"
    in
    let samples =
      rest |> List.filter (fun l -> String.trim l <> "") |> List.map parse_line
    in
    create ~dim samples

let save t path =
  Sorl_util.Persist.write_atomic path (fun oc -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let split_queries ~rng t ~fraction =
  if fraction <= 0. || fraction >= 1. then
    invalid_arg "Dataset.split_queries: fraction must be in (0,1)";
  let ids = Array.copy t.ids in
  Sorl_util.Rng.shuffle rng ids;
  let cut = max 1 (min (Array.length ids - 1) (int_of_float (fraction *. float_of_int (Array.length ids)))) in
  let train_ids = Array.sub ids 0 cut and valid_ids = Array.sub ids cut (Array.length ids - cut) in
  let gather wanted =
    let set = Hashtbl.create 16 in
    Array.iter (fun q -> Hashtbl.replace set q ()) wanted;
    Array.to_list (Array.of_seq (Seq.filter (fun s -> Hashtbl.mem set s.query) (Array.to_seq t.samples)))
  in
  (create ~dim:t.dim (gather train_ids), create ~dim:t.dim (gather valid_ids))
