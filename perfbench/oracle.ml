(* The correctness oracle: the exact reply bytes a server must send for
   a rank/tune read under one model generation, computed in-process
   with [Autotuner.top_k].  A rank reply for depth k is a byte prefix
   of the depth-n reply, so one ranking per (generation, benchmark)
   checks every depth. *)

open Sorl_stencil

type ranking = {
  top : Sorl_stencil.Tuning.t array;  (** best-first, [count] long *)
  reply : string;  (** encoded reply carrying [count] tunings *)
  ends : int array;  (** [ends.(k)]: length of the depth-k reply *)
  count : int;
  tune : string;  (** encoded tune reply *)
}

type gen = {
  number : int;  (** the server's generation counter *)
  tuner : Sorl.Autotuner.t;
  rankings : (string, ranking) Hashtbl.t;
      (** touched only by the domain that checks replies *)
}

let gen ~number tuner = { number; tuner; rankings = Hashtbl.create 32 }

(* Shallow reads are answered from a depth-10 ranking; anything deeper
   ranks the whole grid once. *)
let shallow = 10

let compute g benchmark ~k =
  let inst = Benchmarks.instance_by_name benchmark in
  let n = Mix.grid_size inst in
  let depth = if k <= shallow then min shallow n else n in
  let top = Sorl.Autotuner.top_k g.tuner inst ~k:depth in
  let reply =
    Sorl_serve.Protocol.encode_response
      (Sorl_serve.Protocol.Ranked
         { benchmark; total = n; tunings = Array.to_list top; approx = false })
  in
  let ends = Array.make (depth + 1) (String.length reply) in
  (* Each tuning is preceded by one space; walk back from the end. *)
  for i = depth - 1 downto 0 do
    ends.(i) <- ends.(i + 1) - 1 - String.length (Sorl_serve.Protocol.tuning_to_string top.(i))
  done;
  let tune =
    Sorl_serve.Protocol.encode_response
      (Sorl_serve.Protocol.Tuned { benchmark; tuning = top.(0); approx = false })
  in
  let r = { top; reply; ends; count = depth; tune } in
  Hashtbl.replace g.rankings benchmark r;
  r

let ranking g benchmark ~k =
  match Hashtbl.find_opt g.rankings benchmark with
  | Some r when r.count >= k -> r
  | _ -> compute g benchmark ~k

(* Precompute every benchmark's ranking down to depth [k] so no check
   inside a timed window has to rank. *)
let prepare g ~k =
  Array.iter
    (fun inst -> ignore (ranking g (Instance.name inst) ~k:(min k (Mix.grid_size inst))))
    Mix.instances

let is_prefix ~prefix_of s len =
  let rec go i = i >= len || (String.unsafe_get s i = String.unsafe_get prefix_of i && go (i + 1)) in
  go 0

(* Whether [reply] is exactly what generation [g] answers to [read]. *)
let matches g (read : Mix.read) reply =
  if read.top = 0 then String.equal reply (ranking g read.benchmark ~k:1).tune
  else
    let r = ranking g read.benchmark ~k:read.top in
    let len = r.ends.(read.top) in
    String.length reply = len && is_prefix ~prefix_of:r.reply reply len

(* A provisional near-miss reply ([rank~] / [tune~]): not compared,
   counted. *)
let is_approx reply =
  String.starts_with ~prefix:"ok rank~ " reply || String.starts_with ~prefix:"ok tune~ " reply
