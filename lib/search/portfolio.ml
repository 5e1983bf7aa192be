let run ?(seed = 0) ?(algorithms = Registry.all) ?(budget = 1024) problem =
  let n = List.length algorithms in
  if n = 0 then invalid_arg "Portfolio.run: empty algorithm list";
  if budget < 8 * n then invalid_arg "Portfolio.run: budget too small for the portfolio";
  let winner = ref (List.hd algorithms) in
  let outer_outcome =
    Runner.run_with ~budget problem (fun outer ->
        (* Every inner evaluation flows through the global runner,
           whose book-keeping is single-domain: inner batches must not
           call it from pool workers. *)
        let wrapped =
          Problem.serial
            (Problem.create ~bounds:(Problem.bounds problem) ~eval:(fun p -> Runner.eval outer p))
        in
        let rounds = max 1 (int_of_float (ceil (log (float_of_int n) /. log 2.))) in
        let elimination_budget = budget / 2 in
        let survivors = ref algorithms in
        let round = ref 0 in
        while List.length !survivors > 1 do
          let per_round = elimination_budget / rounds in
          let slice = max 4 (per_round / List.length !survivors) in
          let scored =
            List.map
              (fun a ->
                let o =
                  a.Registry.run ~seed:(seed + (31 * !round)) ~budget:slice wrapped
                in
                (a, o.Runner.best_cost))
              !survivors
          in
          let ranked = List.sort (fun (_, x) (_, y) -> compare x y) scored in
          let keep = max 1 (List.length ranked / 2) in
          survivors := List.filteri (fun i _ -> i < keep) ranked |> List.map fst;
          incr round
        done;
        (match !survivors with
        | [ final ] ->
          winner := final;
          let rest = Runner.remaining outer in
          if rest > 0 then
            ignore (final.Registry.run ~seed:(seed + 1009) ~budget:rest wrapped)
        | _ -> assert false))
  in
  (outer_outcome, !winner.Registry.name)
