(* Tests of the benchmark's own bookkeeping (perfbench/summary.ml). *)

module S = Perfbench_summary.Summary

let floats = List.map float_of_int

let test_no_tail_up_to_ten () =
  for n = 0 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "n=%d has no tail" n)
      true
      (S.tail (floats (List.init n Fun.id)) = None)
  done

let test_tail_leaves_ten_beyond () =
  List.iter
    (fun n ->
      let xs = floats (List.init n (fun i -> n - i)) in
      match S.tail xs with
      | None -> Alcotest.failf "n=%d should have a tail" n
      | Some t ->
        Alcotest.(check int) "n" n t.S.n;
        Alcotest.(check int) "pct" (100 * (n - 10) / n) t.S.pct;
        let beyond = List.length (List.filter (fun x -> x > t.S.value) xs) in
        Alcotest.(check bool) (Printf.sprintf "n=%d: %d >= 10 beyond" n beyond) true (beyond >= 10);
        Alcotest.(check int) "beyond as reported" beyond t.S.beyond;
        (* One percentile higher would leave fewer than ten. *)
        if t.S.pct < 99 then begin
          let rank = int_of_float (Float.ceil (float_of_int ((t.S.pct + 1) * n) /. 100.)) in
          Alcotest.(check bool) "next percentile leaves fewer than ten" true (n - rank < 10)
        end)
    [ 11; 20; 64; 100; 101; 1000 ]

let test_tail_values () =
  (* 100 samples 1..100: p90 by nearest rank is 90, with 10 above it. *)
  match S.tail (floats (List.init 100 (fun i -> i + 1))) with
  | Some t ->
    Alcotest.(check int) "pct" 90 t.S.pct;
    Alcotest.(check (float 0.)) "value" 90. t.S.value
  | None -> Alcotest.fail "expected a tail"

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (S.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (S.median [ 4.; 1.; 3.; 2. ])

let test_failed_frac () =
  let t = S.tally () in
  Alcotest.(check (float 0.)) "empty tally" 0. (S.failed_frac t);
  Alcotest.(check bool) "empty tally is not reportable" true (Result.is_error (S.check_tally t));
  List.iter (fun ok -> S.record t ~ok) [ true; false; true; true; false ];
  Alcotest.(check int) "attempted" 5 t.S.attempted;
  Alcotest.(check int) "failed" 2 t.S.failed;
  Alcotest.(check (float 1e-12)) "frac" 0.4 (S.failed_frac t);
  Alcotest.(check bool) "consistent" true (S.check_tally t = Ok ());
  t.S.failed <- 6;
  Alcotest.(check bool) "more failures than attempts" true (Result.is_error (S.check_tally t))

let test_fingerprint_drift () =
  let expected = [ ("switches", "20"); ("flows", "40"); ("demand_series", "abc") ] in
  Alcotest.(check (list string)) "identical" [] (S.fingerprint_drift ~expected ~actual:expected);
  let actual = [ ("switches", "20"); ("flows", "41"); ("demand_series", "abc") ] in
  Alcotest.(check (list string))
    "changed field" [ "flows: expected 40, got 41" ]
    (S.fingerprint_drift ~expected ~actual);
  let actual = [ ("switches", "20"); ("flows", "40"); ("faults", "3") ] in
  Alcotest.(check (list string))
    "missing and extra fields"
    [ "demand_series: expected abc, got <missing>"; "faults: expected <missing>, got 3" ]
    (S.fingerprint_drift ~expected ~actual)

let test_float_digest () =
  let xs = [| 1.; 2.5; 1e-3 |] in
  Alcotest.(check string) "stable" (S.float_digest xs) (S.float_digest (Array.copy xs));
  Alcotest.(check string)
    "ignores the last bits" (S.float_digest xs)
    (S.float_digest [| 1. +. epsilon_float; 2.5; 1e-3 |]);
  Alcotest.(check bool)
    "sees a real change" false
    (S.float_digest xs = S.float_digest [| 1.; 2.5; 1.001e-3 |])

let result =
  {
    S.correct = true;
    attempted = 121557;
    failed = 13;
    metrics =
      [
        { S.name = "setup_s"; value = 0.034605410000076518; unit_ = "s" };
        { S.name = "op_ms_p50"; value = 147.13853949995246; unit_ = "ms" };
        { S.name = "ops_per_s"; value = 8852.6118172380648; unit_ = "1/s" };
        { S.name = "fuzz.oracle_ms.lp"; value = 0.; unit_ = "ms/1k" };
        { S.name = "obs.trace_overhead_pct"; value = -1.5e-7; unit_ = "%" };
      ];
  }

let test_json_round_trip () =
  let line = S.to_json result in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  let back = S.of_json line in
  Alcotest.(check bool) "correct" result.S.correct back.S.correct;
  Alcotest.(check int) "attempted" result.S.attempted back.S.attempted;
  Alcotest.(check int) "failed" result.S.failed back.S.failed;
  Alcotest.(check (list string))
    "names in order"
    (List.map (fun m -> m.S.name) result.S.metrics)
    (List.map (fun m -> m.S.name) back.S.metrics);
  List.iter2
    (fun a b ->
      Alcotest.(check (float 0.)) ("value of " ^ a.S.name) a.S.value b.S.value;
      Alcotest.(check string) ("unit of " ^ a.S.name) a.S.unit_ b.S.unit_)
    result.S.metrics back.S.metrics

let test_json_rejects () =
  Alcotest.check_raises "non-finite metric"
    (Invalid_argument "metric x is not finite (nan)")
    (fun () ->
      ignore (S.to_json { result with S.metrics = [ { S.name = "x"; value = nan; unit_ = "ms" } ] }));
  let rejects s =
    match S.of_json s with
    | _ -> Alcotest.failf "accepted %s" s
    | exception S.Parse_error _ -> ()
  in
  rejects "{\"correct\": true, \"attempted\": 1, \"failed\": 0}";
  rejects "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}";
  rejects "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"extra\": 1}";
  rejects "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} trailing"

let test_catalogue () =
  let text =
    {|{"command": ["sh"], "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
       "per_layer": [{"name": "lp.pivots_per_op", "unit": "count", "better": "lower"},
                     {"name": "pool.speedup_vs_j1", "unit": "x", "better": "higher"}]}|}
  in
  Alcotest.(check (list (pair string string)))
    "end_to_end" [ ("setup_s", "s") ] (S.catalogue text "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer in file order"
    [ ("lp.pivots_per_op", "count"); ("pool.speedup_vs_j1", "x") ]
    (S.catalogue text "per_layer");
  Alcotest.check_raises "missing list"
    (S.Parse_error "BENCHMARK.json has no well-formed workloads list")
    (fun () -> ignore (S.catalogue text "workloads"))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "n <= 10 gives no tail" `Quick test_no_tail_up_to_ten;
          Alcotest.test_case "tail leaves at least ten beyond" `Quick test_tail_leaves_ten_beyond;
          Alcotest.test_case "p90 of 1..100" `Quick test_tail_values;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("accounting", [ Alcotest.test_case "failed_frac and tally checks" `Quick test_failed_frac ]);
      ( "fingerprint",
        [
          Alcotest.test_case "drift detection" `Quick test_fingerprint_drift;
          Alcotest.test_case "float digest" `Quick test_float_digest;
        ] );
      ( "json",
        [
          Alcotest.test_case "result line round trip" `Quick test_json_round_trip;
          Alcotest.test_case "malformed results rejected" `Quick test_json_rejects;
          Alcotest.test_case "metric catalogue of BENCHMARK.json" `Quick test_catalogue;
        ] );
    ]
