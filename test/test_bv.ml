(* Tests for the bounded-integer bit-blasting layer. *)

open Taskalloc_sat
open Taskalloc_pb
open Taskalloc_bv

let is_sat ctx = Solver.solve (Bv.solver ctx) = Solver.Sat

let test_const_roundtrip () =
  List.iter
    (fun n ->
      let t = Bv.const n in
      Alcotest.(check int) (Printf.sprintf "hi %d" n) n (Bv.upper_bound t))
    [ 0; 1; 7; 100; 8191 ]

let test_var_range ~inprocess () =
  (* a variable in [0, 10] can be any value in range but not outside *)
  let ctx = Bv.create ~inprocess () in
  let x = Bv.var ctx ~hi:10 in
  Bv.assert_ ctx (Bv.ge_const ctx x 11);
  Alcotest.(check bool) "x <= 10 enforced" false (is_sat ctx);
  let ctx = Bv.create ~inprocess () in
  let x = Bv.var ctx ~hi:10 in
  Bv.assert_ ctx (Bv.eq_const ctx x 10);
  Alcotest.(check bool) "x = 10 possible" true (is_sat ctx);
  Alcotest.(check int) "value" 10 (Bv.model_int ctx x)

let test_addition ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let x = Bv.var ctx ~hi:50 and y = Bv.var ctx ~hi:50 in
  Bv.assert_ ctx (Bv.eq_const ctx x 17);
  Bv.assert_ ctx (Bv.eq_const ctx y 25);
  let s = Bv.add ctx x y in
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "17+25" 42 (Bv.model_int ctx s)

let test_sum_list ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let values = [ 3; 9; 11; 20; 1 ] in
  let terms = List.map Bv.const values in
  let s = Bv.sum ctx terms in
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "sum" (List.fold_left ( + ) 0 values) (Bv.model_int ctx s)

let test_mul_and_mul_const ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let x = Bv.var ctx ~hi:20 in
  Bv.assert_ ctx (Bv.eq_const ctx x 13);
  let a = Bv.mul_const ctx 7 x in
  let y = Bv.var ctx ~hi:6 in
  Bv.assert_ ctx (Bv.eq_const ctx y 6);
  let b = Bv.mul ctx x y in
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "13*7" 91 (Bv.model_int ctx a);
  Alcotest.(check int) "13*6" 78 (Bv.model_int ctx b)

let test_sub_asserting ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let a = Bv.var ctx ~hi:30 and b = Bv.var ctx ~hi:30 in
  Bv.assert_ ctx (Bv.eq_const ctx a 20);
  Bv.assert_ ctx (Bv.eq_const ctx b 8);
  let d = Bv.sub_asserting ctx a b in
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "20-8" 12 (Bv.model_int ctx d);
  (* and b > a is refused *)
  let ctx = Bv.create ~inprocess () in
  let a = Bv.var ctx ~hi:30 and b = Bv.var ctx ~hi:30 in
  Bv.assert_ ctx (Bv.eq_const ctx a 5);
  Bv.assert_ ctx (Bv.eq_const ctx b 9);
  let _ = Bv.sub_asserting ctx a b in
  Alcotest.(check bool) "5-9 impossible" false (is_sat ctx)

let test_ite ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let c = Bv.fresh_bool ctx in
  let r = Bv.ite ctx c (Bv.const 11) (Bv.const 22) in
  Bv.assert_ ctx c;
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "then branch" 11 (Bv.model_int ctx r)

let test_one_hot ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let sel = Bv.one_hot ctx 5 in
  Alcotest.(check bool) "sat" true (is_sat ctx);
  let count =
    Array.fold_left (fun n b -> if Bv.model_bool ctx b then n + 1 else n) 0 sel
  in
  Alcotest.(check int) "exactly one" 1 count

let test_select_const ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let sel = Bv.one_hot ctx 4 in
  let values = [| 10; 20; 30; 40 |] in
  let v = Bv.select_const ctx sel values in
  (* force selector 2 *)
  (match sel.(2) with
  | Circuits.Lit l -> Solver.add_clause (Bv.solver ctx) [ l ]
  | _ -> Alcotest.fail "selector should be a literal");
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "selected" 30 (Bv.model_int ctx v)

let test_assert_pb_le ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let sel = Bv.one_hot ctx 3 in
  (* memory-style constraint: 5*s0 + 9*s1 + 2*s2 <= 4 forces s2 *)
  Bv.assert_pb_le ctx [ (5, sel.(0)); (9, sel.(1)); (2, sel.(2)) ] 4;
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check bool) "s2 selected" true (Bv.model_bool ctx sel.(2))

let test_implication ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let c = Bv.fresh_bool ctx in
  let x = Bv.var ctx ~hi:15 in
  Bv.assert_implies ctx [ c ] (Bv.eq_const ctx x 7);
  Bv.assert_ ctx c;
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "x forced" 7 (Bv.model_int ctx x)

(* Property: random linear expressions evaluate correctly through the
   circuit when inputs are pinned. *)
let prop_linear_eval ~inprocess =
  QCheck.Test.make ~count:100 ~name:"bv linear expressions evaluate correctly"
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 5 in
          let* coeffs = list_size (return n) (int_range 0 6) in
          let* values = list_size (return n) (int_range 0 20) in
          return (coeffs, values)))
    (fun (coeffs, values) ->
      let ctx = Bv.create ~inprocess () in
      let xs =
        List.map
          (fun v ->
            let x = Bv.var ctx ~hi:20 in
            Bv.assert_ ctx (Bv.eq_const ctx x v);
            x)
          values
      in
      let terms = List.map2 (fun c x -> Bv.mul_const ctx c x) coeffs xs in
      let total = Bv.sum ctx terms in
      let expected = List.fold_left2 (fun acc c v -> acc + (c * v)) 0 coeffs values in
      is_sat ctx && Bv.model_int ctx total = expected)

(* Property: comparisons between pinned terms match integer semantics. *)
let prop_comparisons ~inprocess =
  QCheck.Test.make ~count:100 ~name:"bv comparisons match integers"
    QCheck.(make Gen.(pair (int_range 0 63) (int_range 0 63)))
    (fun (a, b) ->
      let ctx = Bv.create ~inprocess () in
      let x = Bv.var ctx ~hi:63 and y = Bv.var ctx ~hi:63 in
      Bv.assert_ ctx (Bv.eq_const ctx x a);
      Bv.assert_ ctx (Bv.eq_const ctx y b);
      (* build all comparison circuits before solving so their gate
         variables are part of the model *)
      let le = Bv.le ctx x y
      and lt = Bv.lt ctx x y
      and ge = Bv.ge ctx x y
      and gt = Bv.gt ctx x y
      and eq = Bv.eq ctx x y in
      is_sat ctx
      && Bv.model_bool ctx le = (a <= b)
      && Bv.model_bool ctx lt = (a < b)
      && Bv.model_bool ctx ge = (a >= b)
      && Bv.model_bool ctx gt = (a > b)
      && Bv.model_bool ctx eq = (a = b))

let test_with_hi () =
  let t = Bv.const 100 in
  Alcotest.(check int) "tighten" 50 (Bv.upper_bound (Bv.with_hi t 50));
  Alcotest.(check int) "no loosen" 100 (Bv.upper_bound (Bv.with_hi t 200))

let test_select_const_exhaustive ~inprocess () =
  (* every selector index yields its value *)
  let values = [| 5; 0; 31; 12 |] in
  Array.iteri
    (fun idx expected ->
      let ctx = Bv.create ~inprocess () in
      let sel = Bv.one_hot ctx 4 in
      let v = Bv.select_const ctx sel values in
      (match sel.(idx) with
      | Circuits.Lit l -> Solver.add_clause (Bv.solver ctx) [ l ]
      | _ -> Alcotest.fail "literal expected");
      Alcotest.(check bool) "sat" true (is_sat ctx);
      Alcotest.(check int) (Printf.sprintf "idx %d" idx) expected (Bv.model_int ctx v))
    values

let test_ite_false_branch ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let c = Bv.fresh_bool ctx in
  let r = Bv.ite ctx c (Bv.const 11) (Bv.const 22) in
  Bv.assert_ ctx (Bv.bnot c);
  Alcotest.(check bool) "sat" true (is_sat ctx);
  Alcotest.(check int) "else branch" 22 (Bv.model_int ctx r)

let test_boolean_gates_truth_tables ~inprocess () =
  List.iter
    (fun (name, op, table) ->
      List.iter
        (fun (a, b, expected) ->
          let ctx = Bv.create ~inprocess () in
          let x = Bv.fresh_bool ctx and y = Bv.fresh_bool ctx in
          let r = op ctx x y in
          Bv.assert_ ctx (if a then x else Bv.bnot x);
          Bv.assert_ ctx (if b then y else Bv.bnot y);
          Alcotest.(check bool) "sat" true (is_sat ctx);
          Alcotest.(check bool)
            (Printf.sprintf "%s %b %b" name a b)
            expected (Bv.model_bool ctx r))
        table)
    [
      ("and", Bv.band, [ (false, false, false); (false, true, false); (true, false, false); (true, true, true) ]);
      ("or", Bv.bor, [ (false, false, false); (false, true, true); (true, false, true); (true, true, true) ]);
      ("xor", Bv.bxor, [ (false, false, false); (false, true, true); (true, false, true); (true, true, false) ]);
      ("iff", Bv.biff, [ (false, false, true); (false, true, false); (true, false, false); (true, true, true) ]);
      ("implies", Bv.bimplies, [ (false, false, true); (false, true, true); (true, false, false); (true, true, true) ]);
    ]

let prop_mul_matches_integers ~inprocess =
  QCheck.Test.make ~count:60 ~name:"bv symbolic multiplication is exact"
    QCheck.(make Gen.(pair (int_range 0 31) (int_range 0 31)))
    (fun (a, b) ->
      let ctx = Bv.create ~inprocess () in
      let x = Bv.var ctx ~hi:31 and y = Bv.var ctx ~hi:31 in
      Bv.assert_ ctx (Bv.eq_const ctx x a);
      Bv.assert_ ctx (Bv.eq_const ctx y b);
      let p = Bv.mul ctx x y in
      is_sat ctx && Bv.model_int ctx p = a * b)

let prop_sub_asserting ~inprocess =
  QCheck.Test.make ~count:60 ~name:"sub_asserting = max side-condition"
    QCheck.(make Gen.(pair (int_range 0 40) (int_range 0 40)))
    (fun (a, b) ->
      let ctx = Bv.create ~inprocess () in
      let x = Bv.var ctx ~hi:40 and y = Bv.var ctx ~hi:40 in
      Bv.assert_ ctx (Bv.eq_const ctx x a);
      Bv.assert_ ctx (Bv.eq_const ctx y b);
      let d = Bv.sub_asserting ctx x y in
      if b <= a then is_sat ctx && Bv.model_int ctx d = a - b
      else not (is_sat ctx))

(* every case that builds a context, with or without inprocessing on
   its solver *)
let solving inprocess =
  [
    Alcotest.test_case "var range" `Quick (test_var_range ~inprocess);
    Alcotest.test_case "addition" `Quick (test_addition ~inprocess);
    Alcotest.test_case "sum list" `Quick (test_sum_list ~inprocess);
    Alcotest.test_case "mul" `Quick (test_mul_and_mul_const ~inprocess);
    Alcotest.test_case "sub asserting" `Quick (test_sub_asserting ~inprocess);
    Alcotest.test_case "ite" `Quick (test_ite ~inprocess);
    Alcotest.test_case "one hot" `Quick (test_one_hot ~inprocess);
    Alcotest.test_case "select const" `Quick (test_select_const ~inprocess);
    Alcotest.test_case "pb le over bits" `Quick (test_assert_pb_le ~inprocess);
    Alcotest.test_case "implication" `Quick (test_implication ~inprocess);
    Alcotest.test_case "select_const exhaustive" `Quick
      (test_select_const_exhaustive ~inprocess);
    Alcotest.test_case "ite false branch" `Quick (test_ite_false_branch ~inprocess);
    Alcotest.test_case "boolean gate tables" `Quick
      (test_boolean_gates_truth_tables ~inprocess);
    QCheck_alcotest.to_alcotest (prop_mul_matches_integers ~inprocess);
    QCheck_alcotest.to_alcotest (prop_sub_asserting ~inprocess);
    QCheck_alcotest.to_alcotest (prop_linear_eval ~inprocess);
    QCheck_alcotest.to_alcotest (prop_comparisons ~inprocess);
  ]

let suite =
  [
    Alcotest.test_case "const roundtrip" `Quick test_const_roundtrip;
    Alcotest.test_case "with_hi" `Quick test_with_hi;
  ]
  @ solving false
  @ Configs.tagged "inprocess" (solving true)
