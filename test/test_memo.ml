(* Putil.Memo, the one memo behind every cache: slot replacement, the
   clear-at-cap bound, nothing recorded for failures, store-tagged
   persistence across fresh memos, single computation under
   concurrency, and the per-memo counters of the clock-calculus and
   plan memos. *)

module Memo = Putil.Memo
module M = Putil.Metrics
module Cache_store = Putil.Cache_store
module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types

let counter name = M.counter_value M.global name

(* a thunk that counts how often it is forced *)
let counting v =
  let n = ref 0 in
  ((fun () -> incr n; v), n)

let test_slot_replaced () =
  let m = Memo.create "memo_test.slot" in
  let f, runs = counting 1 in
  let ask slot key = ignore (Memo.get m ~slot key f) in
  ask "p" "k1";
  ask "p" "k1";
  Alcotest.(check int) "same key in the slot replays" 1 !runs;
  ask "p" "k2";
  Alcotest.(check int) "new key in the slot recomputes" 2 !runs;
  ask "p" "k1";
  Alcotest.(check int) "the old key was replaced" 3 !runs;
  ask "q" "k2";
  ask "p" "k1";
  Alcotest.(check int) "another slot is another entry" 4 !runs

let test_clears_at_cap () =
  let m = Memo.create ~cap:3 "memo_test.cap" in
  let f, runs = counting () in
  let ask keys = List.iter (fun k -> Memo.get m k f) keys in
  ask [ "a"; "b"; "c"; "a"; "b"; "c" ];
  Alcotest.(check int) "filled to the cap, then replayed" 3 !runs;
  ask [ "d"; "d" ];
  Alcotest.(check int) "a new slot in a full table recomputes" 4 !runs;
  ask [ "a"; "b"; "c" ];
  Alcotest.(check int) "the full table was cleared" 7 !runs;
  let none = Memo.create ~cap:0 "memo_test.cap0" in
  Memo.get none "a" f;
  Memo.get none "a" f;
  Alcotest.(check int) "cap 0 holds nothing" 9 !runs

let test_failures_not_recorded () =
  let m = Memo.create "memo_test.fail" in
  let ran0 = counter "memo_test.fail.ran" in
  (match Memo.find m "k" (fun () -> Error "boom") with
   | Error "boom" -> ()
   | _ -> Alcotest.fail "error not returned");
  (match Memo.get m "k" (fun () -> failwith "raised") with
   | _ -> Alcotest.fail "exception swallowed"
   | exception Failure _ -> ());
  Alcotest.(check int) "lock released: the next lookup computes" 7
    (Memo.get m "k" (fun () -> 7));
  Alcotest.(check int) "nothing recorded before the success" (ran0 + 3)
    (counter "memo_test.fail.ran");
  Alcotest.(check int) "the success is recorded" 7
    (Memo.get m "k" (fun () -> Alcotest.fail "recomputed"))

let test_store_replay () =
  Test_cache_store.with_store (fun store dir ->
      let tagged = Memo.create ~store ~tag:"memo_test" "memo_test.store" in
      Alcotest.(check (list int)) "cold value" [ 1; 2; 3 ]
        (Memo.get tagged "k" (fun () -> [ 1; 2; 3 ]));
      let writes = (Cache_store.stats store).Cache_store.writes in
      let untagged = Memo.create ~store "memo_test.untagged" in
      ignore (Memo.get untagged "u" (fun () -> [ 4 ]));
      Alcotest.(check int) "untagged memo never writes" writes
        (Cache_store.stats store).Cache_store.writes;
      let store2 =
        match Cache_store.open_store dir with
        | Ok t -> t
        | Error m -> Alcotest.fail ("reopen: " ^ m)
      in
      let fresh = Memo.create ~store:store2 ~tag:"memo_test" "memo_test.store" in
      let skipped0 = counter "memo_test.store.skipped"
      and units0 = counter "memo_test.store.proc_skipped" in
      Alcotest.(check (list int)) "replayed from the reopened store"
        [ 1; 2; 3 ]
        (Memo.get fresh ~units:List.length "k" (fun () ->
             Alcotest.fail "recomputed despite a warm store"));
      Alcotest.(check int) "replay counted as skipped" (skipped0 + 1)
        (counter "memo_test.store.skipped");
      Alcotest.(check int) "whole-stage replay credits its units" (units0 + 3)
        (counter "memo_test.store.proc_skipped");
      Alcotest.(check (list int)) "replay recorded in memory" [ 1; 2; 3 ]
        (Memo.get fresh "k" (fun () -> Alcotest.fail "not recorded"));
      let fresh_untagged = Memo.create ~store:store2 "memo_test.untagged" in
      let f, runs = counting [ 4 ] in
      ignore (Memo.get fresh_untagged "u" f);
      Alcotest.(check int) "untagged memo never replays" 1 !runs)

let test_concurrent_single_compute () =
  let m = Memo.create "memo_test.par" in
  let computed = Atomic.make 0 in
  let results = Array.make 4 0 in
  Putil.Domain_pool.with_pool 4 (fun pool ->
      Putil.Domain_pool.run_tasks pool
        (List.init 4 (fun w () ->
             results.(w) <-
               Memo.get m "one" (fun () ->
                   Atomic.incr computed;
                   Unix.sleepf 0.02;
                   42))));
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  Array.iter (Alcotest.(check int) "every worker sees the value" 42) results

let test_key_rejects_closures () =
  Alcotest.(check bool) "pure data digests stably" true
    (String.equal (Memo.key (1, "a")) (Memo.key (1, "a")));
  match Memo.key (1, fun x -> x + 1) with
  | _ -> Alcotest.fail "closure accepted as a key"
  | exception Invalid_argument _ -> ()

(* the calculus and plan memos count under their own names *)
let test_calculus_counters () =
  let kp =
    Signal_lang.Normalize.process_exn
      (B.proc ~name:"memo_counters"
         ~inputs:[ Ast.var "a" Types.Tint ]
         ~outputs:[ Ast.var "x" Types.Tint ]
         B.[ "x" := v "a" + i 17 ])
  in
  Clocks.Calculus.reset_cache ();
  let snap () =
    List.map counter
      [ "incr.calculus.skipped"; "incr.plan.ran"; "incr.plan.skipped" ]
  in
  let before = snap () in
  ignore (Clocks.Calculus.analyze kp);
  ignore (Clocks.Calculus.analyze kp);
  match List.map2 ( - ) (snap ()) before with
  | [ calc_skipped; plan_ran; plan_skipped ] ->
    Alcotest.(check int) "calculus skipped once" 1 calc_skipped;
    Alcotest.(check int) "plan ran untouched" 0 plan_ran;
    Alcotest.(check int) "plan skipped untouched" 0 plan_skipped
  | _ -> assert false

let suite =
  [ ("memo",
     [ Alcotest.test_case "new key replaces the slot" `Quick
         test_slot_replaced;
       Alcotest.test_case "clears at its cap" `Quick test_clears_at_cap;
       Alcotest.test_case "failures leave no entry" `Quick
         test_failures_not_recorded;
       Alcotest.test_case "store-tagged replay, untagged never persists"
         `Quick test_store_replay;
       Alcotest.test_case "four workers, one computation" `Quick
         test_concurrent_single_compute;
       Alcotest.test_case "key rejects closures" `Quick
         test_key_rejects_closures;
       Alcotest.test_case "calculus and plan counters are separate" `Quick
         test_calculus_counters ]) ]
