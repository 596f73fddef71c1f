module K = Signal_lang.Kernel

type issue = {
  signal : string;
  branch_a : string;
  branch_b : string;
  reason : string;
}

type report = {
  issues : issue list;
  deterministic : bool;
}

let analyze calc kp =
  Putil.Tracing.with_span "analysis.determinism"
    ~args:[ ("process", Putil.Tracing.Astr kp.K.kname) ]
  @@ fun () ->
  let issues = ref [] in
  List.iter
    (fun (dst, branches) ->
      let rec pairs = function
        | [] | [ _ ] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              if not (Clocks.Calculus.exclusive calc a b) then
                issues :=
                  { signal = dst; branch_a = a; branch_b = b;
                    reason =
                      "branches not provably clock-exclusive; the merge \
                       order is an arbitrary choice" }
                  :: !issues)
            rest;
          pairs rest
      in
      pairs branches)
    kp.K.kpartials;
  let issues = List.rev !issues in
  { issues; deterministic = issues = [] }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>determinism analysis: %s@,"
    (if r.deterministic then "deterministic"
     else "NON-DETERMINISTIC definitions found");
  List.iter
    (fun i ->
      Format.fprintf ppf "signal %s: branches %s / %s overlap (%s)@,"
        i.signal i.branch_a i.branch_b i.reason)
    r.issues;
  Format.fprintf ppf "@]"

(* ---- structured diagnostics ---- *)

let code_overlap =
  Putil.Diag.code "ANA-DET-001"
    "partial definitions with overlapping clocks (non-deterministic merge)"

let diags_of_report r =
  List.map
    (fun i ->
      Putil.Diag.warningf ~code:code_overlap
        "signal %s: branches %s and %s %s" i.signal i.branch_a i.branch_b
        i.reason)
    r.issues
