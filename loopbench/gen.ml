(* Seeded AADL model generator for the loop benchmark.

   A model is a multi-periodic thread set spread over one or two
   processors: one process per processor, the threads of a process
   chained by event-data connections (the first fed by an environment
   system, the last feeding a sink system), optional data-port links
   beside the chain, and shared data cells written by one thread and
   read by another. Period sets are harmonic ({4, 8, 16, 32} ms) or
   non-harmonic ({4, 6, 8, 12, 24} ms); both keep every schedule table
   at or under 32 slots of a 1 ms base tick, far below the 256-slot
   TRANS-005 ceiling (the embedded scheduler encoding, and with it the
   clock calculus, grows with the slot count). Utilization per processor is held at or
   under 0.6, so a clean model always has a static schedule.

   A planted defect carries the diagnostic code the tool chain must
   report for it; a clean model must come out free of errors, with a
   consistent clock calculus, deterministic and deadlock-free. *)

type defect =
  | Infeasible  (** one thread's compute time equals its period *)
  | Unresolved  (** a subcomponent names a classifier that does not exist *)
  | Duplicate_feature  (** a thread declares its out port twice *)
  | Missing_period  (** a periodic thread without a Period *)

let expected_code = function
  | Infeasible -> "SCHED-INFEAS-001"
  | Unresolved -> "AADL-CHECK-008"
  | Duplicate_feature -> "AADL-CHECK-001"
  | Missing_period -> "AADL-CHECK-003"

let defect_name = function
  | Infeasible -> "infeasible"
  | Unresolved -> "unresolved"
  | Duplicate_feature -> "duplicate-feature"
  | Missing_period -> "missing-period"

type access = No_access | Reads of int | Writes of int

type thread = {
  period_ms : int;
  wcet_ms : int;
  cpu : int;
  data_link : bool;
      (** an in data port fed by the previous thread of the same
          process through its out data port *)
  access : access;
}

type t = {
  threads : thread array;
  cpus : int;
  harmonic : bool;
  cells : int;
  defect : (defect * int) option;  (** defect and the thread it sits on *)
}

let harmonic_periods = [| 4; 8; 16; 32 |]
let non_harmonic_periods = [| 4; 6; 8; 12; 24 |]
let periods spec = if spec.harmonic then harmonic_periods else non_harmonic_periods

let utilization threads cpu =
  Array.fold_left
    (fun u th ->
      if th.cpu = cpu then u +. (float th.wcet_ms /. float th.period_ms) else u)
    0. threads

(* Lengthen the shortest period on an overloaded processor until its
   utilization is at most [u_max]; the longest period of either set
   keeps even 12 threads on one processor under that bound. *)
let relieve ~periods ~u_max threads =
  let next p =
    match Array.find_opt (fun q -> q > p) periods with Some q -> q | None -> p
  in
  let cpus = Array.fold_left (fun m th -> max m (th.cpu + 1)) 1 threads in
  for cpu = 0 to cpus - 1 do
    let continue = ref true in
    while !continue && utilization threads cpu > u_max do
      let best = ref (-1) in
      Array.iteri
        (fun k th ->
          if th.cpu = cpu && next th.period_ms > th.period_ms
             && (!best < 0 || th.period_ms < threads.(!best).period_ms)
          then best := k)
        threads;
      if !best < 0 then continue := false
      else
        let th = threads.(!best) in
        threads.(!best) <- { th with period_ms = next th.period_ms; wcet_ms = 1 }
    done
  done

let u_max = 0.6

(* An infeasible defect needs company on its processor: a thread alone
   at utilization 1 still has a schedule. Every processor holds at
   least two threads (round-robin over at most [n / 2] processors), so
   only the lone-thread case of a hand-built spec moves the site. *)
let defect_site threads d k =
  let share k =
    Array.fold_left (fun m th -> if th.cpu = threads.(k).cpu then m + 1 else m) 0 threads
  in
  if d <> Infeasible || share k >= 2 then k
  else
    let rec go j = if j >= Array.length threads || share j >= 2 then j else go (j + 1) in
    let j = go 0 in
    if j >= Array.length threads then k else j

(* [make rng ~threads ~cpus ~harmonic ~defect] draws one model.
   [cells], [link_every] and [fixed_timing] fix what would otherwise be
   drawn: the number of shared-data cells, a data-port link on every
   [link_every]-th thread, and thread [k]'s period as the [k]-th of the
   period set (cyclically) with a unit compute time. [timing_rng]
   (default [rng]) draws the periods, compute times, data-port links
   and cell count; [rng] draws the cells' writers and readers and the
   defect's site. *)
let make ?cells ?link_every ?(fixed_timing = false) ?timing_rng rng ~threads:n ~cpus ~harmonic
    ~defect =
  let periods = if harmonic then harmonic_periods else non_harmonic_periods in
  let trng = Option.value timing_rng ~default:rng in
  let pick a = a.(Random.State.int trng (Array.length a)) in
  let cpus = if n < 4 then 1 else max 1 (min cpus 2) in
  let cells =
    match cells with
    | Some c -> c
    | None -> if n >= 2 then 1 + Random.State.int trng (max 1 (n / 4)) else 0
  in
  let threads =
    Array.init n (fun k ->
        let period_ms =
          if fixed_timing then periods.(k mod Array.length periods) else pick periods
        in
        { period_ms;
          wcet_ms =
            (if (not fixed_timing) && period_ms >= 8 && Random.State.int trng 4 = 0 then 2
             else 1);
          (* round-robin keeps both processors populated *)
          cpu = k mod cpus;
          data_link =
            (match link_every with
             | Some e -> k mod e = e - 1
             | None -> Random.State.int trng 3 = 0);
          access = No_access })
  in
  (* each cell gets one writer and one reader: distinct threads of one
     process, since a cell lives in its writer's process *)
  for c = 0 to cells - 1 do
    let free cpu =
      let cands =
        List.filter
          (fun k ->
            threads.(k).access = No_access
            && (cpu < 0 || threads.(k).cpu = cpu))
          (List.init n Fun.id)
      in
      match cands with
      | [] -> None
      | l -> Some (List.nth l (Random.State.int rng (List.length l)))
    in
    match free (-1) with
    | None -> ()
    | Some w -> (
      threads.(w) <- { (threads.(w)) with access = Writes c };
      match free threads.(w).cpu with
      | None -> threads.(w) <- { (threads.(w)) with access = No_access }
      | Some r -> threads.(r) <- { (threads.(r)) with access = Reads c })
  done;
  relieve ~periods ~u_max threads;
  let defect = Option.map (fun d -> (d, defect_site threads d (Random.State.int rng n))) defect in
  { threads; cpus; harmonic; cells; defect }

(* ------------------------------------------------------------------ *)
(* Edits (the edit-recheck workload)                                   *)

type edit =
  | Set_timing of int * int * int  (** thread, period ms, compute ms *)
  | Toggle_data_link of int  (** add or remove one thread's data port *)
  | Set_defect of (defect * int) option

let apply spec = function
  | Set_timing (k, period_ms, wcet_ms) ->
    let threads = Array.copy spec.threads in
    threads.(k) <- { (threads.(k)) with period_ms; wcet_ms };
    { spec with threads }
  | Toggle_data_link k ->
    let threads = Array.copy spec.threads in
    threads.(k) <- { (threads.(k)) with data_link = not threads.(k).data_link };
    { spec with threads }
  | Set_defect d -> { spec with defect = d }

type edit_kind = Timing | Feature | Defect of defect

(* Draw one edit of the given kind on a random thread: a new period or
   compute time that keeps the processor's utilization at or under
   [u_max] when it can, adding or removing the thread's data port, or
   toggling a planted defect of the given kind. *)
let edit rng spec kind =
  let n = Array.length spec.threads in
  let k = Random.State.int rng n in
  match kind with
  | Timing ->
    let ps = periods spec in
    let th = spec.threads.(k) in
    let rec attempt tries =
      let p = ps.(Random.State.int rng (Array.length ps)) in
      let c = if p >= 8 && Random.State.bool rng then 2 else 1 in
      let e = Set_timing (k, p, c) in
      if (p, c) <> (th.period_ms, th.wcet_ms)
         && utilization (apply spec e).threads th.cpu <= u_max
      then e
      else if tries = 0 then
        let longest = ps.(Array.length ps - 1) in
        Set_timing (k, longest, if th.wcet_ms = 1 && th.period_ms = longest then 2 else 1)
      else attempt (tries - 1)
    in
    attempt 8
  | Feature ->
    (* only a thread with a predecessor on its processor has a data
       port to add or remove; on any other the edit would change
       nothing *)
    let linkable =
      List.filter
        (fun j ->
          let cpu = spec.threads.(j).cpu in
          Array.exists (fun th -> th.cpu = cpu) (Array.sub spec.threads 0 j))
        (List.init n Fun.id)
    in
    Toggle_data_link (List.nth linkable (Random.State.int rng (List.length linkable)))
  | Defect d -> (
    match spec.defect with
    | Some _ -> Set_defect None
    | None -> Set_defect (Some (d, defect_site spec.threads d k)))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* [render ~name spec] is the AADL source. [name] suffixes the package
   and the root system, so two renderings of one spec under different
   names share no kernel digest or instance path (and hit no
   process-wide memo of the tool chain). *)
let render ~name spec =
  let buf = Buffer.create 8192 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = Array.length spec.threads in
  let defect_on k d =
    match spec.defect with Some (d', k') -> d = d' && k = k' | None -> false
  in
  (* the previous thread on the same processor, if any *)
  let prev k =
    let rec go j =
      if j < 0 then None
      else if spec.threads.(j).cpu = spec.threads.(k).cpu then Some j
      else go (j - 1)
    in
    go (k - 1)
  in
  let next_on_cpu k =
    let rec go j =
      if j >= n then None
      else if spec.threads.(j).cpu = spec.threads.(k).cpu then Some j
      else go (j + 1)
    in
    go (k + 1)
  in
  let has_data_in k = spec.threads.(k).data_link && prev k <> None in
  let has_data_out k =
    match next_on_cpu k with Some j -> has_data_in j | None -> false
  in
  pf "package Gen%s\npublic\n" name;
  if spec.cells > 0 then begin
    pf "  data Cell\n  properties\n    Queue_Size => 4;\n  end Cell;\n\n";
    pf "  data implementation Cell.impl\n  end Cell.impl;\n\n"
  end;
  Array.iteri
    (fun k th ->
      pf "  thread t%d\n    features\n" k;
      (match prev k with
       | None -> pf "      g: in event port {Queue_Size => 2;};\n"
       | Some _ -> pf "      i: in event data port {Queue_Size => 2;};\n");
      if has_data_in k then pf "      di: in data port;\n";
      pf "      o: out event data port;\n";
      if defect_on k Duplicate_feature then pf "      o: out event data port;\n";
      if has_data_out k then pf "      dout: out data port;\n";
      (match th.access with
       | No_access -> ()
       | Writes _ ->
         pf "      q: requires data access Cell {Access_Right => write_only;};\n"
       | Reads _ ->
         pf "      q: requires data access Cell {Access_Right => read_only;};\n");
      pf "    properties\n      Dispatch_Protocol => Periodic;\n";
      if not (defect_on k Missing_period) then
        pf "      Period => %d ms;\n" th.period_ms;
      pf "      Deadline => %d ms;\n" th.period_ms;
      pf "      Compute_Execution_Time => %d ms;\n"
        (if defect_on k Infeasible then th.period_ms else th.wcet_ms);
      pf "  end t%d;\n\n" k;
      pf "  thread implementation t%d.impl\n  end t%d.impl;\n\n" k k)
    spec.threads;
  for c = 0 to spec.cpus - 1 do
    let mine = List.filter (fun k -> spec.threads.(k).cpu = c) (List.init n Fun.id) in
    pf "  process p%d\n    features\n      go: in event port;\n" c;
    pf "      res: out event data port;\n  end p%d;\n\n" c;
    pf "  process implementation p%d.impl\n    subcomponents\n" c;
    List.iter
      (fun k ->
        pf "      th%d: thread %s%d.impl;\n" k
          (if defect_on k Unresolved then "missing" else "t") k)
      mine;
    for cell = 0 to spec.cells - 1 do
      (* a cell lives in the process of its writer *)
      if Array.exists (fun th -> th.cpu = c && th.access = Writes cell) spec.threads
      then pf "      q%d: data Cell.impl;\n" cell
    done;
    pf "    connections\n";
    List.iter
      (fun k ->
        (match prev k with
         | None -> pf "      cg%d: port go -> th%d.g;\n" k k
         | Some j -> pf "      ce%d: port th%d.o -> th%d.i;\n" k j k);
        if has_data_in k then
          Option.iter
            (fun j -> pf "      cd%d: port th%d.dout -> th%d.di;\n" k j k)
            (prev k);
        (match next_on_cpu k with
         | None -> pf "      cr%d: port th%d.o -> res;\n" k k
         | Some _ -> ());
        match spec.threads.(k).access with
        | No_access -> ()
        | Writes cell | Reads cell ->
          pf "      ca%d: data access q%d -> th%d.q;\n" k cell k)
      mine;
    pf "  end p%d.impl;\n\n" c
  done;
  pf "  processor cpu\n  end cpu;\n\n";
  pf "  processor implementation cpu.impl\n  end cpu.impl;\n\n";
  pf "  system env\n    features\n      go: out event port;\n  end env;\n\n";
  pf "  system implementation env.impl\n  end env.impl;\n\n";
  pf "  system sink\n    features\n";
  for c = 0 to spec.cpus - 1 do
    pf "      d%d: in event data port;\n" c
  done;
  pf "  end sink;\n\n  system implementation sink.impl\n  end sink.impl;\n\n";
  pf "  system rig%s\n  end rig%s;\n\n" name name;
  pf "  system implementation rig%s.impl\n    subcomponents\n" name;
  pf "      e: system env.impl;\n      s: system sink.impl;\n";
  for c = 0 to spec.cpus - 1 do
    pf "      h%d: process p%d.impl;\n      cpu%d: processor cpu.impl;\n" c c c
  done;
  pf "    connections\n";
  for c = 0 to spec.cpus - 1 do
    pf "      sg%d: port e.go -> h%d.go;\n" c c;
    pf "      sr%d: port h%d.res -> s.d%d;\n" c c c
  done;
  pf "    properties\n";
  for c = 0 to spec.cpus - 1 do
    pf "      Actual_Processor_Binding => reference (cpu%d) applies to h%d;\n" c c
  done;
  pf "  end rig%s.impl;\n\nend Gen%s;\n" name name;
  Buffer.contents buf
