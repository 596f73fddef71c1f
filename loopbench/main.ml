(* Loop benchmark: the AADL -> SIGNAL -> verdict loop, end to end.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the workload is set up [setup_reps] times (set-up
   time is the median), then ops run one at a time for S seconds, each
   checked against its reference, with a host-speed probe timed between
   them every [probe_every_ns]; the last line of stdout is a JSON
   object with the end-to-end metrics, whose times are scaled by the
   probe to the reference host's speed (see probe.ml). With --trace 1
   the workload is set up once and its inputs are replayed through the
   layers one by one for S seconds; the JSON carries the per-layer
   ledger, and the recorded spans are written under
   .bench_build/loopbench/. See NOTES.md for the workloads and
   metrics. *)

let setup_reps = 3
let probe_every_ns = 250_000_000

let usage () =
  prerr_endline
    "usage: main.exe --workload (check-cold|edit-recheck|simulate|verify) --seed N \
     --seconds S --trace 0|1";
  exit 2

let args () =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Workloads.names) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", seconds, trace = 1)

let now_ns = Putil.Clock.now_ns

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks over sorted samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p *. float (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((r -. float lo) *. (sorted.(hi) -. sorted.(lo)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

module J = Putil.Metrics.Json

let result ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct); ("attempted", J.Int attempted); ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
                metrics) ) ])

let () =
  let workload, seed, seconds, trace = args () in
  (* the benchmark runs from the root of a checkout; all its files stay
     under .bench_build *)
  let state_dir =
    Filename.concat ".bench_build" (Printf.sprintf "loopbench/%s-%d" workload (Unix.getpid ()))
  in
  mkdir_p state_dir;
  let budget_ns = seconds * 1_000_000_000 in
  Printf.printf "loopbench: workload %s, seed %d, %d s, trace %d\n%!" workload seed seconds
    (if trace then 1 else 0);
  if trace then begin
    let w = Workloads.setup workload ~seed ~rep:0 ~state_dir in
    Ledger.set_enabled true;
    let attempted, failed =
      Fun.protect ~finally:w.Workloads.cleanup (fun () -> w.Workloads.traced ~budget_ns)
    in
    Ledger.set_enabled false;
    let spans_file =
      Filename.concat ".bench_build"
        (Printf.sprintf "loopbench/spans-%s-seed%d.json" workload seed)
    in
    Ledger.write spans_file;
    Printf.printf "traced %d inputs (%d failed); %d spans in %s\n" attempted failed
      (List.length (Ledger.spans ())) spans_file;
    let metrics =
      List.map (fun (name, unit) -> (name, Layers.get name, unit)) Layers.metrics
    in
    List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) metrics;
    Workloads.rm_rf state_dir;
    print_endline (result ~correct:(failed = 0) ~attempted ~failed metrics)
  end
  else begin
    (* set up several times; keep the last, report the median *)
    let setups = ref [] and w = ref None in
    for rep = 1 to setup_reps do
      Option.iter (fun w -> w.Workloads.cleanup ()) !w;
      Gc.full_major ();
      Probe.sample ();
      let t0 = now_ns () in
      w := Some (Workloads.setup workload ~seed ~rep ~state_dir);
      setups := (float (now_ns () - t0) /. 1e9) :: !setups
    done;
    let w = Option.get !w in
    Gc.full_major ();
    let lat = ref [] and attempted = ref 0 and failed = ref 0 in
    let t_end = now_ns () + budget_ns in
    let next_probe = ref 0 in
    Fun.protect ~finally:w.Workloads.cleanup (fun () ->
        while now_ns () < t_end do
          if now_ns () >= !next_probe then begin
            Probe.sample ();
            next_probe := now_ns () + probe_every_ns
          end;
          let i = !attempted in
          incr attempted;
          match w.Workloads.op i with
          | exception e ->
            incr failed;
            Printf.printf "op %d: preparation raised %s\n" i (Printexc.to_string e)
          | timed -> (
            let t0 = now_ns () in
            match timed () with
            | exception e ->
              lat := (float (now_ns () - t0) /. 1e6) :: !lat;
              incr failed;
              Printf.printf "op %d raised %s\n" i (Printexc.to_string e)
            | check -> (
              lat := (float (now_ns () - t0) /. 1e6) :: !lat;
              match check () with
              | None -> ()
              | Some why ->
                incr failed;
                if !failed <= 10 then Printf.printf "op %d failed: %s\n" i why))
        done);
    let sorted = Array.of_list !lat in
    (* throughput over the time spent inside ops: the benchmark's own
       preparation and reference checks between ops are not the
       system's work *)
    let busy_s = Array.fold_left ( +. ) 0. sorted /. 1e3 in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let p50 = percentile sorted 0.5 and p90 = percentile sorted 0.9 in
    let beyond = Array.fold_left (fun c x -> if x > p90 then c + 1 else c) 0 sorted in
    let failed_ratio = float !failed /. float (max 1 !attempted) in
    let probe_ms = median !Probe.samples in
    let k = Probe.scale probe_ms in
    let setup_s = median !setups and ops_per_s = float n /. busy_s in
    let metrics =
      [ ("setup_s", setup_s *. k, "s"); ("op_p50_ms", p50 *. k, "ms"); ("op_p90_ms", p90 *. k, "ms");
        ("ops_per_s", ops_per_s /. k, "1/s");
        ("ok_ratio", 1. -. failed_ratio, "ratio"); ("peak_rss_mb", peak_rss_mb (), "MB") ]
    in
    Printf.printf "set-up runs (s): %s\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
    Printf.printf
      "host probe: median %.4f ms over %d samples, scale %.4f; unscaled: setup_s %.4f, \
       op_p50_ms %.4f, op_p90_ms %.4f, ops_per_s %.4f\n"
      probe_ms (List.length !Probe.samples) k setup_s p50 p90 ops_per_s;
    List.iter (fun (name, v, unit) -> Printf.printf "  %-14s %12.4f %s\n" name v unit) metrics;
    Printf.printf "  %-14s %12.4f ratio (%d of %d ops)\n" "failed_ratio" failed_ratio !failed
      !attempted;
    Printf.printf "  op_p90_ms over %d samples, %d beyond it\n" n beyond;
    (* the sorted per-op times, thinned to at most 400 points *)
    let stride = max 1 (n / 400) in
    let buf = Buffer.create 4096 in
    Array.iteri
      (fun i x -> if i mod stride = 0 || i = n - 1 then Buffer.add_string buf (Printf.sprintf " %.3f" x))
      sorted;
    Printf.printf "sorted op ms (every %d-th of %d):%s\n" stride n (Buffer.contents buf);
    Workloads.rm_rf state_dir;
    print_endline (result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics)
  end
