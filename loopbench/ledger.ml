(* In-memory span recorder for the traced run.

   Spans are recorded here, in the benchmark, around calls into each
   layer's public functions; the libraries carry no benchmark
   instrumentation. A span has a name, a start, an end and the span
   that was open when it began. Spans stay in memory until [write]
   dumps them; recording is off (and [span] costs one branch) unless
   [set_enabled true]. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let set_enabled b = enabled := b

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; parent; name; start_ns = Putil.Clock.now_ns (); stop_ns = 0 } in
    recorded := s :: !recorded;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Putil.Clock.now_ns ();
        stack := List.tl !stack)
      f
  end

let spans () = List.rev !recorded
let duration_ns s = s.stop_ns - s.start_ns

(* Duration (ms) of the latest span called [name]; 0 if none. *)
let last_ms name =
  match List.find_opt (fun s -> s.name = name) !recorded with
  | Some s -> float (duration_ns s) /. 1e6
  | None -> 0.

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: one domain, properly nested). *)
let self_ns () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration_ns s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  List.map
    (fun s ->
      (s, duration_ns s - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    (spans ())

let write path =
  let module J = Putil.Metrics.Json in
  let rows =
    List.map
      (fun (s, self) ->
        J.Obj
          [ ("name", J.String s.name); ("id", J.Int s.id); ("parent", J.Int s.parent);
            ("start_us", J.Float (float s.start_ns /. 1e3));
            ("end_us", J.Float (float s.stop_ns /. 1e3));
            ("self_us", J.Float (float self /. 1e3)) ])
      (self_ns ())
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (J.Obj [ ("spans", J.Arr rows) ]));
      output_char oc '\n')
