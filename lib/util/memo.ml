type 'v t = {
  tbl : (string, string * 'v) Hashtbl.t;
  lock : Mutex.t;
  cap : int;
  persist : (Cache_store.t * string) option;  (* store, stage tag *)
  ran : string;
  skipped : string;
  unit_skipped : string;
}

let key v =
  match Marshal.to_string v [ Marshal.No_sharing ] with
  | s -> Digest.to_hex (Digest.string s)
  | exception Invalid_argument _ ->
    invalid_arg
      "Memo.key: value contains a closure (functional value); memo keys \
       must be pure data — fold a stable id into the key instead (see \
       Trans.Behavior.make)"

let create ?store ?tag ?(cap = max_int) ?(per_unit = false) name =
  let outcome o = name ^ (if per_unit then ".proc_" else ".") ^ o in
  { tbl = Hashtbl.create (min cap 16);
    lock = Mutex.create ();
    cap;
    persist =
      (match store, tag with
       | Some s, Some tag -> Some (s, tag)
       | _ -> None);
    ran = outcome "ran";
    skipped = outcome "skipped";
    unit_skipped = name ^ ".proc_skipped" }

(* get-or-create per call: the registry lookup is one lock-free atomic
   load, and a counter only appears in reports once it has counted *)
let count ?by name = Metrics.incr ?by (Metrics.counter name)

let record m slot key v =
  if m.cap > 0 then begin
    if (not (Hashtbl.mem m.tbl slot)) && Hashtbl.length m.tbl >= m.cap then
      Hashtbl.reset m.tbl;
    Hashtbl.replace m.tbl slot (key, v)
  end

let lookup m slot units key compute =
  match Hashtbl.find_opt m.tbl slot with
  | Some (k, v) when String.equal k key ->
    count m.skipped;
    Ok v
  | _ -> (
    match
      Option.bind m.persist (fun (s, stage) -> Cache_store.get s ~stage ~key)
    with
    | Some v ->
      count m.skipped;
      Option.iter (fun units -> count ~by:(units v) m.unit_skipped) units;
      record m slot key v;
      Ok v
    | None -> (
      count m.ran;
      match compute () with
      | Ok v ->
        Option.iter
          (fun (s, stage) -> Cache_store.put s ~stage ~key v)
          m.persist;
        record m slot key v;
        Ok v
      | Error _ as e -> e))

let find m ?slot ?units key compute =
  let slot = Option.value slot ~default:key in
  if m.cap = 0 then lookup m slot units key compute
  else Mutex.protect m.lock (fun () -> lookup m slot units key compute)

let get m ?slot ?units key compute =
  Result.get_ok (find m ?slot ?units key (fun () -> Ok (compute ())))

let hit m = count m.skipped
let clear m = Mutex.protect m.lock (fun () -> Hashtbl.reset m.tbl)
