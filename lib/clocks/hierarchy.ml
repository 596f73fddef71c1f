type node = {
  class_id : int;
  repr : Signal_lang.Ast.ident;
  parent : int option;
  children : int list;
  depth : int;
}

type t = {
  all : node array;
  root_ids : int list;
}

let m_depth = Putil.Metrics.gauge "calculus.hierarchy_depth"

let build calc =
  Putil.Tracing.with_span "clocks.hierarchy"
    ~args:
      [ ("classes",
         Putil.Tracing.Aint (List.length (Calculus.class_reprs calc))) ]
  @@ fun () ->
  let mgr = Calculus.manager calc in
  let reprs = Calculus.class_reprs calc in
  let n = List.length reprs in
  let clock = Array.make (max n 1) (Bdd.one mgr) in
  let repr_name = Array.make (max n 1) "" in
  List.iter
    (fun (c, r) ->
      clock.(c) <- Calculus.clock_of_class_id calc c;
      repr_name.(c) <- r)
    reprs;
  (* Inclusion matrix over the structural (definitional) clocks. The
     forest follows the clock definitions, as in the Polychrony
     compiler; the context Φ refines point queries (emptiness,
     exclusion) in {!Calculus} but is not needed for the tree shape. *)
  let le =
    Array.init n (fun a ->
        Array.init n (fun b -> a = b || Bdd.implies mgr clock.(a) clock.(b)))
  in
  let strictly_below a b = le.(a).(b) && not le.(b).(a) in
  (* up.(c): the classes strictly above c *)
  let up =
    Array.init n (fun c ->
        List.filter (fun d -> strictly_below c d) (List.init n Fun.id))
  in
  (* The parent of c is the highest-numbered minimal class strictly
     above it. Visiting the classes by decreasing up-set size puts every
     e before each d with e strictly below d (d's up-set is a strict
     subset of e's). So a class above c not yet covered by an earlier
     minimal one is minimal itself, and it covers its own up-set. *)
  let up_size = Array.map List.length up in
  let by_up_size =
    List.stable_sort
      (fun a b -> compare up_size.(b) up_size.(a))
      (List.init n Fun.id)
  in
  let covered = Array.make (max n 1) (-1) in
  let parent = Array.make (max n 1) None in
  for c = 0 to n - 1 do
    List.iter
      (fun d ->
        if strictly_below c d && covered.(d) <> c then begin
          parent.(c) <-
            Some (match parent.(c) with Some p -> max p d | None -> d);
          List.iter (fun e -> covered.(e) <- c) up.(d)
        end)
      by_up_size
  done;
  let children = Array.make (max n 1) [] in
  for c = n - 1 downto 0 do
    match parent.(c) with
    | Some p -> children.(p) <- c :: children.(p)
    | None -> ()
  done;
  let depth = Array.make (max n 1) 0 in
  let rec depth_of c =
    match parent.(c) with
    | None -> 0
    | Some p -> 1 + depth_of p
  in
  for c = 0 to n - 1 do
    depth.(c) <- depth_of c
  done;
  let all =
    Array.init n (fun c ->
        { class_id = c; repr = repr_name.(c); parent = parent.(c);
          children = children.(c); depth = depth.(c) })
  in
  let root_ids =
    Array.to_list all
    |> List.filter (fun nd -> nd.parent = None)
    |> List.map (fun nd -> nd.class_id)
  in
  Putil.Metrics.set m_depth (Array.fold_left max 0 depth);
  { all; root_ids }

let nodes t = Array.to_list t.all
let node t c = t.all.(c)
let roots t = List.map (fun c -> t.all.(c)) t.root_ids

let master t =
  match t.root_ids with
  | [ c ] -> Some t.all.(c).repr
  | _ -> None

let depth t =
  Array.fold_left (fun acc nd -> max acc nd.depth) 0 t.all

let pp ppf t =
  let rec pp_node indent c =
    let nd = t.all.(c) in
    Format.fprintf ppf "%s^%s@," (String.make indent ' ') nd.repr;
    List.iter (pp_node (indent + 2)) nd.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp_node 0) t.root_ids;
  Format.fprintf ppf "@]"
