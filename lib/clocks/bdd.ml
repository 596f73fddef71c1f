(* Hash-consed ROBDDs. Nodes are integers into growable arrays; 0 and 1
   are the terminal nodes. The classic unique-table + apply-cache
   construction, with the hot paths flattened:

   - the unique table is open-addressing over node ids (slot 0 = empty;
     node keys are re-read from the node arrays, so a probe is three
     int array loads and no allocation), kept under 50% load;
   - the apply cache is direct-mapped over packed immediate-int keys
     [(((a lsl 30) lor b) lsl 2) lor op], replaced on collision — the
     leak-free replacement for an ever-growing [Hashtbl.add] cache;
   - negations are memoized in a per-node array, in both directions
     ([¬a = r] also records [¬r = a]), making complements O(1) once
     computed and enabling complement terminals ([a ∧ ¬a = 0],
     [a ∨ ¬a = 1], [a ⊕ ¬a = 1]) as plain array probes.

   Packed keys need node ids below 2^30; [mk] enforces the limit. *)

type t = int

type manager = {
  mutable var_of : int array;   (* node -> variable index *)
  mutable low_of : int array;   (* node -> low child (var = false) *)
  mutable high_of : int array;  (* node -> high child (var = true) *)
  mutable not_of : int array;   (* node -> memoized negation, -1 unknown *)
  mutable next : int;           (* next free node id *)
  mutable uniq : int array;     (* open addressing: node ids, 0 = empty *)
  mutable cache_key : int array;  (* direct-mapped apply cache, 0 = empty *)
  mutable cache_val : int array;
  mutable cache_mask : int;
  mutable applies : int;     (* apply-cache consultations *)
  mutable apply_hits : int;  (* ... of which hits *)
  (* relational-product (and-exists) cache: a ternary key does not pack
     into one immediate int, so it gets its own direct-mapped arrays,
     allocated lazily on the first [and_exists]. Slot empty ⇔ key_a = -1. *)
  mutable rp_key_a : int array;
  mutable rp_key_b : int array;
  mutable rp_key_c : int array;
  mutable rp_val : int array;
  mutable rp_mask : int;
  mutable rp_applies : int;
  mutable rp_hits : int;
  mutable gc_collections : int;  (* mark-and-sweep runs *)
  mutable gc_swept : int;        (* dead nodes reclaimed, cumulative *)
}

(* nodes surviving the last compacting sweep, for live exposition *)
let m_live_nodes = Putil.Metrics.gauge "bdd.live_nodes"

let initial_capacity = 1024
let initial_table = 4096   (* unique table; power of two *)
let initial_cache = 32768  (* apply cache; power of two *)

let node_limit = 1 lsl 30  (* ids must pack into 30 bits of an apply key *)

let manager () =
  let m =
    { var_of = Array.make initial_capacity max_int;
      low_of = Array.make initial_capacity (-1);
      high_of = Array.make initial_capacity (-1);
      not_of = Array.make initial_capacity (-1);
      next = 2;
      uniq = Array.make initial_table 0;
      cache_key = Array.make initial_cache 0;
      cache_val = Array.make initial_cache 0;
      cache_mask = initial_cache - 1;
      applies = 0;
      apply_hits = 0;
      rp_key_a = [||];
      rp_key_b = [||];
      rp_key_c = [||];
      rp_val = [||];
      rp_mask = 0;
      rp_applies = 0;
      rp_hits = 0;
      gc_collections = 0;
      gc_swept = 0 }
  in
  (* terminals: node 0 = false, node 1 = true; their variable index is
     max_int so every real variable tests before them. *)
  m.var_of.(0) <- max_int;
  m.var_of.(1) <- max_int;
  m.not_of.(0) <- 1;
  m.not_of.(1) <- 0;
  m

let zero (_ : manager) = 0
let one (_ : manager) = 1

let grow m =
  let cap = Array.length m.var_of in
  if m.next >= cap then begin
    let ncap = cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap; b
    in
    m.var_of <- extend m.var_of max_int;
    m.low_of <- extend m.low_of (-1);
    m.high_of <- extend m.high_of (-1);
    m.not_of <- extend m.not_of (-1)
  end

let uniq_hash v low high =
  let h = ((v * 0x9e3779b1) + low) * 0x9e3779b1 + high in
  (h lxor (h lsr 29)) land max_int

let uniq_insert_node m tbl mask n =
  let h = uniq_hash m.var_of.(n) m.low_of.(n) m.high_of.(n) in
  let i = ref (h land mask) in
  while tbl.(!i) <> 0 do i := (!i + 1) land mask done;
  tbl.(!i) <- n

(* keep the unique table under 50% load so probe chains stay short *)
let uniq_maybe_grow m =
  if 2 * m.next >= Array.length m.uniq then begin
    let size = 2 * Array.length m.uniq in
    let tbl = Array.make size 0 in
    let mask = size - 1 in
    for n = 2 to m.next - 1 do
      uniq_insert_node m tbl mask n
    done;
    m.uniq <- tbl;
    Putil.Tracing.instant "bdd.uniq_grow" ~cat:"clocks"
      ~args:
        [ ("nodes", Putil.Tracing.Aint m.next);
          ("table", Putil.Tracing.Aint size) ]
  end

let cache_slot m key = ((key * 0x2545F4914F6CDD1D) lsr 32) land m.cache_mask

(* scale the cache with the node count (entries survive the move), up
   to a bound that keeps it resident for pathological managers *)
let cache_maybe_grow m =
  if m.next > Array.length m.cache_key
     && Array.length m.cache_key < 1 lsl 22
  then begin
    let old_key = m.cache_key and old_val = m.cache_val in
    let size = 2 * Array.length old_key in
    m.cache_key <- Array.make size 0;
    m.cache_val <- Array.make size 0;
    m.cache_mask <- size - 1;
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let s = cache_slot m k in
          m.cache_key.(s) <- k;
          m.cache_val.(s) <- old_val.(i)
        end)
      old_key
  end

let mk m v low high =
  if low = high then low
  else begin
    let mask = Array.length m.uniq - 1 in
    let i = ref (uniq_hash v low high land mask) in
    let found = ref (-1) in
    let probing = ref true in
    while !probing do
      let n = m.uniq.(!i) in
      if n = 0 then probing := false
      else if m.var_of.(n) = v && m.low_of.(n) = low && m.high_of.(n) = high
      then begin
        found := n;
        probing := false
      end
      else i := (!i + 1) land mask
    done;
    if !found >= 0 then !found
    else begin
      if m.next >= node_limit then
        failwith "Bdd.mk: node limit (2^30) exceeded";
      grow m;
      let n = m.next in
      m.next <- n + 1;
      m.var_of.(n) <- v;
      m.low_of.(n) <- low;
      m.high_of.(n) <- high;
      m.uniq.(!i) <- n;
      uniq_maybe_grow m;
      cache_maybe_grow m;
      n
    end
  end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  if i = max_int then invalid_arg "Bdd.var: reserved index";
  mk m i 0 1

let rec not_ m a =
  let r = m.not_of.(a) in
  if r >= 0 then r
  else begin
    let r = mk m m.var_of.(a) (not_ m m.low_of.(a)) (not_ m m.high_of.(a)) in
    m.not_of.(a) <- r;
    m.not_of.(r) <- a;
    r
  end

(* op codes for the apply cache *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_exists = 3  (* key packs (operand, cube) instead of (a, b) *)

let rec apply m op a b =
  let terminal =
    if op = op_and then
      if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 then a
      else if a = b then a
      else if m.not_of.(a) = b then 0
      else -1
    else if op = op_or then
      if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 then a
      else if a = b then a
      else if m.not_of.(a) = b then 1
      else -1
    else if a = b then 0
    else if a = 0 then b
    else if b = 0 then a
    else if a = 1 then not_ m b
    else if b = 1 then not_ m a
    else if m.not_of.(a) = b then 1
    else -1
  in
  if terminal >= 0 then terminal
  else begin
    (* all three ops are commutative: normalize the key *)
    let ka = if a < b then a else b in
    let kb = if a < b then b else a in
    let key = (((ka lsl 30) lor kb) lsl 2) lor op in
    m.applies <- m.applies + 1;
    (* 2-way set associative: a paired slot halves conflict evictions *)
    let slot = cache_slot m key in
    let slot =
      if m.cache_key.(slot) = key then slot
      else if m.cache_key.(slot lxor 1) = key then slot lxor 1
      else -1
    in
    if slot >= 0 then begin
      m.apply_hits <- m.apply_hits + 1;
      m.cache_val.(slot)
    end
    else begin
      let va = m.var_of.(a) and vb = m.var_of.(b) in
      let v = min va vb in
      let a0, a1 = if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b) in
      let r = mk m v (apply m op a0 b0) (apply m op a1 b1) in
      (* re-derive the slot: the cache may have been resized by [mk] *)
      let slot = cache_slot m key in
      let slot = if m.cache_key.(slot) = 0 then slot else slot lxor 1 in
      m.cache_key.(slot) <- key;
      m.cache_val.(slot) <- r;
      r
    end
  end

let and_ m a b = apply m op_and a b
let or_ m a b = apply m op_or a b
let xor_ m a b = apply m op_xor a b
let diff m a b = apply m op_and a (not_ m b)
let imp m a b = apply m op_or (not_ m a) b

let equal (a : t) (b : t) = a = b
let is_zero a = a = 0
let is_one a = a = 1

(* ------------------------------------------------------------------ *)
(* Node-free emptiness of a conjunction of literals                    *)
(* ------------------------------------------------------------------ *)

(* A literal is a node read as is or complemented, packed as
   [2 * node + neg]. A complemented node whose negation is already
   hash-consed is read as that node, so [a] and [¬a] meet as one pair
   of nodes whichever way the caller wrote them. The constants get the
   codes [lit_true] and [lit_false]. *)
let lit_true = -1
let lit_false = -2

let lit m n neg =
  if n <= 1 then if (n = 1) <> neg then lit_true else lit_false
  else if not neg then 2 * n
  else
    let c = m.not_of.(n) in
    if c >= 0 then 2 * c else (2 * n) + 1

let complementary m x l =
  x lxor l = 1
  || (x land 1 = 0 && l land 1 = 0 && m.not_of.(x lsr 1) = l lsr 1)

(* cofactor of literal [l] at variable [v] (the lowest top variable) *)
let cofactor m l v hi =
  let n = l lsr 1 in
  let n =
    if m.var_of.(n) <> v then n else if hi then m.high_of.(n) else m.low_of.(n)
  in
  lit m n (l land 1 = 1)

exception Empty_lit

(* [add_lit m l ls] conjoins literal code [l] into [ls], a sorted
   duplicate-free list of non-terminal literals; raises [Empty_lit]
   when the conjunction is the constant false. *)
let add_lit m l ls =
  if l = lit_true then ls
  else if l = lit_false || List.exists (complementary m l) ls then
    raise Empty_lit
  else
    let rec insert = function
      | [] -> [ l ]
      | x :: _ as ls when l < x -> l :: ls
      | x :: _ as ls when l = x -> ls
      | x :: rest -> x :: insert rest
    in
    insert ls

(* Depth-first walk of the product of the literals' BDDs, cofactoring
   on the lowest top variable. It reads the node arrays only, stops at
   the first path on which every literal holds, and remembers the
   sub-products it proved empty for the rest of the call (pairs under
   a packed int key, larger products under their literal list). A
   single non-terminal literal is satisfiable: reduced nodes are never
   constant. Two literals, the common case, walk without lists. *)
let conj_empty m lits =
  let empty_pairs = ref None and empty_lists = ref None in
  let known tbl key =
    match !tbl with Some t -> Hashtbl.mem t key | None -> false
  in
  let remember tbl key =
    let t =
      match !tbl with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 16 in
        tbl := Some t;
        t
    in
    Hashtbl.replace t key ()
  in
  let rec pair_empty a b =
    if a = b then false
    else if complementary m a b then true
    else begin
      let key = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
      known empty_pairs key
      || begin
        let v = min m.var_of.(a lsr 1) m.var_of.(b lsr 1) in
        let branch hi =
          let a' = cofactor m a v hi and b' = cofactor m b v hi in
          if a' = lit_false || b' = lit_false then true
          else if a' = lit_true || b' = lit_true then false
          else pair_empty a' b'
        in
        let r = branch false && branch true in
        if r then remember empty_pairs key;
        r
      end
    end
  in
  let rec empty = function
    | [] | [ _ ] -> false
    | [ a; b ] -> pair_empty a b
    | ls ->
      known empty_lists ls
      || begin
        let v =
          List.fold_left (fun v l -> min v m.var_of.(l lsr 1)) max_int ls
        in
        let branch hi =
          match
            List.fold_left
              (fun acc l -> add_lit m (cofactor m l v hi) acc)
              [] ls
          with
          | exception Empty_lit -> true
          | ls' -> empty ls'
        in
        let r = branch false && branch true in
        if r then remember empty_lists ls;
        r
      end
  in
  match
    List.fold_left (fun acc (n, neg) -> add_lit m (lit m n neg) acc) [] lits
  with
  | exception Empty_lit -> true
  | ls -> empty ls

let implies m a b = conj_empty m [ (a, false); (b, true) ]
let exclusive m a b = conj_empty m [ (a, false); (b, false) ]

(* ------------------------------------------------------------------ *)
(* Symbolic-reachability primitives: quantification, relational
   product, renaming, model counting, garbage collection.             *)
(* ------------------------------------------------------------------ *)

(* A cube is the conjunction of positive literals: every node's low
   child is 0, so walking [high_of] enumerates the quantified
   variables in order. *)
let cube m vars =
  List.fold_left (fun acc v -> and_ m acc (var m v)) 1
    (List.sort_uniq compare vars)

(* drop cube variables below [v]: they cannot occur in the operand, so
   quantifying them is the identity *)
let rec cube_above m v c =
  if c = 1 || m.var_of.(c) >= v then c else cube_above m v m.high_of.(c)

let rec exists m ~cube:c a =
  if a <= 1 || c = 1 then a
  else begin
    let va = m.var_of.(a) in
    let c = cube_above m va c in
    if c = 1 then a
    else begin
      let key = (((a lsl 30) lor c) lsl 2) lor op_exists in
      m.applies <- m.applies + 1;
      let slot = cache_slot m key in
      let slot =
        if m.cache_key.(slot) = key then slot
        else if m.cache_key.(slot lxor 1) = key then slot lxor 1
        else -1
      in
      if slot >= 0 then begin
        m.apply_hits <- m.apply_hits + 1;
        m.cache_val.(slot)
      end
      else begin
        let a0 = m.low_of.(a) and a1 = m.high_of.(a) in
        let r =
          if m.var_of.(c) = va then
            let c' = m.high_of.(c) in
            or_ m (exists m ~cube:c' a0) (exists m ~cube:c' a1)
          else mk m va (exists m ~cube:c a0) (exists m ~cube:c a1)
        in
        let slot = cache_slot m key in
        let slot = if m.cache_key.(slot) = 0 then slot else slot lxor 1 in
        m.cache_key.(slot) <- key;
        m.cache_val.(slot) <- r;
        r
      end
    end
  end

let rp_initial = 32768  (* power of two *)

let rp_ensure m =
  if m.rp_mask = 0 then begin
    m.rp_key_a <- Array.make rp_initial (-1);
    m.rp_key_b <- Array.make rp_initial (-1);
    m.rp_key_c <- Array.make rp_initial (-1);
    m.rp_val <- Array.make rp_initial 0;
    m.rp_mask <- rp_initial - 1
  end

let rp_slot m a b c =
  let h = ((a * 0x9e3779b1 + b) * 0x9e3779b1 + c) * 0x2545F4914F6CDD1D in
  (h lsr 32) land m.rp_mask

(* [and_exists m ~cube a b] = ∃cube. a ∧ b without materializing the
   conjunction — the image-computation hot path. *)
let rec and_exists m ~cube:c a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then exists m ~cube:c b
  else if b = 1 then exists m ~cube:c a
  else if a = b then exists m ~cube:c a
  else if m.not_of.(a) = b then 0
  else begin
    let va = m.var_of.(a) and vb = m.var_of.(b) in
    let v = min va vb in
    let c = cube_above m v c in
    if c = 1 then and_ m a b
    else begin
      rp_ensure m;
      let ka = if a < b then a else b in
      let kb = if a < b then b else a in
      m.rp_applies <- m.rp_applies + 1;
      let slot = rp_slot m ka kb c in
      if m.rp_key_a.(slot) = ka && m.rp_key_b.(slot) = kb
         && m.rp_key_c.(slot) = c
      then begin
        m.rp_hits <- m.rp_hits + 1;
        m.rp_val.(slot)
      end
      else begin
        let a0, a1 =
          if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a)
        in
        let b0, b1 =
          if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b)
        in
        let r =
          if m.var_of.(c) = v then
            let c' = m.high_of.(c) in
            or_ m (and_exists m ~cube:c' a0 b0) (and_exists m ~cube:c' a1 b1)
          else mk m v (and_exists m ~cube:c a0 b0) (and_exists m ~cube:c a1 b1)
        in
        m.rp_key_a.(slot) <- ka;
        m.rp_key_b.(slot) <- kb;
        m.rp_key_c.(slot) <- c;
        m.rp_val.(slot) <- r;
        r
      end
    end
  end

(* [rename m ~map a] substitutes variable [v] by [map.(v)] (identity
   beyond the array). The map must be strictly increasing on the
   support of [a] so the result keeps the variable order — true for
   the interleaved next↔current rails, where it is a shift by one.
   Memoized per call: renaming runs once per image iteration. *)
let rename m ~map a =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if n <= 1 then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = m.var_of.(n) in
        let v' = if v < Array.length map then map.(v) else v in
        let r = mk m v' (go m.low_of.(n)) (go m.high_of.(n)) in
        Hashtbl.add memo n r;
        r
  in
  go a

(* [sat_count m ~vars a] counts satisfying assignments over exactly the
   variable set [vars] (sorted ascending; must contain the support).
   Float-valued: 2^k overflows no sooner than the caller can iterate. *)
let sat_count m ~vars a =
  let nv = Array.length vars in
  let idx = Hashtbl.create (2 * nv + 1) in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) vars;
  let memo = Hashtbl.create 64 in
  (* count over vars.(i..) for a node whose top variable is vars.(i) *)
  let rec go n i =
    if n = 0 then 0.0
    else if n = 1 then ldexp 1.0 (nv - i)
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = m.var_of.(n) in
        (match Hashtbl.find_opt idx v with
         | None -> invalid_arg "Bdd.sat_count: support exceeds vars"
         | Some j ->
           let c = go_at m.low_of.(n) (j + 1) +. go_at m.high_of.(n) (j + 1) in
           Hashtbl.add memo n c;
           c)
  and go_at n i =
    (* scale by the don't-care gap between position [i] and the node *)
    if n = 0 then 0.0
    else if n = 1 then ldexp 1.0 (nv - i)
    else
      let j =
        match Hashtbl.find_opt idx m.var_of.(n) with
        | Some j -> j
        | None -> invalid_arg "Bdd.sat_count: support exceeds vars"
      in
      ldexp (go n j) (j - i)
  in
  go_at a 0

(* Compacting mark-and-sweep. Every live node must be reachable from
   [roots]; the array is rewritten in place with the relocated ids, and
   every other handle the client kept is invalid afterwards. Never runs
   implicitly — callers (the symbolic engine, between image iterations)
   decide when the table has grown enough to be worth sweeping. *)
let gc m ~roots =
  let n = m.next in
  let marked = Bytes.make n '\000' in
  Bytes.unsafe_set marked 0 '\001';
  Bytes.unsafe_set marked 1 '\001';
  (* recursion depth is bounded by the longest var chain, not node count *)
  let rec mark i =
    if Bytes.unsafe_get marked i = '\000' then begin
      Bytes.unsafe_set marked i '\001';
      mark m.low_of.(i);
      mark m.high_of.(i)
    end
  in
  Array.iter mark roots;
  let map = Array.make n (-1) in
  map.(0) <- 0;
  map.(1) <- 1;
  let live = ref 2 in
  for i = 2 to n - 1 do
    if Bytes.unsafe_get marked i = '\001' then begin
      map.(i) <- !live;
      incr live
    end
  done;
  let live = !live in
  (* compact in place: map.(i) <= i, and ascending order only ever
     writes slots strictly below the current read index *)
  for i = 2 to n - 1 do
    let j = map.(i) in
    if j >= 0 then begin
      m.var_of.(j) <- m.var_of.(i);
      m.low_of.(j) <- map.(m.low_of.(i));
      m.high_of.(j) <- map.(m.high_of.(i));
      let neg = m.not_of.(i) in
      m.not_of.(j) <- (if neg >= 0 && map.(neg) >= 0 then map.(neg) else -1)
    end
  done;
  (* freed slots must read as "negation unknown" when reallocated *)
  Array.fill m.not_of live (Array.length m.not_of - live) (-1);
  m.next <- live;
  (* rebuild the unique table under 25% load, floored at the initial
     size so small post-sweep populations don't thrash *)
  let size = ref initial_table in
  while !size < 4 * live do size := 2 * !size done;
  m.uniq <- Array.make !size 0;
  let mask = !size - 1 in
  for i = 2 to live - 1 do
    uniq_insert_node m m.uniq mask i
  done;
  (* both caches hold stale ids: flush them *)
  Array.fill m.cache_key 0 (Array.length m.cache_key) 0;
  if m.rp_mask <> 0 then begin
    Array.fill m.rp_key_a 0 (Array.length m.rp_key_a) (-1);
    Array.fill m.rp_key_b 0 (Array.length m.rp_key_b) (-1);
    Array.fill m.rp_key_c 0 (Array.length m.rp_key_c) (-1)
  end;
  Array.iteri (fun k r -> roots.(k) <- map.(r)) roots;
  m.gc_collections <- m.gc_collections + 1;
  m.gc_swept <- m.gc_swept + (n - live);
  Putil.Metrics.set m_live_nodes live;
  Putil.Tracing.instant "bdd.gc" ~cat:"clocks"
    ~args:
      [ ("live", Putil.Tracing.Aint live);
        ("swept", Putil.Tracing.Aint (n - live)) ];
  live

let eval m env a =
  let rec go n =
    if n = 0 then false
    else if n = 1 then true
    else if env m.var_of.(n) then go m.high_of.(n)
    else go m.low_of.(n)
  in
  go a

let id (a : t) : int = a

let view m a =
  if a = 0 then `Leaf false
  else if a = 1 then `Leaf true
  else `Node (m.var_of.(a), m.low_of.(a), m.high_of.(a))

let support m a =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go n =
    if n > 1 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars m.var_of.(n) ();
      go m.low_of.(n);
      go m.high_of.(n)
    end
  in
  go a;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let any_sat m a =
  if a = 0 then None
  else
    let rec go n acc =
      if n = 1 then acc
      else if m.low_of.(n) <> 0 then go m.low_of.(n) ((m.var_of.(n), false) :: acc)
      else go m.high_of.(n) ((m.var_of.(n), true) :: acc)
    in
    Some (List.rev (go a []))

let node_count m = m.next

let apply_stats m = (m.applies, m.apply_hits)
let relprod_stats m = (m.rp_applies, m.rp_hits)
let gc_stats m = (m.gc_collections, m.gc_swept)

let pp m ~pp_var ppf a =
  if a = 0 then Format.pp_print_string ppf "0"
  else if a = 1 then Format.pp_print_string ppf "1"
  else begin
    (* enumerate paths to 1 as product terms *)
    let first = ref true in
    let rec go n lits =
      if n = 1 then begin
        if not !first then Format.fprintf ppf " + ";
        first := false;
        (match List.rev lits with
         | [] -> Format.pp_print_string ppf "1"
         | l ->
           Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "·")
             (fun ppf (v, pos) ->
               if pos then pp_var ppf v
               else Format.fprintf ppf "¬%a" pp_var v)
             ppf l)
      end
      else if n <> 0 then begin
        go m.low_of.(n) ((m.var_of.(n), false) :: lits);
        go m.high_of.(n) ((m.var_of.(n), true) :: lits)
      end
    in
    go a []
  end
