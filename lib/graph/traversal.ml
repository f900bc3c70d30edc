(* Drains a flat FIFO: [queue.(head .. tail-1)] holds the frontier, each
   vertex enters it once, so [n] slots suffice. *)
let bfs_multi g sources =
  let n = Graph.n g in
  let off, adj = Graph.csr g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for p = off.(v) to off.(v + 1) - 1 do
      let w = adj.(p) in
      if dist.(w) < 0 then begin
        dist.(w) <- dist.(v) + 1;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  dist

let bfs g src = bfs_multi g [ src ]

let bfs_tree g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  parent.(src) <- src;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Graph.iter_neighbors g v (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- v;
          Queue.add w queue
        end)
  done;
  (dist, parent)

let bfs_layers g src =
  let dist = bfs g src in
  let radius = Array.fold_left max 0 dist in
  let layers = Array.make (radius + 1) [] in
  for v = Graph.n g - 1 downto 0 do
    if dist.(v) >= 0 then layers.(dist.(v)) <- v :: layers.(dist.(v))
  done;
  layers

let components g =
  let n = Graph.n g in
  let off, adj = Graph.csr g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      let c = !count in
      incr count;
      label.(v) <- c;
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for p = off.(u) to off.(u + 1) - 1 do
          let w = adj.(p) in
          if label.(w) < 0 then begin
            label.(w) <- c;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  (label, !count)

let component_list g =
  let label, count = components g in
  let buckets = Array.make count [] in
  for v = Graph.n g - 1 downto 0 do
    buckets.(label.(v)) <- v :: buckets.(label.(v))
  done;
  Array.to_list buckets

let is_connected g =
  let _, count = components g in
  count <= 1

let eccentricity g v =
  Array.fold_left max 0 (bfs g v)

(* BFS from [src] into caller-owned buffers. [dist] must be [-1] on all of
   [src]'s component; on return [queue.(0 .. len-1)] lists that component
   in BFS order, [dist] holds their distances, and [len] is returned. *)
(* lint: hot *)
let bfs_into g dist queue src =
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dw = dist.(v) + 1 in
    for i = 0 to Graph.degree g v - 1 do
      let w = Graph.neighbor_at g v i in
      if dist.(w) < 0 then begin
        dist.(w) <- dw;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* Next BFS source among the live candidates [cand.(0 .. live-1)]: the
   largest upper bound when [high], else the smallest lower bound; ties go
   to the higher degree, then to the smaller id. *)
let pick_source g ~high lower upper cand live =
  let key v = if high then upper.(v) else - lower.(v) in
  let best = ref cand.(0) in
  for i = 1 to live - 1 do
    let v = cand.(i) and b = !best in
    let kv = key v and kb = key b in
    if kv > kb
       || kv = kb
          && (Graph.degree g v > Graph.degree g b
             || (Graph.degree g v = Graph.degree g b && v < b))
    then best := v
  done;
  !best

(* Bounding diameters (Takes & Kosters, CIKM 2011), one component at a
   time. Every vertex keeps bounds lower <= ecc <= upper; a BFS from [s]
   with eccentricity [e] tightens each vertex [w] at distance [d] to
   lower >= max d (e - d) and upper <= e + d. [best], the largest
   eccentricity computed so far, is a lower bound on the diameter, so a
   vertex with upper <= best cannot raise it and is dropped. This also
   drops a vertex whose two bounds met: max d (e - d) <= e <= best, so
   its upper bound equals its lower bound and is at most [best]. A BFS
   source is always dropped by its own BFS, so the loop ends after at
   most n BFS. *)
let diameter_counted g =
  let n = Graph.n g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  (* lower.(v) < 0 marks a vertex whose component is not yet reached *)
  let lower = Array.make n (-1) and upper = Array.make n 0 in
  let cand = Array.make n 0 in
  let best = ref 0 and runs = ref 0 in
  let reset len =
    for i = 0 to len - 1 do
      dist.(queue.(i)) <- -1
    done
  in
  for root = 0 to n - 1 do
    if lower.(root) < 0 then begin
      let size = bfs_into g dist queue root in
      reset size;
      for i = 0 to size - 1 do
        let v = queue.(i) in
        cand.(i) <- v;
        lower.(v) <- 0;
        upper.(v) <- size - 1
      done;
      let live = ref (if size - 1 <= !best then 0 else size) in
      let high = ref true in
      while !live > 0 do
        let src = pick_source g ~high:!high lower upper cand !live in
        let len = bfs_into g dist queue src in
        incr runs;
        let ecc = dist.(queue.(len - 1)) in
        if ecc > !best then best := ecc;
        let kept = ref 0 in
        for i = 0 to !live - 1 do
          let w = cand.(i) in
          let d = dist.(w) in
          let lo = if d > ecc - d then d else ecc - d in
          if lo > lower.(w) then lower.(w) <- lo;
          if ecc + d < upper.(w) then upper.(w) <- ecc + d;
          if upper.(w) > !best then begin
            cand.(!kept) <- w;
            incr kept
          end
        done;
        live := !kept;
        reset len;
        high := not !high
      done
    end
  done;
  (!best, !runs)

let diameter g = fst (diameter_counted g)

let argmax_dist (dist : int array) =
  let best = ref 0 in
  Array.iteri (fun v d -> if d > dist.(!best) then best := v) dist;
  !best

let diameter_double_sweep g =
  if Graph.n g = 0 then 0
  else begin
    let d0 = bfs g 0 in
    let far = argmax_dist d0 in
    eccentricity g far
  end

module Heap = struct
  (* binary min-heap of (key, vertex) pairs *)
  type t = {
    mutable data : (int * int) array;
    mutable len : int;
  }

  let create () = { data = Array.make 16 (0, 0); len = 0 }
  let is_empty h = h.len = 0

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h key v =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) (0, 0) in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- (key, v);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

let dijkstra g weight src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let heap = Heap.create () in
  dist.(src) <- 0;
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d, v = Heap.pop heap in
    if d = dist.(v) then
      Graph.iter_incident g v (fun w e ->
          let we = weight e in
          if we < 0 then invalid_arg "Traversal.dijkstra: negative weight";
          let nd = d + we in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            Heap.push heap nd w
          end)
  done;
  dist

let dfs_order g src =
  let n = Graph.n g in
  let seen = Array.make n false in
  let order = ref [] in
  let stack = ref [ src ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        if not seen.(v) then begin
          seen.(v) <- true;
          order := v :: !order;
          (* push neighbors in reverse so smaller ids are visited first *)
          let nbrs = Graph.fold_neighbors g v (fun acc w -> w :: acc) [] in
          List.iter (fun w -> if not seen.(w) then stack := w :: !stack) nbrs
        end
  done;
  List.rev !order

let is_acyclic g =
  let _, count = components g in
  Graph.m g = Graph.n g - count

let spanning_forest g =
  let uf = Union_find.create (Graph.n g) in
  Graph.fold_edges g
    (fun acc e u v -> if Union_find.union uf u v then e :: acc else acc)
    []
  |> List.rev
