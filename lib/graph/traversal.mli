(** Breadth-first / depth-first traversals and shortest paths. *)

(** [bfs g src] returns the array of hop distances from [src]; unreachable
    vertices get [-1]. *)
val bfs : Graph.t -> int -> int array

(** [bfs_multi g sources] returns hop distances from the nearest source;
    unreachable vertices get [-1]. *)
val bfs_multi : Graph.t -> int list -> int array

(** [bfs_tree g src] returns [(dist, parent)] where [parent.(src) = src] and
    [parent.(v) = -1] for unreachable [v]. *)
val bfs_tree : Graph.t -> int -> int array * int array

(** [bfs_layers g src] groups reachable vertices by distance: element [d] of
    the result lists the vertices at distance exactly [d], in increasing
    vertex order. *)
val bfs_layers : Graph.t -> int -> int list array

(** [components g] assigns each vertex a component label in
    [0 .. count-1] (labelled in order of smallest member) and returns
    [(labels, count)]. *)
val components : Graph.t -> int array * int

(** List of components, each a sorted vertex list, ordered by smallest
    member. *)
val component_list : Graph.t -> int list list

(** Whether the graph is connected ([true] for graphs with at most one
    vertex). *)
val is_connected : Graph.t -> bool

(** [eccentricity g v] is the maximum distance from [v] to a reachable
    vertex. *)
val eccentricity : Graph.t -> int -> int

(** Exact diameter: the largest eccentricity over all vertices, that is the
    maximum of the component diameters; [0] on a graph without edges.
    Computed per component by the bounding-diameters algorithm of Takes &
    Kosters (CIKM 2011): each vertex keeps a lower and an upper
    eccentricity bound, BFS sources alternate between the largest upper
    and the smallest lower bound (ties to higher degree, then smaller id),
    and a vertex is dropped once its upper bound is at most the largest
    eccentricity found so far. Grids and planar clusters typically need
    a handful to a few dozen BFS; the worst case is still one BFS per
    vertex, i.e. [n * m], e.g. on cycles and other vertex-transitive
    graphs, where every vertex has the same eccentricity. *)
val diameter : Graph.t -> int

(** [diameter_counted g] is [(diameter g, runs)], where [runs] is the number
    of eccentricity BFS the bounding loop ran (a deterministic function of
    [g]). *)
val diameter_counted : Graph.t -> int * int

(** Lower bound on the diameter by a double BFS sweep (exact on trees). *)
val diameter_double_sweep : Graph.t -> int

(** [dijkstra g weight src] computes shortest-path distances with
    non-negative per-edge weights ([weight e] for edge id [e]); unreachable
    vertices get [max_int]. *)
val dijkstra : Graph.t -> (int -> int) -> int -> int array

(** [dfs_order g src] lists vertices reachable from [src] in preorder. *)
val dfs_order : Graph.t -> int -> int list

(** [is_acyclic g] tests whether [g] is a forest. *)
val is_acyclic : Graph.t -> bool

(** [spanning_forest g] returns the edge ids of a BFS spanning forest. *)
val spanning_forest : Graph.t -> int list
