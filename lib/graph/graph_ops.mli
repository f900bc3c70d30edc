(** Graph surgery: subgraphs, unions, contractions, subdivisions.

    Operations that renumber vertices return a {!mapping} so callers can
    translate results back to the original graph. *)

type mapping = {
  to_sub : int array;    (** original vertex -> new vertex, or [-1] if dropped *)
  to_orig : int array;   (** new vertex -> original vertex *)
  edge_to_orig : int array;  (** new edge id -> original edge id, or [-1] *)
}

(** [induced_subgraph g vs] restricts [g] to the vertex set [vs]
    (duplicates ignored, any order). New vertex [i] is the [i]-th smallest
    vertex of [vs], and the graph is the one {!Graph.of_edges} builds from
    the kept edges, built by {!Graph.induced} in O(n + vol(vs)).
    @raise Invalid_argument if a vertex of [vs] is outside [0 .. n-1]. *)
val induced_subgraph : Graph.t -> int list -> Graph.t * mapping

(** [subgraph_of_edges g es] keeps all [n] vertices but only the edges whose
    id is in [es]. The resulting mapping has identity vertex maps. *)
val subgraph_of_edges : Graph.t -> int list -> Graph.t * mapping

(** [remove_edges g es] deletes the edges with ids in [es], keeping all
    vertices. *)
val remove_edges : Graph.t -> int list -> Graph.t * mapping

(** [remove_vertices g vs] deletes the vertices in [vs] and their incident
    edges. *)
val remove_vertices : Graph.t -> int list -> Graph.t * mapping

(** [disjoint_union a b] places [b] after [a]; vertex [v] of [b] becomes
    [Graph.n a + v]. *)
val disjoint_union : Graph.t -> Graph.t -> Graph.t

(** [contract g classes] contracts each vertex class to a single new vertex
    (classes are given by a label array: vertices with equal labels merge;
    labels must cover [0 .. k-1]). Parallel edges collapse and self-loops
    vanish. Returns the contracted graph. *)
val contract : Graph.t -> int array -> int -> Graph.t

(** [contract_edges g es] contracts the listed edges (by id) and returns the
    resulting minor together with the vertex label array used (original
    vertex -> contracted vertex). *)
val contract_edges : Graph.t -> int list -> Graph.t * int array

(** [subdivide g e k] replaces edge [e] by a path with [k] new internal
    vertices (so [k = 0] returns an isomorphic copy). New vertices are
    numbered [Graph.n g ..]. *)
val subdivide : Graph.t -> int -> int -> Graph.t

(** [add_edges g edges] returns [g] plus the listed endpoint pairs. *)
val add_edges : Graph.t -> (int * int) list -> Graph.t

(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. *)
val relabel : Graph.t -> int array -> Graph.t

(** [complement g] is the complement graph (intended for small graphs). *)
val complement : Graph.t -> Graph.t

(** [cluster_partition g labels k] splits the edges of [g] by the vertex
    labelling: returns the list of (cluster vertex list, induced subgraph,
    mapping) per label, plus the list of inter-cluster edge ids. *)
val cluster_partition :
  Graph.t -> int array -> int ->
  (int list * Graph.t * mapping) array * int list
