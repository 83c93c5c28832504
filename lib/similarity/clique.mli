(** Maximal-clique enumeration (Bron–Kerbosch with pivoting).

    The SEA algorithm's similarity-enhanced nodes are exactly the maximal
    pairwise-similar clusters of hierarchy nodes, i.e. the maximal cliques
    of the ε-similarity graph (Definition 8, conditions 2–4). *)

val maximal_cliques_of_edges : n:int -> (int * int) list -> int list list
(** [maximal_cliques_of_edges ~n edges] enumerates the maximal cliques of
    the undirected graph on vertices [0 .. n-1] with the given edges
    (either orientation; self-loops are ignored). Isolated vertices are
    returned as singleton cliques. Each clique is sorted ascending; the
    clique list order is unspecified. SEA passes the ε-graph of
    [Sea.epsilon_edges]. *)
