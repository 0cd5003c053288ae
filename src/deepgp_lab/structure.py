"""Composition structures: layered graphs with per-layer smoothness.

A composition structure describes how a function on [-1,1]^{d0} factors through
q+1 layers: layer i maps d_i inputs to d_{i+1} outputs, component j of layer i
reading only the coordinates in its active set S_ij.  The effective dimension
of layer i is t_i = max_j |S_ij|, and each layer carries a smoothness exponent
beta_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SpaceTooLargeError, ValidationError

__all__ = [
    "CompositionGraph",
    "CompositionStructure",
    "StructureSpace",
    "PENALTY_HORIZON",
    "make_graph",
    "validate_graph",
    "enumerate_structures",
    "reduce_redundant",
    "graph_to_dict",
    "graph_from_dict",
    "structure_to_dict",
    "structure_from_dict",
]

ActiveSets = tuple  # per layer: tuple over outputs of sorted 1-based index tuples

# Largest |d|_1 whose size penalty e^{e^{|d|_1}} is finite in double precision,
# floor(ln 709); larger structures carry exactly zero prior mass.
PENALTY_HORIZON = 6


@dataclass(frozen=True)
class CompositionGraph:
    """The graph part lambda = (q, d, t, S).

    dims has length q+2 with dims[-1] == 1; eff_dims mirrors it with a trailing 1.
    active_sets[i][j] is the sorted tuple of 1-based input coordinates read by
    output j of layer i.
    """

    q: int
    dims: tuple
    eff_dims: tuple
    active_sets: ActiveSets

    @property
    def num_nodes(self) -> int:
        # |d|_1 = 1 + sum_{i=0}^{q} d_i; the trailing d_{q+1} = 1 supplies the "1 +".
        return int(sum(self.dims))


@dataclass(frozen=True)
class CompositionStructure:
    """eta = (lambda, beta): a graph plus one smoothness exponent per layer."""

    graph: CompositionGraph
    betas: tuple
    bounds: tuple = (0.1, 10.0)

    def __post_init__(self):
        if len(self.betas) != self.graph.q + 1:
            raise ValidationError(
                f"betas must have length q+1={self.graph.q + 1}, got {len(self.betas)}"
            )
        lo, hi = _check_bounds(self.bounds, "structure.beta_bounds")
        for b in self.betas:
            if not (lo <= b <= hi):
                raise ValidationError(f"beta {b} outside bounds {self.bounds}")


@dataclass(frozen=True)
class StructureSpace:
    """Finite truncation of the (countably infinite) set of structures."""

    input_dim: int
    max_q: int
    max_width: int
    max_nodes: int = 16
    beta_bounds: tuple = (0.1, 10.0)

    def __post_init__(self):
        if self.input_dim < 1 or self.max_q < 0 or self.max_width < 1 or self.max_nodes < 1:
            raise ValidationError("StructureSpace caps must be positive (max_q >= 0)")
        _check_bounds(self.beta_bounds, "space.beta_bounds")


def _check_bounds(bounds, name):
    """The beta bounds (low, high), once they are a pair with 0 < low <= high."""
    if len(bounds) != 2 or not 0 < bounds[0] <= bounds[1]:
        raise ValidationError(f"{name} must be [low, high] with 0 < low <= high, "
                              f"got {list(bounds)}")
    return bounds


def validate_graph(g: CompositionGraph) -> None:
    """Check every graph invariant; raise ValidationError listing every violation.

    A layer count that does not match q stops the checks that index by it.
    """
    if len(g.dims) != g.q + 2:
        raise ValidationError(f"invalid graph: dims length {len(g.dims)} != q+2 = {g.q + 2}")
    v = []
    if g.dims[-1] != 1:
        v.append(f"d_(q+1) = {g.dims[-1]} != 1")
    for i, d in enumerate(g.dims):
        if d < 1:
            v.append(f"d_{i} = {d} < 1")
    if len(g.eff_dims) != g.q + 2:
        v.append(f"eff_dims length {len(g.eff_dims)} != q+2 = {g.q + 2}")
    elif g.eff_dims[-1] != 1:
        v.append(f"t_(q+1) = {g.eff_dims[-1]} != 1")
    if len(g.active_sets) != g.q + 1:
        v.append(f"active_sets has {len(g.active_sets)} layers, expected q+1 = {g.q + 1}")
        raise ValidationError("invalid graph: " + "; ".join(v))
    for i in range(g.q + 1):
        sets_i = g.active_sets[i]
        if len(sets_i) != g.dims[i + 1]:
            v.append(f"layer {i}: {len(sets_i)} active sets for d_{i + 1} = {g.dims[i + 1]} outputs")
            continue
        for j, s in enumerate(sets_i):
            if len(s) == 0:
                v.append(f"S_{i}{j + 1} is empty")
            if tuple(sorted(set(s))) != tuple(s):
                v.append(f"S_{i}{j + 1} not sorted/deduplicated: {s}")
            if any(not (1 <= e <= g.dims[i]) for e in s):
                v.append(f"S_{i}{j + 1} has index outside [1, d_{i}={g.dims[i]}]: {s}")
        tmax = max(len(s) for s in sets_i) if sets_i else 0
        if i < len(g.eff_dims) and g.eff_dims[i] != tmax:
            v.append(f"t_{i} != max_j |S_{i}j| ({g.eff_dims[i]} vs {tmax})")
    if v:
        raise ValidationError("invalid graph: " + "; ".join(v))


def make_graph(q, dims, active_sets) -> CompositionGraph:
    """Build a graph, deriving eff_dims from the active sets."""
    sets = tuple(tuple(tuple(sorted(set(s))) for s in layer) for layer in active_sets)
    eff = tuple(max(len(s) for s in layer) for layer in sets) + (1,)
    return CompositionGraph(q=q, dims=tuple(dims), eff_dims=eff, active_sets=sets)


def _nonempty_subsets(d):
    idx = range(1, d + 1)
    for size in range(1, d + 1):
        yield from itertools.combinations(idx, size)


def enumerate_structures(space: StructureSpace, beta_grid, count_limit: int = 200_000):
    """All valid structures within the caps, in lexicographic (q, d, S, beta) order.

    beta_grid is the set of admissible smoothness values, applied to every layer
    (cartesian product across layers).  Only structures with positive prior
    mass are listed: |d|_1 is capped at PENALTY_HORIZON as well as max_nodes.
    """
    lo, hi = space.beta_bounds
    grid = tuple(sorted(beta_grid))
    if not grid:
        raise ValidationError("beta_grid must be nonempty")
    for b in grid:
        if not (lo <= b <= hi):
            raise ValidationError(f"beta_grid value {b} outside bounds {space.beta_bounds}")

    out = []
    for q in range(space.max_q + 1):
        hidden_widths = itertools.product(range(1, space.max_width + 1), repeat=q)
        for widths in hidden_widths:
            dims = (space.input_dim,) + widths + (1,)
            if sum(dims) > min(space.max_nodes, PENALTY_HORIZON):
                continue
            per_layer_choices = []
            for i in range(q + 1):
                subsets = list(_nonempty_subsets(dims[i]))
                per_layer_choices.append(
                    list(itertools.product(subsets, repeat=dims[i + 1]))
                )
            for sets in itertools.product(*per_layer_choices):
                graph = make_graph(q, dims, sets)
                for betas in itertools.product(grid, repeat=q + 1):
                    out.append(
                        CompositionStructure(graph=graph, betas=betas, bounds=space.beta_bounds)
                    )
                    if len(out) > count_limit:
                        raise SpaceTooLargeError(
                            f"structure space exceeds count limit {count_limit}"
                        )
    return out


def reduce_redundant(eta: CompositionStructure) -> CompositionStructure:
    """Collapse layers j with t_j = t_{j-1} = 1 by multiplying the exponents.

    Only valid when every beta <= 1 (for the smoothness ball of radius 1);
    otherwise the structure is returned unchanged.  The minimax rate is
    invariant under the collapse.
    """
    if max(eta.betas) > 1.0:
        return eta

    g, betas = eta.graph, list(eta.betas)
    dims = list(g.dims)
    sets = [list(layer) for layer in g.active_sets]
    while True:
        q = len(betas) - 1
        j = next(
            (j for j in range(1, q + 1) if max(len(s) for s in sets[j]) == 1
             and max(len(s) for s in sets[j - 1]) == 1),
            None,
        )
        if j is None:
            break
        # Merge layer j into layer j-1: output k of the merged layer reads what
        # the (single) input of old output k read one layer down.
        merged = [sets[j - 1][s[0] - 1] for s in sets[j]]
        sets[j - 1] = merged
        del sets[j]
        del dims[j]
        betas[j - 1] = betas[j - 1] * betas[j]
        del betas[j]

    if len(betas) == len(eta.betas):
        return eta
    graph = make_graph(len(betas) - 1, dims, sets)
    # Multiplying exponents can drop below the original lower bound; widen it
    # so the reduced structure stays admissible.
    bounds = (min(eta.bounds[0], min(betas)), eta.bounds[1])
    return CompositionStructure(graph=graph, betas=tuple(betas), bounds=bounds)


# ---------------------------------------------------------------------------
# JSON serialization (lossless round-trip; active sets stay 1-based)

def graph_to_dict(g: CompositionGraph) -> dict:
    return {
        "q": g.q,
        "dims": list(g.dims),
        "eff_dims": list(g.eff_dims),
        "active_sets": [[list(s) for s in layer] for layer in g.active_sets],
    }


def graph_from_dict(d: dict) -> CompositionGraph:
    g = CompositionGraph(
        q=int(d["q"]),
        dims=tuple(int(x) for x in d["dims"]),
        eff_dims=tuple(int(x) for x in d["eff_dims"]),
        active_sets=tuple(
            tuple(tuple(int(e) for e in s) for s in layer) for layer in d["active_sets"]
        ),
    )
    validate_graph(g)
    return g


def structure_to_dict(eta: CompositionStructure) -> dict:
    d = graph_to_dict(eta.graph)
    d["betas"] = list(eta.betas)
    d["beta_bounds"] = list(eta.bounds)
    return d


def structure_from_dict(d: dict) -> CompositionStructure:
    return CompositionStructure(
        graph=graph_from_dict(d),
        betas=tuple(float(b) for b in d["betas"]),
        bounds=tuple(float(b) for b in d["beta_bounds"]),
    )

