"""Composition structures: layered graphs with per-layer smoothness.

A composition structure describes how a function on [-1,1]^{d0} factors through
q+1 layers: layer i maps d_i inputs to d_{i+1} outputs, component j of layer i
reading only the coordinates in its active set S_ij.  The effective dimension
of layer i is t_i = max_j |S_ij|, and each layer carries a smoothness exponent
beta_i.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

from .errors import SpaceTooLargeError, ValidationError

__all__ = [
    "CompositionGraph",
    "CompositionStructure",
    "StructureSpace",
    "PENALTY_HORIZON",
    "enumerate_structures",
    "reduce_redundant",
    "graph_to_dict",
    "graph_from_dict",
    "structure_to_dict",
    "structure_from_dict",
    "structure_to_json",
]

ActiveSets = tuple  # per layer: tuple over outputs of sorted 1-based index tuples

# Largest |d|_1 whose size penalty e^{e^{|d|_1}} is finite in double precision,
# floor(ln 709); larger structures carry exactly zero prior mass.
PENALTY_HORIZON = 6

_COUNT_LIMIT = 200_000  # most structures enumerate_structures lists


@dataclass(frozen=True)
class CompositionGraph:
    """The graph part lambda = (q, d, t, S), stored as d_0 and S.

    active_sets[i][j] is the sorted tuple of 1-based input coordinates read by
    output j of layer i.  The rest is derived: q + 1 is the number of layers,
    dims = (d_0, ..., d_q, 1) with d_{i+1} the number of outputs of layer i, and
    eff_dims = (t_0, ..., t_q, 1) with t_i = max_j |S_ij|.  Building a graph
    checks it, raising one ValidationError that lists every violation.
    """

    input_dim: int
    active_sets: ActiveSets
    q: int = field(init=False, compare=False, repr=False)
    dims: tuple = field(init=False, compare=False, repr=False)
    eff_dims: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sets = tuple(tuple(tuple(s) for s in layer) for layer in self.active_sets)
        dims = (self.input_dim,) + tuple(len(layer) for layer in sets)
        v = [f"d_0 = {self.input_dim} < 1"] if self.input_dim < 1 else []
        if not sets:
            v.append("no layers")
        elif dims[-1] != 1:
            v.append(f"the last layer has {dims[-1]} outputs, not 1")
        for i, layer in enumerate(sets):
            if not layer:
                v.append(f"layer {i} has no outputs")
            for j, s in enumerate(layer):
                if not s:
                    v.append(f"S_{i}{j + 1} is empty")
                if tuple(sorted(set(s))) != s:
                    v.append(f"S_{i}{j + 1} not sorted/deduplicated: {s}")
                if any(not 1 <= e <= dims[i] for e in s):
                    v.append(f"S_{i}{j + 1} has index outside [1, d_{i}={dims[i]}]: {s}")
        if v:
            raise ValidationError("invalid graph: " + "; ".join(v))
        object.__setattr__(self, "active_sets", sets)
        object.__setattr__(self, "q", len(sets) - 1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eff_dims",
                           tuple(max(map(len, layer)) for layer in sets) + (1,))

    @property
    def num_nodes(self) -> int:
        # |d|_1 = 1 + sum_{i=0}^{q} d_i; the trailing d_{q+1} = 1 supplies the "1 +".
        return int(sum(self.dims))

    @functools.cached_property
    def _json(self):
        """json.dumps(graph_to_dict(self), sort_keys=True) cut in two where a
        structure's "beta_bounds" and "betas" sort in: after "active_sets"."""
        d = graph_to_dict(self)
        head = '{"active_sets": ' + json.dumps(d.pop("active_sets")) + ", "
        return head, json.dumps(d, sort_keys=True)[1:]


@dataclass(frozen=True)
class CompositionStructure:
    """eta = (lambda, beta): a graph plus one smoothness exponent per layer."""

    graph: CompositionGraph
    betas: tuple
    bounds: tuple = (0.1, 10.0)

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(self.betas))
        object.__setattr__(self, "bounds", tuple(self.bounds))
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
        object.__setattr__(self, "beta_bounds", tuple(map(float, self.beta_bounds)))
        _check_bounds(self.beta_bounds, "space.beta_bounds")

    @property
    def reach(self):
        """(largest q, largest hidden width) of a structure with a finite log weight.

        Such a structure has |d|_1 = d_0 + d_1 + ... + d_q + 1 at most
        min(max_nodes, PENALTY_HORIZON) with every d_i >= 1, so q and each hidden
        d_i are at most that cap - d_0 - 1; both are negative when there is none.
        """
        slack = min(self.max_nodes, PENALTY_HORIZON) - self.input_dim - 1
        return min(self.max_q, slack), min(self.max_width, slack)


def _check_bounds(bounds, name):
    """The beta bounds (low, high), once they are a pair with 0 < low <= high."""
    if len(bounds) != 2 or not 0 < bounds[0] <= bounds[1]:
        raise ValidationError(f"{name} must be [low, high] with 0 < low <= high, "
                              f"got {list(bounds)}")
    return bounds


def _nonempty_subsets(d):
    idx = range(1, d + 1)
    for size in range(1, d + 1):
        yield from itertools.combinations(idx, size)


def enumerate_structures(space: StructureSpace, beta_grid):
    """All valid structures within the caps, in lexicographic (q, d, S, beta) order.

    beta_grid is the set of admissible smoothness values, applied to every layer
    (cartesian product across layers).  Only structures with a finite log weight
    (though every one of depth >= 1 weighs exactly 0) are listed: |d|_1 is capped
    at PENALTY_HORIZON as well as max_nodes, and only space.reach is walked.
    """
    lo, hi = space.beta_bounds
    grid = tuple(sorted(beta_grid))
    if not grid:
        raise ValidationError("beta_grid must be nonempty")
    for b in grid:
        if not (lo <= b <= hi):
            raise ValidationError(f"beta_grid value {b} outside bounds {space.beta_bounds}")

    depth, width = space.reach
    out = []
    for q in range(depth + 1):
        for widths in itertools.product(range(1, width + 1), repeat=q):
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
                graph = CompositionGraph(space.input_dim, sets)
                for betas in itertools.product(grid, repeat=q + 1):
                    out.append(
                        CompositionStructure(graph=graph, betas=betas, bounds=space.beta_bounds)
                    )
                    if len(out) > _COUNT_LIMIT:
                        raise SpaceTooLargeError(
                            f"structure space exceeds count limit {_COUNT_LIMIT}"
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
    while True:
        j = next((j for j in range(1, g.q + 1) if g.eff_dims[j] == g.eff_dims[j - 1] == 1),
                 None)
        if j is None:
            break
        # Merge layer j into layer j-1: output k of the merged layer reads what
        # the (single) input of old output k read one layer down.
        sets = list(g.active_sets)
        sets[j - 1] = [sets[j - 1][s[0] - 1] for s in sets[j]]
        del sets[j]
        g = CompositionGraph(g.input_dim, sets)
        betas[j - 1] = betas[j - 1] * betas[j]
        del betas[j]

    if g is eta.graph:
        return eta
    # Multiplying exponents can drop below the original lower bound; widen it
    # so the reduced structure stays admissible.
    bounds = (min(eta.bounds[0], min(betas)), eta.bounds[1])
    return CompositionStructure(graph=g, betas=tuple(betas), bounds=bounds)


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
    """The graph of dims[0] and active_sets, once q, dims and eff_dims are what
    those two give."""
    g = CompositionGraph(int(d["dims"][0]), [[[int(e) for e in s] for s in layer]
                                              for layer in d["active_sets"]])
    given = {"q": int(d["q"]), "dims": [int(x) for x in d["dims"]],
             "eff_dims": [int(x) for x in d["eff_dims"]]}
    derived = graph_to_dict(g)
    stale = [f"{k} = {v}, but dims[0] and active_sets give {derived[k]}"
             for k, v in given.items() if v != derived[k]]
    if stale:
        raise ValidationError("invalid graph: " + "; ".join(stale))
    return g


def structure_to_dict(eta: CompositionStructure) -> dict:
    d = graph_to_dict(eta.graph)
    d["betas"] = list(eta.betas)
    d["beta_bounds"] = list(eta.bounds)
    return d


@functools.lru_cache(maxsize=1024, typed=True)  # typed: [1] and [1.0] differ in JSON
def _json_list(*values) -> str:
    return json.dumps(list(values))


def structure_to_json(eta: CompositionStructure) -> str:
    """json.dumps(structure_to_dict(eta), sort_keys=True), from its graph's JSON,
    built once per graph, and its betas' and bounds' lists, built once per tuple."""
    head, tail = eta.graph._json
    return (f'{head}"beta_bounds": {_json_list(*eta.bounds)}, '
            f'"betas": {_json_list(*eta.betas)}, {tail}')


def structure_from_dict(d: dict) -> CompositionStructure:
    return CompositionStructure(
        graph=graph_from_dict(d),
        betas=tuple(float(b) for b in d["betas"]),
        bounds=tuple(float(b) for b in d["beta_bounds"]),
    )

