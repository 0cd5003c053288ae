import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepgp_lab import rates, structure
from deepgp_lab.errors import SpaceTooLargeError, ValidationError


def fig2_graph():
    # q=1, d=(5,3,1): three layer-0 components reading {1,3,4},{1,4,5},{2},
    # one layer-1 component reading all three intermediate outputs
    return structure.make_graph(1, (5, 3, 1),
                                [[(1, 3, 4), (1, 4, 5), (2,)], [(1, 2, 3)]])


class TestValidation:
    def test_wide_graph_is_valid(self):
        g = fig2_graph()
        assert g.eff_dims == (3, 3, 1)
        structure.validate_graph(g)

    def test_minimal_graph(self):
        g = structure.make_graph(0, (1, 1), [[(1,)]])
        structure.validate_graph(g)
        assert g.num_nodes == 2

    def test_wrong_eff_dim_reported(self):
        g = fig2_graph()
        bad = structure.CompositionGraph(q=g.q, dims=g.dims, eff_dims=(2, 3, 1),
                                         active_sets=g.active_sets)
        with pytest.raises(ValidationError, match="invalid graph: .*t_0"):
            structure.validate_graph(bad)

    def test_empty_active_set_reported(self):
        g = structure.CompositionGraph(q=0, dims=(1, 1), eff_dims=(0, 1),
                                       active_sets=(((),),))
        with pytest.raises(ValidationError, match="invalid graph: S_01 is empty"):
            structure.validate_graph(g)


class TestEnumeration:
    def test_single_structure(self):
        space = structure.StructureSpace(input_dim=1, max_q=0, max_width=1)
        out = structure.enumerate_structures(space, (1.0,))
        assert len(out) == 1

    def test_chain_count(self):
        # q=0 gives 2 structures (two betas), q=1 gives 4 (beta pairs)
        space = structure.StructureSpace(input_dim=1, max_q=1, max_width=1)
        out = structure.enumerate_structures(space, (0.5, 1.0))
        assert len(out) == 6

    def test_node_cap_empties_space(self):
        space = structure.StructureSpace(input_dim=2, max_q=0, max_width=1,
                                         max_nodes=2)
        assert structure.enumerate_structures(space, (1.0,)) == []

    def test_all_enumerated_validate(self):
        space = structure.StructureSpace(input_dim=2, max_q=1, max_width=2)
        out = structure.enumerate_structures(space, (0.5, 1.0))
        assert out
        for eta in out:
            structure.validate_graph(eta.graph)

    def test_count_limit(self):
        space = structure.StructureSpace(input_dim=3, max_q=2, max_width=3)
        with pytest.raises(SpaceTooLargeError):
            structure.enumerate_structures(space, (0.5, 1.0), count_limit=10)

    def test_horizon_keeps_deep_space_enumerable(self):
        # structures past the penalty horizon are skipped, not counted: without
        # the skip this space exceeds the default count limit
        space = structure.StructureSpace(input_dim=2, max_q=3, max_width=3)
        out = structure.enumerate_structures(space, (0.5, 0.75, 1.0))
        assert len(out) == 3276
        assert max(eta.graph.num_nodes for eta in out) == structure.PENALTY_HORIZON

    def test_deterministic_order(self):
        space = structure.StructureSpace(input_dim=2, max_q=1, max_width=2)
        a = structure.enumerate_structures(space, (0.5, 1.0))
        b = structure.enumerate_structures(space, (0.5, 1.0))
        assert a == b


class TestReduction:
    def test_basic_collapse(self):
        g = structure.make_graph(1, (1, 1, 1), [[(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.5, 0.5),
                                             bounds=(0.2, 1.0))
        res = structure.reduce_redundant(eta)
        assert res.graph.q == 0
        np.testing.assert_allclose(res.betas, (0.25,))

    def test_q0_unchanged(self):
        g = structure.make_graph(0, (1, 1), [[(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.7,), bounds=(0.2, 1.0))
        res = structure.reduce_redundant(eta)
        assert res == eta

    def test_three_layer_collapse(self):
        # t=(3,1,1,1): the last two layers merge, beta 0.8*0.5 = 0.4
        g = structure.make_graph(
            2, (3, 1, 1, 1), [[(1, 2, 3)], [(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.5, 0.8, 0.5),
                                             bounds=(0.2, 1.0))
        res = structure.reduce_redundant(eta)
        assert res.graph.q == 1
        assert res.graph.eff_dims == (3, 1, 1)
        np.testing.assert_allclose(res.betas, (0.5, 0.4))
        for n in (10**3, 10**6):
            np.testing.assert_allclose(rates.minimax_rate(eta, n).value,
                                       rates.minimax_rate(res, n).value,
                                       rtol=1e-13)

    def test_not_applicable_above_one(self):
        g = structure.make_graph(1, (1, 1, 1), [[(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(1.5, 0.5),
                                             bounds=(0.2, 2.0))
        assert structure.reduce_redundant(eta) == eta

    def test_idempotent(self):
        g = structure.make_graph(
            2, (3, 1, 1, 1), [[(1, 2, 3)], [(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.5, 0.8, 0.5),
                                             bounds=(0.2, 1.0))
        once = structure.reduce_redundant(eta)
        twice = structure.reduce_redundant(once)
        assert once == twice


class TestSerialization:
    def test_round_trip(self):
        eta = structure.CompositionStructure(
            graph=fig2_graph(), betas=(0.5, 0.9), bounds=(0.3, 1.0))
        text = json.dumps(structure.structure_to_dict(eta), sort_keys=True)
        back = structure.structure_from_dict(json.loads(text))
        assert back == eta

    def test_invalid_graph_rejected(self):
        d = structure.structure_to_dict(structure.CompositionStructure(
            graph=fig2_graph(), betas=(0.5, 0.9), bounds=(0.3, 1.0)))
        d["eff_dims"] = [1, 3, 1]
        with pytest.raises(ValidationError):
            structure.structure_from_dict(d)


@settings(max_examples=50, deadline=None)
@given(q=st.integers(0, 2), widths=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_node_count_matches_dims(q, widths):
    dims = tuple(widths[: q + 1]) + (1,)
    sets = [[tuple(range(1, dims[i] + 1))] * dims[i + 1] for i in range(q + 1)]
    g = structure.make_graph(q, dims, sets)
    assert g.num_nodes == 1 + sum(dims[: q + 1])
