import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepgp_lab import gp, inference, prior, rates, structure
from deepgp_lab.errors import SpaceTooLargeError, ValidationError


def fig2_graph():
    # q=1, d=(5,3,1): three layer-0 components reading {1,3,4},{1,4,5},{2},
    # one layer-1 component reading all three intermediate outputs
    return structure.CompositionGraph(5, [[(1, 3, 4), (1, 4, 5), (2,)], [(1, 2, 3)]])


class TestValidation:
    def test_wide_graph_is_valid(self):
        g = fig2_graph()
        assert (g.q, g.dims, g.eff_dims) == (1, (5, 3, 1), (3, 3, 1))
        assert g.num_nodes == 9

    def test_minimal_graph(self):
        g = structure.CompositionGraph(1, [[(1,)]])
        assert (g.q, g.dims, g.eff_dims) == (0, (1, 1), (1, 1))
        assert g.num_nodes == 2

    def test_wrong_eff_dim_reported(self):
        d = structure.graph_to_dict(fig2_graph())
        d["eff_dims"] = [2, 3, 1]
        with pytest.raises(ValidationError,
                           match=r"invalid graph: eff_dims = \[2, 3, 1\], but dims\[0\] and "
                                 r"active_sets give \[3, 3, 1\]$"):
            structure.graph_from_dict(d)

    def test_empty_active_set_reported(self):
        with pytest.raises(ValidationError, match="invalid graph: S_01 is empty$"):
            structure.CompositionGraph(1, [[()]])

    @pytest.mark.parametrize("input_dim, sets, message", [
        (0, [[(1,)]], "d_0 = 0 < 1; S_01 has index outside [1, d_0=0]: (1,)"),
        (1, [], "no layers"),
        (1, [[], [(1,)]], "layer 0 has no outputs; S_11 has index outside [1, d_1=0]: (1,)"),
        (1, [[(1,), (1,)]], "the last layer has 2 outputs, not 1"),
        (1, [[(1,)], []], "the last layer has 0 outputs, not 1; layer 1 has no outputs"),
        (2, [[(2, 1)]], "S_01 not sorted/deduplicated: (2, 1)"),
        (2, [[(1, 1)]], "S_01 not sorted/deduplicated: (1, 1)"),
        (1, [[(2,)]], "S_01 has index outside [1, d_0=1]: (2,)"),
        (2, [[(1,), (0, 2)], [(3,)]],
         "S_02 has index outside [1, d_0=2]: (0, 2); S_11 has index outside [1, d_1=2]: (3,)"),
        (2, [[(1,), ()], [(2, 1)]],
         "S_02 is empty; S_11 not sorted/deduplicated: (2, 1)"),
    ])
    def test_construction_lists_every_violation(self, input_dim, sets, message):
        with pytest.raises(ValidationError) as info:
            structure.CompositionGraph(input_dim, sets)
        assert str(info.value) == "invalid graph: " + message

    def test_derived_fields_take_no_part_in_equality(self):
        a = structure.CompositionGraph(2, [[(1, 2)], [(1,)]])
        b = structure.CompositionGraph(2, (((1, 2),), ((1,),)))
        assert a == b and hash(a) == hash(b)
        assert a != structure.CompositionGraph(3, [[(1, 2)], [(1,)]])
        assert list(a._fields) == ["input_dim", "active_sets"]

    # each builds its record anew, from lists where a field is coerced to a tuple
    RECORDS = {
        "GpSpec": lambda: gp.GpSpec(rates.STATIONARY, 1.0, 2, 100, grid=17),
        "RateProfile": lambda: rates.RateProfile(family=rates.FBM, fbm_rkhs=2.0),
        "CompositionGraph": lambda: structure.CompositionGraph(2, [[(1, 2)], [(1,)]]),
        "CompositionStructure": lambda: structure.CompositionStructure(
            structure.CompositionGraph(2, [[[1, 2]], [[1]]]), [1.0, 0.5], [0.5, 1.0]),
        "StructureSpace": lambda: structure.StructureSpace(2, 1, 2, beta_bounds=[0.5, 1]),
        "StructurePriorSpec": lambda: prior.StructurePriorSpec(
            structure.StructureSpace(1, 0, 1), rates.RateProfile(), 100, [1, 0.5]),
    }

    @pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
    def test_records_with_equal_fields_are_equal(self, build):
        # the caches key on these records: equal fields, equal records and hashes
        a, b = build(), build()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
        assert list(a._fields) == list(inspect.signature(type(a)).parameters)

    @pytest.mark.parametrize("record, kwargs, message", [
        (gp.GpSpec, dict(family=rates.WAVELET, beta=1.0, r=1.5, n=100),
         "r must be an integer, got 1.5"),
        (gp.GpSpec, dict(family=rates.WAVELET, beta=1.0, r=True, n=100),
         "r must be an integer, got True"),
        (gp.GpSpec, dict(family=rates.WAVELET, beta=1.0, r=1, n=100.5),
         "n must be an integer, got 100.5"),
        (gp.GpSpec, dict(family=rates.STATIONARY, beta=1.0, r=1, n=100, grid=33.5),
         "grid must be an integer, got 33.5"),
        (inference.PosteriorConfig, dict(iterations=2.5),
         "iterations must be an integer, got 2.5"),
        (inference.PosteriorConfig, dict(iterations=True),
         "iterations must be an integer, got True"),
        (prior.StructurePriorSpec, dict(space=structure.StructureSpace(1, 0, 1),
                                        profile=rates.RateProfile(), n=100.0),
         "n must be an integer, got 100.0"),
        (structure.StructureSpace, dict(input_dim=1.5, max_q=0, max_width=1),
         "input_dim must be an integer, got 1.5"),
        (structure.StructureSpace, dict(input_dim=1, max_q=0.5, max_width=1),
         "max_q must be an integer, got 0.5"),
        (structure.StructureSpace, dict(input_dim=1, max_q=0, max_width=1.5),
         "max_width must be an integer, got 1.5"),
        (structure.StructureSpace, dict(input_dim=1, max_q=0, max_width=1, max_nodes=16.5),
         "max_nodes must be an integer, got 16.5"),
    ], ids=["r", "r-bool", "n", "grid", "iterations", "iterations-bool", "prior-n", "input_dim",
            "max_q", "max_width", "max_nodes"])
    def test_integer_fields_are_checked_as_integers(self, record, kwargs, message):
        with pytest.raises(ValidationError) as info:
            record(**kwargs)
        assert str(info.value) == message

    def test_numpy_integers_are_integers(self):
        spec = gp.GpSpec(rates.WAVELET, 1.0, np.int64(1), np.int32(100), grid=np.uint8(33))
        assert spec == gp.GpSpec(rates.WAVELET, 1.0, 1, 100)
        assert [type(v) for v in spec[2:]] == [int, int, int]
        assert inference.PosteriorConfig(iterations=np.int64(5)).iterations == 5
        assert structure.StructureSpace(*np.ones(4, dtype=np.int16)) == (1, 1, 1, 1, (0.1, 10.0))

    @pytest.mark.parametrize("field, value, derived", [
        ("q", 0, "1"), ("dims", [5, 2, 1], "[5, 3, 1]"),
    ])
    def test_stored_field_must_be_derived(self, field, value, derived):
        d = structure.graph_to_dict(fig2_graph())
        d[field] = value
        with pytest.raises(ValidationError, match=rf"invalid graph: {field} = .*give "
                                                  rf"{re.escape(derived)}$"):
            structure.graph_from_dict(d)

    def test_every_differing_field_is_named(self):
        d = dict(structure.graph_to_dict(fig2_graph()), q=2, eff_dims=[1, 1, 1])
        with pytest.raises(ValidationError) as info:
            structure.graph_from_dict(d)
        assert str(info.value) == (
            "invalid graph: q = 2, but dims[0] and active_sets give 1; "
            "eff_dims = [1, 1, 1], but dims[0] and active_sets give [3, 3, 1]")


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

    def test_enumerated_graphs_round_trip(self):
        space = structure.StructureSpace(input_dim=3, max_q=2, max_width=2)
        graphs = {eta.graph for eta in structure.enumerate_structures(space, (1.0,))}
        # q 0: 7 sets; q 1: 7 at width 1 and 3 * 7**2 at width 2; q 2: 7 at widths (1, 1)
        assert len(graphs) == 168
        assert {g.q for g in graphs} == {0, 1, 2}
        for g in graphs:
            assert structure.graph_from_dict(structure.graph_to_dict(g)) == g

    def test_count_limit(self, monkeypatch):
        monkeypatch.setattr(structure, "_COUNT_LIMIT", 10)
        space = structure.StructureSpace(input_dim=3, max_q=2, max_width=3)
        with pytest.raises(SpaceTooLargeError, match="count limit 10"):
            structure.enumerate_structures(space, (0.5, 1.0))

    @pytest.mark.parametrize("space, reach", [
        (dict(input_dim=1, max_q=14, max_width=4), (4, 4)),
        (dict(input_dim=1, max_q=2, max_width=1000), (2, 4)),
        (dict(input_dim=2, max_q=3, max_width=3, max_nodes=5), (2, 2)),
        (dict(input_dim=5, max_q=1, max_width=1), (0, 0)),
        (dict(input_dim=8, max_q=1, max_width=1), (-3, -3)),
    ])
    def test_reach(self, space, reach):
        assert structure.StructureSpace(**space).reach == reach

    def test_walk_stops_at_the_horizon(self):
        # every structure with mass has q <= 4 and widths <= 4 at d_0 = 1, so a
        # deeper or wider space lists the same structures
        def listed(max_q, max_width):
            space = structure.StructureSpace(input_dim=1, max_q=max_q, max_width=max_width)
            return structure.enumerate_structures(space, (0.5, 1.0))

        base = listed(4, 4)
        assert max(eta.graph.q for eta in base) == 4
        assert max(max(eta.graph.dims) for eta in base) == 4
        assert listed(9, 4) == base
        assert listed(4, 40) == base

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
        g = structure.CompositionGraph(1, [[(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.5, 0.5),
                                             bounds=(0.2, 1.0))
        res = structure.reduce_redundant(eta)
        assert res.graph.q == 0
        np.testing.assert_allclose(res.betas, (0.25,))

    def test_q0_unchanged(self):
        g = structure.CompositionGraph(1, [[(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(0.7,), bounds=(0.2, 1.0))
        res = structure.reduce_redundant(eta)
        assert res == eta

    def test_three_layer_collapse(self):
        # t=(3,1,1,1): the last two layers merge, beta 0.8*0.5 = 0.4
        g = structure.CompositionGraph(3, [[(1, 2, 3)], [(1,)], [(1,)]])
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
        g = structure.CompositionGraph(1, [[(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(1.5, 0.5),
                                             bounds=(0.2, 2.0))
        assert structure.reduce_redundant(eta) == eta

    def test_idempotent(self):
        g = structure.CompositionGraph(3, [[(1, 2, 3)], [(1,)], [(1,)]])
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

    @pytest.mark.parametrize("space, beta_grid", [
        (structure.StructureSpace(1, 2, 2, beta_bounds=(0.5, 1.0)), (0.5, 1.0)),
        # the prior-space-d2 benchmark workload's space
        (structure.StructureSpace(2, 2, 2, beta_bounds=(0.5, 1.0)), (0.5, 0.75, 1.0)),
        (structure.StructureSpace(3, 1, 2, beta_bounds=(0.5, 1.0)), (0.6, 0.8, 1.0)),
    ], ids=["d1", "d2", "d3"])
    def test_json_is_the_sorted_dump_of_the_dict(self, space, beta_grid):
        for eta in structure.enumerate_structures(space, beta_grid):
            assert structure.structure_to_json(eta) == json.dumps(
                structure.structure_to_dict(eta), sort_keys=True)

    def test_json_keeps_each_numbers_type(self):
        # 1 and 1.0 are equal, and equal tuples of them share a hash, but not a JSON text
        g = structure.CompositionGraph(1, [[(1,)]])
        for betas, bounds in [((1,), (0.5, 1)), ((1.0,), (0.5, 1.0)), ((1,), (0.5, 1))]:
            eta = structure.CompositionStructure(graph=g, betas=betas, bounds=bounds)
            assert structure.structure_to_json(eta) == json.dumps(
                structure.structure_to_dict(eta), sort_keys=True)


@settings(max_examples=50, deadline=None)
@given(q=st.integers(0, 2), widths=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_node_count_matches_dims(q, widths):
    dims = tuple(widths[: q + 1]) + (1,)
    sets = [[tuple(range(1, dims[i] + 1))] * dims[i + 1] for i in range(q + 1)]
    g = structure.CompositionGraph(dims[0], sets)
    assert g.num_nodes == 1 + sum(dims[: q + 1])
