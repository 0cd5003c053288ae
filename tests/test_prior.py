import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from deepgp_lab import funcspace, gp, prior, rates, structure
from deepgp_lab.errors import ValidationError


def make_spec(**kw):
    base = dict(
        space=structure.StructureSpace(input_dim=1, max_q=1, max_width=1),
        profile=rates.RateProfile(family=rates.WAVELET),
        n=200,
        beta_grid=(0.6, 1.0),
    )
    base.update(kw)
    return prior.StructurePriorSpec(**base)


def five_input_spec():
    """Wavelet at n 3,200 on five inputs with q = 0: every structure has |d|_1 = 6."""
    return make_spec(space=structure.StructureSpace(input_dim=5, max_q=0, max_width=1,
                                                    beta_bounds=(0.5, 1.0)),
                     n=3200, beta_grid=(0.5, 1.0))


@st.composite
def depth_specs(draw):
    """A spec of any family whose space reaches depth 1 or 2: d_0 1-3 (at most 2
    for the grid families), max_q and max_width 1-2, a beta grid of 1-3 values
    within random bounds, n from 3 to 1e6 and profile constants from 1e-3 to 10."""
    family = draw(st.sampled_from(rates.FAMILIES))
    lo, top = (0.2, 0.95) if family == rates.FBM else (0.2, 2.0)
    lo = draw(st.floats(lo, top))
    hi = draw(st.floats(lo, top))
    grid = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3, unique=True))
    constants = {name: draw(st.floats(1e-3, 10.0))
                 for name in sorted(rates.RateProfile._fields) if name != "family"}
    space = structure.StructureSpace(
        input_dim=draw(st.integers(1, 3 if family == rates.WAVELET else 2)),
        max_q=draw(st.integers(1, 2)), max_width=draw(st.integers(1, 2)),
        beta_bounds=(lo, hi))
    try:
        return make_spec(space=space, profile=rates.RateProfile(family=family, **constants),
                         n=draw(st.integers(3, 10**6)), beta_grid=tuple(grid))
    except ValidationError:  # a limit K or penalty past double precision
        assume(False)


def assert_only_depth_zero_has_mass(spec):
    """Every structure of depth >= 1 weighs exactly 0.0, and some one-layer
    structure more: the one-layer structure that reads the same t_0 inputs at the
    same beta_0 has no larger rate term, and a size term smaller by at least
    e^{e^{d_0 + 2}} - e^{e^{d_0 + 1}} >= 5.3e8 nats."""
    weights = [(eta.graph.q, math.exp(w.log_value))
               for eta, w in prior.structure_prior_weights(spec)]
    assert any(q >= 1 for q, _ in weights)
    assert all(p == 0.0 for q, p in weights if q >= 1)
    assert any(p > 0.0 for q, p in weights if q == 0)


def fig2_structure():
    g = structure.CompositionGraph(5, [[(1, 3, 4), (1, 4, 5), (2,)], [(1, 2, 3)]])
    return structure.CompositionStructure(graph=g, betas=(1.0, 1.0),
                                          bounds=(0.3, 1.0))


class TestStructurePrior:
    def test_normalization(self):
        weighted = prior.structure_prior_weights(make_spec())
        total = sum(math.exp(w.log_value) for _, w in weighted if w.log_value > -math.inf)
        assert abs(total - 1.0) < 1e-12

    def test_single_structure_gets_unit_mass(self):
        spec = make_spec(space=structure.StructureSpace(input_dim=1, max_q=0,
                                                        max_width=1),
                         beta_grid=(1.0,))
        weighted = prior.structure_prior_weights(spec)
        assert len(weighted) == 1
        assert abs(weighted[0][1].log_value) < 1e-12

    def test_penalty_orders_equal_gamma_structures(self):
        # same graph, different beta: the faster-rate structure gets more mass,
        # and the log-ratio is exactly n (eps_1^2 - eps_2^2)
        spec = make_spec(space=structure.StructureSpace(input_dim=1, max_q=0,
                                                        max_width=1),
                         beta_grid=(0.6, 1.0))
        weighted = prior.structure_prior_weights(spec)
        by_beta = {eta.betas[0]: w.log_value for eta, w in weighted}
        assert by_beta[1.0] > by_beta[0.6]
        e1 = rates.eps_structure(weighted[0][0], spec.profile, spec.n)
        e2 = rates.eps_structure(weighted[1][0], spec.profile, spec.n)
        diff = weighted[0][1].log_value - weighted[1][1].log_value
        np.testing.assert_allclose(diff, -spec.n * (e1**2 - e2**2), rtol=1e-9)

    def test_rate_term_outweighs_gamma_at_five_inputs(self):
        # every structure has |d|_1 = 6, so a size term e^{e^6} ~ 1.6e175 that
        # took the rate term into its rounding would leave gamma to spread the
        # mass over t = 1..5; the rate puts it all on t = 1
        weighted = prior.structure_prior_weights(five_input_spec())
        mass = {}
        for eta, w in weighted:
            t = eta.graph.eff_dims[0]
            mass[t] = mass.get(t, 0.0) + math.exp(w.log_value)
        assert sorted(mass) == [1, 2, 3, 4, 5]
        assert mass[1] == pytest.approx(1.0, rel=1e-12)
        assert all(mass[t] == 0.0 for t in range(2, 6))

    def test_equal_gamma_and_size_differ_by_the_rate_at_five_inputs(self):
        spec = five_input_spec()
        weighted = prior.structure_prior_weights(spec)
        by_beta = {eta.betas[0]: (eta, w.log_value) for eta, w in weighted
                   if eta.graph.active_sets == (((1,),),)}
        (e1, w1), (e2, w2) = by_beta[0.5], by_beta[1.0]
        assert prior.gamma_log(e1, spec) == prior.gamma_log(e2, spec)
        eps1 = rates.eps_structure(e1, spec.profile, spec.n)
        eps2 = rates.eps_structure(e2, spec.profile, spec.n)
        np.testing.assert_allclose(w1 - w2, -spec.n * (eps1**2 - eps2**2), rtol=1e-9)

    @pytest.mark.parametrize("kw", [
        dict(space=structure.StructureSpace(input_dim=1, max_q=1, max_width=1,
                                            beta_bounds=(0.5, 2.0)),
             n=3200, beta_grid=(1.0, 1.5)),
        {}])  # make_spec's space keeps the library's default bounds (0.1, 10.0)
    def test_size_term_outweighs_a_large_rate_term(self, kw):
        # wide beta bounds give n eps^2 ~ 1e27, past which a sum with the size
        # term would round away the gap e^{e^3} - e^{e^2} ~ 5.3e8 nats between
        # depth 1 and depth 0
        spec = make_spec(**kw)
        weighted = prior.structure_prior_weights(spec)
        assert spec.n * rates.eps_structure(weighted[0][0], spec.profile, spec.n) ** 2 > 1e20
        assert_only_depth_zero_has_mass(spec)

    @settings(max_examples=300, deadline=None)
    @given(depth_specs())
    def test_depth_never_carries_mass(self, spec):
        assert_only_depth_zero_has_mass(spec)

    def test_oversized_structures_carry_zero(self):
        # the space reaches |d|_1 = 8, but only structures with mass are listed
        spec = make_spec(space=structure.StructureSpace(input_dim=1, max_q=2,
                                                        max_width=3),
                         beta_grid=(1.0,))
        weighted = prior.structure_prior_weights(spec)
        sizes = {eta.graph.num_nodes for eta, _ in weighted}
        assert max(sizes) == structure.PENALTY_HORIZON == 6
        # a structure past the horizon, passed directly, still weighs exactly zero
        g = structure.CompositionGraph(1, [[(1,)] * 3, [(1, 2, 3)] * 3, [(1, 2, 3)]])
        eta = structure.CompositionStructure(graph=g, betas=(1.0,) * 3,
                                             bounds=(0.3, 1.0))
        assert g.num_nodes == 8
        assert rates.psi_n(eta, spec.profile, spec.n).log_value == -math.inf

    def test_all_zero_raises(self):
        # a space in which no structure has prior mass is refused when the spec is built
        with pytest.raises(ValidationError, match=r"no admissible structure in the space with "
                           r"\|d\|_1 <= 6 \(larger structures carry no prior mass\)$"):
            make_spec(space=structure.StructureSpace(input_dim=8, max_q=0, max_width=1),
                      beta_grid=(1.0,))

    def test_no_mass_names_max_nodes_when_it_binds(self):
        # the smallest structure has |d|_1 = input_dim + 1 = 4: past max_nodes, within 6
        with pytest.raises(ValidationError, match=r"no admissible structure in the space with "
                           r"\|d\|_1 <= 3 \(space.max_nodes = 3\)$"):
            make_spec(space=structure.StructureSpace(input_dim=3, max_q=1, max_width=2,
                                                     max_nodes=3),
                      beta_grid=(1.0,))

    def test_empty_beta_grid_refused(self):
        with pytest.raises(ValidationError, match="beta_grid must be nonempty"):
            make_spec(beta_grid=())

    def test_sampling_frequencies(self):
        spec = make_spec()
        weighted = prior.structure_prior_weights(spec)
        p = np.exp([w.log_value for _, w in weighted])
        counts = np.zeros(len(weighted))
        m = 3000
        for s in range(m):
            eta = prior.sample_structure(spec, s)
            counts[[w[0] for w in weighted].index(eta)] += 1
        for k in range(len(weighted)):
            se = math.sqrt(max(p[k] * (1 - p[k]) / m, 1e-12))
            assert abs(counts[k] / m - p[k]) <= 4 * se + 1e-9

    def test_a_table_ending_below_one_draws_no_weight_zero_structure(self):
        # six standard-normal log weights and one of -5e8, normalized: the
        # table ends at 1 - 2^-53, which the largest u below 1 reaches
        logs = np.append(np.random.default_rng(0).standard_normal(6), -5e8)
        weighted = [(k, rates.LogWeight(float(lw)))
                    for k, lw in enumerate(logs - prior._logsumexp(logs))]
        cum = prior._cumulative(weighted)
        u = np.nextafter(1.0, 0.0)
        assert cum[-1] <= u and math.exp(weighted[-1][1].log_value) == 0.0
        assert prior._draw(cum, u) == 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(-math.inf), st.floats(-800.0, 5.0)), min_size=1,
                    max_size=12).filter(lambda logs: max(logs) > -700.0),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_draws_only_structures_of_positive_weight(self, logs, u):
        cum = prior._cumulative([(k, rates.LogWeight(lw)) for k, lw in enumerate(logs)])
        top = np.nextafter(1.0, 0.0)
        for v in (u, 0.0, top, *(min(c / cum[-1], top) for c in cum)):
            assert math.exp(logs[prior._draw(cum, v)]) > 0.0

    def test_an_integer_grid_lists_what_its_floats_list(self):
        # equal specs share a cache entry, so whichever is weighed first, both
        # list the same structures, down to their JSON
        def listed(seq):
            prior.structure_prior_weights.cache_clear()
            space = structure.StructureSpace(input_dim=1, max_q=0, max_width=1,
                                             beta_bounds=seq((1, 2)))
            spec = make_spec(space=space, beta_grid=seq((1, 2)))
            return [structure.structure_to_json(eta)
                    for eta, _ in prior.structure_prior_weights(spec)]

        assert listed(tuple) == listed(lambda ints: tuple(map(float, ints)))

    def test_draws_of_one_spec_weigh_it_once(self, monkeypatch):
        spec = make_spec()
        prior.structure_prior_weights.cache_clear()
        prior._structure_table.cache_clear()
        calls = {"enumerate_structures": 0, "_cumulative": 0}

        def counting(name):
            real = getattr(prior, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(prior, name, counting(name))
        for s in range(20):
            prior.sample_prior(spec, s)
        assert calls == {"enumerate_structures": 1, "_cumulative": 1}


def test_logsumexp_has_scipys_bits():
    rng = np.random.default_rng(7)
    arrays = [np.array([0.5]), np.full(4, -3.0), np.array([1e308, 1e308]),
              -np.arange(1, 8) * math.log(2.0)]
    for _ in range(2000):
        a = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.integers(-3, 10)
        if rng.random() < 0.5:  # ties at the maximum
            a[rng.integers(0, len(a), size=int(rng.integers(1, len(a) + 1)))] = a.max()
        arrays.append(np.round(a) if rng.random() < 0.2 else a)
    for a in arrays:
        assert prior._logsumexp(a) == logsumexp(a), a


def per_structure_weights(spec):
    """The reference for structure_prior_weights: Psi_n's two terms and gamma_log
    for each structure, each term shifted by its minimum, then normalized."""
    structures = structure.enumerate_structures(spec.space, spec.beta_grid)
    eps = [rates.eps_structure(eta, spec.profile, spec.n) for eta in structures]
    rate = [spec.n * e * e for e in eps]
    size = [math.exp(math.exp(eta.graph.num_nodes)) for eta in structures]
    logs = np.array([-(r - min(rate)) - (s - min(size)) + prior.gamma_log(eta, spec)
                     for eta, r, s in zip(structures, rate, size)])
    return structures, logs - prior._logsumexp(logs)


def d2_spec(family):
    """A 2-D space with q <= 2, in which many structures share a rate signature."""
    return make_spec(space=structure.StructureSpace(input_dim=2, max_q=2, max_width=2,
                                                    beta_bounds=(0.5, 1.0)),
                     profile=rates.RateProfile(family=family),
                     beta_grid=(0.5, 0.8) if family == rates.FBM else (0.5, 0.75, 1.0))


class TestGroupedWeights:
    """structure_prior_weights computes psi_n once per rate signature and
    gamma_log once per (q, d, t); every weight keeps the per-structure bits."""

    @pytest.mark.parametrize("family", rates.FAMILIES)
    def test_bits_match_the_per_structure_weights(self, family):
        spec = d2_spec(family)
        weighted = prior.structure_prior_weights(spec)
        structures, logs = per_structure_weights(spec)
        assert [eta for eta, _ in weighted] == structures
        got = np.array([w.log_value for _, w in weighted])
        assert got.tobytes() == logs.tobytes()
        # some signatures differ only in |d|_1 and some only in t, so a key
        # that drops either field gives a structure another's penalty
        sizes, ts = {}, {}
        for eta in structures:
            t, size = eta.graph.eff_dims[:eta.graph.q + 1], eta.graph.num_nodes
            sizes.setdefault((eta.betas, t), set()).add(size)
            ts.setdefault((eta.betas, size), set()).add(t)
        assert max(map(len, sizes.values())) > 1 and max(map(len, ts.values())) > 1

    def test_eps_structure_floor_still_surfaces(self, monkeypatch):
        monkeypatch.setattr(rates, "_CTILDE_SAFETY", 0.5)
        # the weights read _CTILDE_SAFETY, so a spec weighed before is weighed again
        rates._ctilde.cache_clear()
        prior.structure_prior_weights.cache_clear()
        try:
            with pytest.raises(ValidationError, match="fell below the per-layer maximum"):
                prior.structure_prior_weights(d2_spec(rates.WAVELET))
        finally:
            rates._ctilde.cache_clear()


class TestGammaFactors:
    def test_set_counting(self):
        # d_in=2, d_out=1: 3 nonempty subsets, 2 of size <= 1
        assert prior._count_sets_with_max(1, 2, 1) == 2
        assert prior._count_sets_with_max(2, 2, 1) == 1
        # d_out=2: 3^2 - 2^2 = 5 configurations with max size 2
        assert prior._count_sets_with_max(2, 2, 2) == 5

    def test_gamma_is_a_distribution_over_sets(self):
        # summing the S|t factor over t recovers the full subset count
        d_in, d_out = 3, 2
        total = sum(prior._count_sets_with_max(t, d_in, d_out)
                    for t in range(1, d_in + 1))
        assert total == 7 ** d_out  # (2^3 - 1)^d_out


class TestDgpDraw:
    def test_fig2_node_count(self):
        spec = make_spec(space=structure.StructureSpace(input_dim=5, max_q=1,
                                                        max_width=3),
                         beta_grid=(1.0,), n=50)
        draw = prior.sample_dgp(fig2_structure(), spec, seed=0)
        assert len(draw.stats) == 4  # 3 + 1 conditioned paths
        assert draw.layers[0].in_dim == 5

    def test_range_contained(self):
        spec = make_spec(space=structure.StructureSpace(input_dim=1, max_q=1,
                                                        max_width=1),
                         beta_grid=(1.0,), n=200)
        pts = np.linspace(-1, 1, 101)[:, None]
        for s in range(30):
            draw = prior.sample_prior(spec, s)
            vals = draw(pts)
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_lists_draw_what_tuples_draw(self):
        # the fields that key the weights' and node laws' caches are kept as tuples
        def spec(seq):
            return make_spec(space=structure.StructureSpace(
                input_dim=1, max_q=1, max_width=1, beta_bounds=seq((0.5, 1.0))),
                beta_grid=seq((1.0, 0.6)))

        def eta(seq):
            return structure.CompositionStructure(graph=structure.CompositionGraph(1, [[(1,)]]),
                                                  betas=seq((0.6,)), bounds=seq((0.5, 1.0)))

        pts = np.linspace(-1, 1, 33)[:, None]
        drawn, tupled = prior.sample_prior(spec(list), 3), prior.sample_prior(spec(tuple), 3)
        assert drawn.structure == tupled.structure
        np.testing.assert_array_equal(drawn(pts), tupled(pts))
        np.testing.assert_array_equal(prior.sample_dgp(eta(list), spec(list), 3)(pts),
                                      prior.sample_dgp(eta(tuple), spec(tuple), 3)(pts))

    def test_determinism(self):
        spec = make_spec()
        pts = np.linspace(-1, 1, 33)[:, None]
        a = prior.sample_prior(spec, 7)(pts)
        b = prior.sample_prior(spec, 7)(pts)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        spec = make_spec()
        pts = np.linspace(-1, 1, 33)[:, None]
        a = prior.sample_prior(spec, 7)(pts)
        b = prior.sample_prior(spec, 8)(pts)
        assert not np.array_equal(a, b)

    def test_node_independence(self):
        # the two paths of a two-layer chain are independent: correlation of
        # their evaluations at a fixed point is ~0 across seeds
        g = structure.CompositionGraph(1, [[(1,)], [(1,)]])
        eta = structure.CompositionStructure(graph=g, betas=(1.0, 1.0),
                                             bounds=(0.3, 1.0))
        spec = make_spec(n=50)
        pt = np.array([[0.35]])
        a, b = [], []
        for s in range(1200):
            draw = prior.sample_dgp(eta, spec, seed=s)
            a.append(float(draw.layers[0](pt)[0, 0]))
            b.append(float(draw.layers[1](pt)[0, 0]))
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.06  # ~2 standard errors at 1200 draws

    @pytest.mark.parametrize("family, betas", [(rates.STATIONARY, (1.0, 1.0)),
                                               (rates.FBM, (0.5, 0.8))])
    def test_keyed_draws_do_not_depend_on_the_block_schedule(self, monkeypatch, family,
                                                             betas):
        # each node reads its own keyed stream, so where its blocks end moves no bit
        g = structure.CompositionGraph(1, [[(1,), (1,)], [(1, 2)]])
        eta = structure.CompositionStructure(graph=g, betas=betas, bounds=(0.3, 1.0))
        spec = make_spec(profile=rates.RateProfile(family=family), n=200,
                         space=structure.StructureSpace(input_dim=1, max_q=1, max_width=2),
                         beta_grid=tuple(sorted(set(betas))))

        def draws():
            out = []
            for seed in range(3):
                d = prior.sample_dgp(eta, spec, seed)
                out.append((d.stats, [p.values.tobytes() for layer in d.layers
                                      for p, _ in layer.components]))
            return out

        want = draws()
        assert max(n for stats, _ in want for n in stats.values()) > 3  # blocks differ
        monkeypatch.setattr(gp, "_BLOCK_CAP", 1)
        assert draws() == want


class TestConditioningSpecs:
    @staticmethod
    def fbm_spec(n):
        return make_spec(profile=rates.RateProfile(family=rates.FBM),
                         space=structure.StructureSpace(input_dim=2, max_q=1,
                                                        max_width=2),
                         beta_grid=(0.8,), n=n)

    @staticmethod
    def fbm_structure():
        g = structure.CompositionGraph(2, [[(1, 2), (2,)], [(1, 2)]])
        return structure.CompositionStructure(graph=g, betas=(0.8, 0.8),
                                              bounds=(0.3, 0.9))

    @staticmethod
    def limit(family, beta, r, n):
        return prior.conditioning_limit(gp.GpSpec(family=family, beta=beta, r=r, n=n),
                                        rates.RateProfile(family=family))

    def fbm_layer_limit(self, n):
        # the last layer of fbm_structure: beta 0.8 on 2 variables, alpha = 1
        return self.limit(rates.FBM, 0.8, 2, n)

    def test_wavelet_radius(self):
        K = self.limit(rates.WAVELET, 1.0, 3, 200)
        np.testing.assert_allclose(K, 3.0 * math.sqrt(2 * math.log(2)))

    def test_wavelet_limit_does_not_depend_on_n(self):
        assert self.limit(rates.WAVELET, 1.0, 3, 200) == self.limit(rates.WAVELET, 1.0, 3, 20000)

    def test_holder_mode_for_grid_family(self):
        # a grid family's layer is a GridPath, so its set is judged by the Holder norm
        K = self.fbm_layer_limit(200)
        assert K >= rates.RateProfile(family=rates.FBM).holder_radius
        draw = gp.sample_path(gp.GpSpec(family=rates.FBM, beta=0.8, r=2, n=200), gp.rng_for(0))
        assert isinstance(draw, funcspace.GridPath)
        # scaled into the sup ball: a path with sup > 1 is rejected before any norm
        sup = float(np.max(np.abs(draw.values)))
        path = funcspace.GridPath(draw.values * (0.5 / sup))
        # at n = 3,200 the limit is below the most the Holder norm can be on this
        # grid, so the norm is computed; at n = 200 it is above, so the sup decides
        ceiling = funcspace._holder_ceiling(path.values.shape, 0.8)
        K_bind = self.fbm_layer_limit(3200)
        assert K_bind < ceiling <= K
        _, diag = funcspace.in_conditioning_set(path, 0.8, K_bind)
        np.testing.assert_allclose(diag["sup"], 0.5)
        assert "holder" in diag and "besov" not in diag
        np.testing.assert_allclose(diag["holder_margin"], K_bind - diag["holder"])
        ok, diag = funcspace.in_conditioning_set(path, 0.8, K)
        assert ok and set(diag) == {"sup", "sup_margin"}

    def test_slack_shrinks_with_n(self):
        # a grid family's Holder limit is holder_radius plus a slack that falls with n
        lo, hi = self.fbm_layer_limit(200), self.fbm_layer_limit(20000)
        assert lo > hi > rates.RateProfile(family=rates.FBM).holder_radius

    def test_nodes_follow_the_node_law(self):
        # layer i's nodes are paths with beta_i on t_i variables, whose limit is
        # conditioning_limit of that law at the layer's alpha; layer 0 has
        # alpha = min(beta_1, 1) = 0.8, so its slack differs from alpha = 1
        spec, eta = self.fbm_spec(200), self.fbm_structure()
        laws, alphas = prior._node_laws(eta, spec), rates.alpha_exponents(eta.betas)
        assert len(laws) == eta.graph.q + 1
        for i, (gp_spec, K) in enumerate(laws):
            assert (gp_spec.beta, gp_spec.r) == (eta.betas[i], eta.graph.eff_dims[i])
            assert K == prior.conditioning_limit(gp_spec, spec.profile, alphas[i])
        (spec0, K0), _ = laws
        assert K0 != prior.conditioning_limit(spec0, spec.profile)

    @pytest.mark.parametrize("grid", [20, 17])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("family, beta", [
        (rates.WAVELET, 1.0), (rates.FBM, 0.8), (rates.STATIONARY, 1.0)])
    def test_no_check_interpolates(self, monkeypatch, family, beta, r, grid):
        # a check reads the values on the grid they live on.  The budget is raised:
        # stationary r = 2 accepts about 0.3 % of attempts here, so 1,000 can run out
        def interpolate(path, points):
            raise AssertionError("a conditioning check interpolated a path")

        spec = gp.GpSpec(family=family, beta=beta, r=r, n=500, grid=grid)
        K = prior.conditioning_limit(spec, rates.RateProfile(family=family))
        monkeypatch.setattr(funcspace.GridPath, "__call__", interpolate)
        _, path, _ = gp.sample_conditioned(spec, K, gp.rng_for(0, (1,)), max_attempts=10**4)
        assert path.values.shape == (gp.value_grid(spec),) * r


class TestFiniteRates:
    # a profile whose constants overflow a limit K or the penalty Psi_n is
    # refused when the spec is built, and the error names the fields to blame
    def test_fields_to_blame_together(self):
        # c1' = spectral_c + spectral_d: resetting either alone leaves it at 1e300
        profile = rates.RateProfile(family=rates.STATIONARY, spectral_c=1e300, spectral_d=1e300)
        with pytest.raises(ValidationError, match=r"limit K .* profile.spectral_c = 1e\+300, "
                                                  r"profile.spectral_d = 1e\+300"):
            make_spec(profile=profile)

    def test_an_innocent_field_is_not_named(self):
        # a wavelet space reads spectral_d nowhere; holder_radius sets the entropy floor
        profile = rates.RateProfile(family=rates.WAVELET, holder_radius=1e300, spectral_d=2.0)
        with pytest.raises(ValidationError, match="penalty Psi_n") as info:
            make_spec(profile=profile)
        assert str(info.value).endswith("with profile.holder_radius = 1e+300")

    @pytest.mark.parametrize("max_q, refused", [(1, False), (2, True)])
    def test_limit_at_the_smallest_alpha(self, max_q, refused):
        # K ~ eps^{1/alpha} with eps ~ 1e80: a layer under two layers of beta 0.5
        # has alpha 1/4, and 1e320 overflows, though K at alpha 1 and 1/2 does not
        def build():
            return make_spec(space=structure.StructureSpace(input_dim=1, max_q=max_q, max_width=1),
                             profile=rates.RateProfile(family=rates.STATIONARY, spectral_c=1e40),
                             beta_grid=(0.5, 1.0))

        if refused:
            with pytest.raises(ValidationError, match=r"limit K .* profile.spectral_c = 1e\+40"):
                build()
        else:
            build()


class TestFamilyCapabilities:
    @pytest.mark.parametrize("beta_grid", [(1.0,), (0.5, 1.0), (0.5, 1.5)])
    def test_fbm_beta_grid_outside_unit_interval(self, beta_grid):
        with pytest.raises(ValidationError, match="beta_grid"):
            make_spec(profile=rates.RateProfile(family=rates.FBM), beta_grid=beta_grid)

    @pytest.mark.parametrize("family", [rates.FBM, rates.STATIONARY])
    @pytest.mark.parametrize("space,field", [
        (dict(input_dim=3, max_q=0, max_width=1), "space.input_dim"),
        (dict(input_dim=1, max_q=1, max_width=3), "space.max_width"),
    ])
    def test_grid_family_dimension_cap(self, family, space, field):
        with pytest.raises(ValidationError, match=field):
            make_spec(profile=rates.RateProfile(family=family), beta_grid=(0.5,),
                      space=structure.StructureSpace(**space))

    @pytest.mark.parametrize("family", [rates.FBM, rates.STATIONARY])
    def test_grid_family_within_capabilities(self, family):
        # max_width is unused without hidden layers, so it does not count
        for space in (dict(input_dim=2, max_q=1, max_width=2),
                      dict(input_dim=2, max_q=0, max_width=3)):
            make_spec(profile=rates.RateProfile(family=family), beta_grid=(0.5, 0.9),
                      space=structure.StructureSpace(**space))

    @pytest.mark.parametrize("family, beta_grid, message", [
        pytest.param(rates.FBM, (1.0,),
                     "beta_grid [1.0], space.input_dim = 1: fBM requires beta in (0, 1)",
                     id="fbm"),
        pytest.param(rates.STATIONARY, (0.5, 2.5),
                     "beta_grid [0.5, 2.5], space.input_dim = 1: "
                     "beta = 2.5: a conditioned stationary path needs beta <= 2",
                     id="stationary"),
    ])
    def test_error_names_the_fields(self, family, beta_grid, message):
        # the spec asks the node law, and names the fields that led to its error
        with pytest.raises(ValidationError) as exc:
            make_spec(profile=rates.RateProfile(family=family), beta_grid=beta_grid)
        assert str(exc.value).startswith(message)

    def test_wavelet_is_not_capped(self):
        make_spec(space=structure.StructureSpace(input_dim=5, max_q=1, max_width=3),
                  beta_grid=(1.0, 2.0))
