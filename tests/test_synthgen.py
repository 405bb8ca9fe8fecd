import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from coupled_labels import metrics
from coupled_labels.synthgen import (
    GenSpec,
    GenSpecError,
    PlantedEdge,
    bayes_marginal,
    default_spec,
    generate,
    load_spec,
    save_spec,
    spec_from_dict,
    topo_order,
)
from helpers import BAD_SPEC_PATCHES, GOOD_SPEC, identifiable_spec, reference_generate

# rows in one of the blocks `generate` draws and samples by, at 4 labels
BLOCK_ROWS = metrics._BLOCK_CELLS // 4


def small_spec(**kwargs):
    base = dict(n_examples=50, n_features=4, n_labels=3,
                planted_edges=(), noise_scale=0.5, seed=1)
    base.update(kwargs)
    return GenSpec(**base)


class TestSpecValidation:
    def test_cycle_rejected(self):
        with pytest.raises(GenSpecError):
            small_spec(planted_edges=(PlantedEdge(0, 1, 1.0), PlantedEdge(1, 0, 1.0)))

    def test_self_edge_rejected(self):
        with pytest.raises(GenSpecError):
            small_spec(planted_edges=(PlantedEdge(1, 1, 1.0),))

    def test_out_of_range_edge(self):
        with pytest.raises(GenSpecError):
            small_spec(planted_edges=(PlantedEdge(0, 5, 1.0),))

    @pytest.mark.parametrize("field,value", [(f, v) for f, v in BAD_SPEC_PATCHES
                                             if f != "planted_edges"])
    def test_bad_scalar_rejected_when_built(self, field, value):
        with pytest.raises(GenSpecError, match=rf"^invalid generator spec: {field}: must be"):
            small_spec(**{field: value})

    def test_chain_is_acyclic(self):
        spec = small_spec(planted_edges=(PlantedEdge(0, 1, 1.0), PlantedEdge(1, 2, 1.0)))
        order = topo_order(spec)
        assert order.index(0) < order.index(1) < order.index(2)

    def test_base_weights_shape_checked(self):
        with pytest.raises(GenSpecError):
            small_spec(base_weights=np.zeros((2, 2)))

    def test_given_weights_copied_not_frozen(self):
        q = np.zeros((4, 3))
        spec = small_spec(base_weights=q)
        assert q.flags.writeable and not spec.base_weights.flags.writeable
        q[0, 0] = 1.0
        assert spec.base_weights[0, 0] == 0.0

    def test_weights_drawn_from_seed(self):
        a = small_spec(seed=3).base_weights
        b = small_spec(seed=3).base_weights
        np.testing.assert_array_equal(a, b)
        c = small_spec(seed=4).base_weights
        assert not np.array_equal(a, c)


class TestGenerate:
    def test_deterministic(self):
        spec = default_spec(n_examples=300)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_dataset_shape_and_names(self):
        ds = generate(small_spec())
        assert ds.features.shape == (50, 4)
        assert ds.labels.shape == (50, 3)
        assert ds.label_names == ["y0", "y1", "y2"]

    def test_no_edges_orthogonal_weights_uncorrelated(self):
        # with orthogonal weight columns and shared Gaussian x the labels
        # are independent; empirical correlation stays below 0.02 at N=1e5
        d, l = 16, 8
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(d, l)))
        spec = GenSpec(n_examples=100_000, n_features=d, n_labels=l,
                       planted_edges=(), noise_scale=0.5, seed=5,
                       base_weights=q)
        ds = generate(spec)
        corr = np.corrcoef(ds.labels, rowvar=False)
        off = corr[~np.eye(l, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02

    def test_planted_edge_conditional_shift(self):
        # Monte-Carlo conditional-frequency oracle for (0 -> 1, beta=2)
        spec = GenSpec(n_examples=100_000, n_features=6, n_labels=3,
                       planted_edges=(PlantedEdge(0, 1, 2.0),),
                       noise_scale=1.0, seed=6)
        labels = generate(spec).labels
        given_pos = labels[labels[:, 0] == 1.0, 1].mean()
        given_neg = labels[labels[:, 0] == 0.0, 1].mean()
        assert given_pos - given_neg > 0.2

    def test_marginal_monotone_in_strength(self):
        for seed in (0, 1, 2):
            marginals = []
            for beta in (0.0, 1.0, 2.0, 4.0):
                spec = GenSpec(n_examples=100_000, n_features=6, n_labels=2,
                               planted_edges=(PlantedEdge(0, 1, beta),),
                               noise_scale=1.0, seed=seed)
                marginals.append(generate(spec).labels[:, 1].mean())
            assert all(a < b for a, b in zip(marginals, marginals[1:]))

    @pytest.mark.parametrize("noise_scale", [0.0, 0.7])
    @pytest.mark.parametrize("edges", [
        (),
        ((0, 1, 1.5), (1, 2, -2.0)),                    # a chain 0 -> 1 -> 2
        ((2, 1, 1.0), (0, 1, -0.5), (3, 2, 2.0)),       # label 1 has two parents
    ])
    @pytest.mark.parametrize("n", [1, 517, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   3 * BLOCK_ROWS + 5])
    def test_same_bits_as_separate_noise_array(self, n, noise_scale, edges):
        spec = GenSpec(n_examples=n, n_features=5, n_labels=4,
                       planted_edges=tuple(PlantedEdge(*e) for e in edges),
                       noise_scale=noise_scale, seed=8)
        got, want = generate(spec), reference_generate(spec)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.label_names == want.label_names

    def test_memory_peak_bounded(self):
        """x, the logits and the labels are alive at once, and the noise,
        the uniforms and the label pass are drawn and run by row block, so
        the traced peak stays within 4 (n, L) float64 matrices (whole-matrix
        noise and uniforms peaked at 4.75)."""
        spec = default_spec(n_examples=60_000)
        n, L = spec.n_examples, spec.n_labels
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * n * L * 8, peak / (n * L * 8)

    def test_default_spec_planted_targets_elevated(self):
        ds = generate(default_spec(n_examples=4000))
        rates = ds.labels.mean(axis=0)
        for src, tgt in ((0, 1), (2, 3), (4, 5)):
            assert rates[tgt] > rates[src] + 0.05


def _chain_and_fork_spec(noise_scale):
    """0 -> 1 -> 2 and label 3 with parents 0 and 2; label 4 has none."""
    return GenSpec(n_examples=10, n_features=3, n_labels=5,
                   planted_edges=(PlantedEdge(0, 1, 2.0), PlantedEdge(1, 2, -1.5),
                                  PlantedEdge(0, 3, 1.0), PlantedEdge(2, 3, 2.5)),
                   noise_scale=noise_scale, seed=4)


class TestBayesMarginal:
    @pytest.mark.parametrize("noise_scale", [0.0, 1.0])
    def test_matches_monte_carlo_at_fixed_x(self, noise_scale):
        # many draws of the noise and the parents at three fixed rows; each
        # estimate lies within 5 binomial standard errors
        spec = _chain_and_fork_spec(noise_scale)
        x = np.random.default_rng(1).normal(size=(3, 3))
        exact = bayes_marginal(spec, x)
        draws = 200_000
        rng = np.random.default_rng(2)
        for i in range(3):
            logits = (x[i] @ spec.base_weights
                      + rng.normal(0.0, noise_scale, size=(draws, spec.n_labels)))
            y = np.zeros((draws, spec.n_labels))
            for l in topo_order(spec):
                logit = logits[:, l].copy()
                for e in spec.planted_edges:
                    if e.target == l:
                        logit += e.strength * y[:, e.source]
                y[:, l] = rng.random(draws) < expit(logit)
            se = np.sqrt(exact[i] * (1 - exact[i]) / draws)
            assert np.all(np.abs(y.mean(axis=0) - exact[i]) <= 5 * se), (y.mean(axis=0), exact[i])

    def test_noise_integral_matches_quadrature(self):
        # a parent-free label at noise s is E sigmoid(u + eps), eps ~ N(0, s^2)
        spec = _chain_and_fork_spec(1.3)
        x = np.random.default_rng(3).normal(size=(4, 3))
        got = bayes_marginal(spec, x)[:, 0]
        for u, p in zip(x @ spec.base_weights[:, 0], got):
            want, _ = quad(lambda e: expit(u + e) * np.exp(-e * e / (2 * 1.3 ** 2)),
                           -np.inf, np.inf, epsabs=1e-13)
            assert abs(p - want / (1.3 * np.sqrt(2 * np.pi))) < 1e-11

    def test_parent_free_labels_are_expit_at_noise_zero(self):
        spec = _chain_and_fork_spec(0.0)
        x = np.random.default_rng(5).normal(size=(50, 3))
        got = bayes_marginal(spec, x)
        want = expit(x @ spec.base_weights)
        for l in (0, 4):
            assert got[:, l].tobytes() == want[:, l].tobytes()
        # one parent at noise 0: the two-term mixture over the parent's value
        p0 = want[:, 0]
        u1 = (x @ spec.base_weights)[:, 1]
        np.testing.assert_allclose(got[:, 1], (1 - p0) * expit(u1) + p0 * expit(u1 + 2.0),
                                   rtol=1e-15, atol=0)

    def test_rejects_features_of_another_width(self):
        with pytest.raises(GenSpecError, match="expected"):
            bayes_marginal(_chain_and_fork_spec(1.0), np.zeros((2, 4)))


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        spec = default_spec(n_examples=123)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back == spec
        np.testing.assert_array_equal(back.base_weights, spec.base_weights)

    def test_given_weights_neither_saved_nor_equal_to_the_seed_draw(self, tmp_path):
        # a spec file holds only the seed, so weights it does not draw
        # cannot be saved, and their spec is not its seed-drawn twin
        spec = identifiable_spec()
        twin = dataclasses.replace(spec, base_weights=None)
        assert spec != twin
        path = tmp_path / "spec.json"
        with pytest.raises(GenSpecError, match="^base_weights: "):
            save_spec(spec, path)
        assert not path.exists()
        # the seed's own draw, given as an array: equal, saved and read back
        same = dataclasses.replace(spec, base_weights=twin.base_weights.copy())
        assert same == twin
        save_spec(same, path)
        assert load_spec(path) == same

    def test_unknown_field_rejected(self):
        with pytest.raises(GenSpecError):
            spec_from_dict({"n_examples": 10, "n_features": 2, "n_labels": 2,
                            "planted_edges": [], "noise_scale": 1.0, "seed": 0,
                            "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(GenSpecError):
            spec_from_dict({"n_examples": 10})

    @pytest.mark.parametrize("field,value", BAD_SPEC_PATCHES,
                             ids=[f"{f}={v!r}" for f, v in BAD_SPEC_PATCHES])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(GenSpecError, match=rf"\b{field}: must be"):
            spec_from_dict({**GOOD_SPEC, field: value})
