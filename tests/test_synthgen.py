import numpy as np
import pytest

from coupled_labels.synthgen import (
    GenSpec,
    GenSpecError,
    PlantedEdge,
    default_spec,
    generate,
    load_spec,
    save_spec,
    spec_from_dict,
    topo_order,
)
from helpers import BAD_SPEC_PATCHES, GOOD_SPEC


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

    def test_chain_is_acyclic(self):
        spec = small_spec(planted_edges=(PlantedEdge(0, 1, 1.0), PlantedEdge(1, 2, 1.0)))
        order = topo_order(spec)
        assert order.index(0) < order.index(1) < order.index(2)

    def test_base_weights_shape_checked(self):
        with pytest.raises(GenSpecError):
            small_spec(base_weights=np.zeros((2, 2)))

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

    def test_default_spec_planted_targets_elevated(self):
        ds = generate(default_spec(n_examples=4000))
        rates = ds.labels.mean(axis=0)
        for src, tgt in ((0, 1), (2, 3), (4, 5)):
            assert rates[tgt] > rates[src] + 0.05


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        spec = default_spec(n_examples=123)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back == spec
        np.testing.assert_array_equal(back.base_weights, spec.base_weights)

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
