"""Synthetic correlated-multilabel generator with planted directed couplings.

Each label l is sampled as

    y_l ~ Bernoulli( sigmoid( w_l . x + sum_{(i -> l, beta)} beta * y_i + eps ) )

with x standard normal, per-cell Gaussian noise eps, and labels visited in a
topological order of the planted edge graph (which must be acyclic). The
planted edges are the ground truth that learned couplings are judged
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np
from scipy.special import expit

from .datamodel import CoupledLabelsError, Dataset, _number, read_json, write_json


class GenSpecError(CoupledLabelsError):
    pass


@dataclass(frozen=True)
class PlantedEdge:
    source: int
    target: int
    strength: float


@dataclass(frozen=True)
class GenSpec:
    n_examples: int
    n_features: int
    n_labels: int
    planted_edges: tuple[PlantedEdge, ...]
    noise_scale: float
    seed: int
    # (D, L); drawn from seed when omitted. Excluded from equality: ndarray
    # comparison is ambiguous and the array is derivable from the seed.
    base_weights: np.ndarray = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_examples < 1 or self.n_features < 1 or self.n_labels < 2:
            raise GenSpecError(
                f"need N >= 1, D >= 1, L >= 2; got {self.n_examples}/"
                f"{self.n_features}/{self.n_labels}"
            )
        if self.noise_scale < 0:
            raise GenSpecError(f"noise_scale must be >= 0, got {self.noise_scale}")
        edges = tuple(
            e if isinstance(e, PlantedEdge) else PlantedEdge(*e) for e in self.planted_edges
        )
        for e in edges:
            if not 0 <= e.source < self.n_labels or not 0 <= e.target < self.n_labels:
                raise GenSpecError(f"edge ({e.source}->{e.target}) out of label range")
            if e.source == e.target:
                raise GenSpecError(f"self-edge on label {e.source}")
            if not np.isfinite(e.strength):
                raise GenSpecError(f"edge ({e.source}->{e.target}) has non-finite strength")
        object.__setattr__(self, "planted_edges", edges)
        topo_order(self)  # raises on cycles
        w = self.base_weights
        if w is None:
            rng = np.random.default_rng(self.seed)
            w = rng.normal(0.0, 1.0 / np.sqrt(self.n_features),
                           size=(self.n_features, self.n_labels))
        else:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.n_features, self.n_labels):
                raise GenSpecError(
                    f"base_weights shape {w.shape} != ({self.n_features}, {self.n_labels})"
                )
        w.setflags(write=False)
        object.__setattr__(self, "base_weights", w)

    def to_json_dict(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "n_features": self.n_features,
            "n_labels": self.n_labels,
            "planted_edges": [[e.source, e.target, e.strength] for e in self.planted_edges],
            "noise_scale": self.noise_scale,
            "seed": self.seed,
        }


def topo_order(spec: GenSpec) -> list[int]:
    """Topological label order; labels are emitted lowest-index first among
    ready nodes so the order is deterministic."""
    ts = TopologicalSorter({l: set() for l in range(spec.n_labels)})
    for e in spec.planted_edges:
        ts.add(e.target, e.source)
    try:
        ts.prepare()
    except CycleError as exc:
        raise GenSpecError(f"planted edge graph contains a cycle: {exc.args[1]}") from None
    order: list[int] = []
    while ts.is_active():
        ready = sorted(ts.get_ready())
        order.extend(ready)
        ts.done(*ready)
    return order


def _edge(e) -> bool:
    return (isinstance(e, list) and len(e) == 3
            and _number(e[0], int) and _number(e[1], int) and _number(e[2]))


# field -> (what it must be, test) for spec files; GenSpec checks the ranges
_SPEC_RULES = {
    "n_examples": ("an integer", lambda v: _number(v, int)),
    "n_features": ("an integer", lambda v: _number(v, int)),
    "n_labels": ("an integer", lambda v: _number(v, int)),
    "planted_edges": ("a list of [source, target, strength] with integer labels and "
                      "a finite strength", lambda v: isinstance(v, list) and all(map(_edge, v))),
    "noise_scale": ("a finite number", _number),
    "seed": ("an integer >= 0", lambda v: _number(v, int) and v >= 0),
}


def spec_from_dict(raw: dict) -> GenSpec:
    unknown = set(raw) - set(_SPEC_RULES)
    if unknown:
        raise GenSpecError(f"unknown generator spec field(s): {sorted(unknown)}")
    missing = set(_SPEC_RULES) - set(raw)
    if missing:
        raise GenSpecError(f"generator spec missing field(s): {sorted(missing)}")
    problems = [f"{name}: must be {rule}, got {raw[name]!r}"
                for name, (rule, ok) in _SPEC_RULES.items() if not ok(raw[name])]
    if problems:
        raise GenSpecError("invalid generator spec: " + "; ".join(problems))
    edges = tuple(PlantedEdge(s, t, float(b)) for s, t, b in raw["planted_edges"])
    return GenSpec(**{**raw, "planted_edges": edges, "noise_scale": float(raw["noise_scale"])})


def load_spec(path) -> GenSpec:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise GenSpecError(f"{path}: generator spec JSON must be an object")
    return spec_from_dict(raw)


def save_spec(spec: GenSpec, path) -> None:
    write_json(spec.to_json_dict(), path)


def generate(spec: GenSpec) -> Dataset:
    """Sample a Dataset from the spec; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    n, d, L = spec.n_examples, spec.n_features, spec.n_labels
    x = rng.standard_normal((n, d))
    noise = rng.normal(0.0, spec.noise_scale, size=(n, L)) if spec.noise_scale > 0 \
        else np.zeros((n, L))
    uniforms = rng.random((n, L))

    parents: dict[int, list[PlantedEdge]] = {}
    for e in spec.planted_edges:
        parents.setdefault(e.target, []).append(e)

    base_logits = x @ spec.base_weights
    y = np.zeros((n, L))
    for l in topo_order(spec):
        logit = base_logits[:, l] + noise[:, l]
        for e in sorted(parents.get(l, []), key=lambda e: e.source):
            logit = logit + e.strength * y[:, e.source]
        y[:, l] = (uniforms[:, l] < expit(logit)).astype(np.float64)

    names = [f"y{i}" for i in range(L)]
    return Dataset(features=x, labels=y, label_names=names)


def default_spec(n_examples: int = 6000, seed: int = 11) -> GenSpec:
    """The stock planted-coupling benchmark: 20 features, 14 labels, three
    planted edges of strength 2."""
    return GenSpec(
        n_examples=n_examples,
        n_features=20,
        n_labels=14,
        planted_edges=(
            PlantedEdge(0, 1, 2.0),
            PlantedEdge(2, 3, 2.0),
            PlantedEdge(4, 5, 2.0),
        ),
        noise_scale=1.0,
        seed=seed,
    )
