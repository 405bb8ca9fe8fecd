"""Synthetic correlated-multilabel generator with planted directed couplings.

Each label l is sampled as

    y_l ~ Bernoulli( sigmoid( w_l . x + sum_{(i -> l, beta)} beta * y_i + eps ) )

with x standard normal, per-cell Gaussian noise eps, and labels visited in a
topological order of the planted edge graph (which must be acyclic). The
planted edges are the ground truth that learned couplings are judged
against.

`bayes_marginal` gives the exact P(y_l = 1 | x) of this process, the
per-label ranking no model of x can beat in expectation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .datamodel import CoupledLabelsError, Dataset, _number, checked, read_json, write_json
from .metrics import _blocks
from .predictor import expit


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
        checked("invalid generator spec", vars(self), _SPEC_RULES, GenSpecError)
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


# field -> (what it must be, test) of the scalar fields, checked by GenSpec
_SPEC_RULES = {
    "n_examples": ("an integer >= 1", lambda v: _number(v, int) and v >= 1),
    "n_features": ("an integer >= 1", lambda v: _number(v, int) and v >= 1),
    "n_labels": ("an integer >= 2", lambda v: _number(v, int) and v >= 2),
    "noise_scale": ("a finite number >= 0", lambda v: _number(v) and v >= 0),
    "seed": ("an integer >= 0", lambda v: _number(v, int) and v >= 0),
}
# planted_edges as a spec file holds it, before it becomes PlantedEdge records
_JSON_EDGES_RULE = {"planted_edges": (
    "a list of [source, target, strength] with integer labels and a finite strength",
    lambda v: isinstance(v, list) and all(map(_edge, v)))}


def spec_from_dict(raw: dict) -> GenSpec:
    """The GenSpec a spec file's object holds; GenSpec checks the values."""
    fields = set(_SPEC_RULES) | set(_JSON_EDGES_RULE)
    unknown = set(raw) - fields
    if unknown:
        raise GenSpecError(f"unknown generator spec field(s): {sorted(unknown)}")
    missing = fields - set(raw)
    if missing:
        raise GenSpecError(f"generator spec missing field(s): {sorted(missing)}")
    checked("invalid generator spec", raw, _JSON_EDGES_RULE, GenSpecError)
    edges = tuple(PlantedEdge(s, t, float(b)) for s, t, b in raw["planted_edges"])
    noise = raw["noise_scale"]
    return GenSpec(**{**raw, "planted_edges": edges,
                      "noise_scale": float(noise) if _number(noise) else noise})


def load_spec(path) -> GenSpec:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise GenSpecError(f"{path}: generator spec JSON must be an object")
    return spec_from_dict(raw)


def save_spec(spec: GenSpec, path) -> None:
    write_json(spec.to_json_dict(), path)


def _parents(spec: GenSpec) -> list[list[PlantedEdge]]:
    """Each label's planted in-edges, in order of their source label."""
    parents: list[list[PlantedEdge]] = [[] for _ in range(spec.n_labels)]
    for e in sorted(spec.planted_edges, key=lambda e: e.source):
        parents[e.target].append(e)
    return parents


def generate(spec: GenSpec) -> Dataset:
    """Sample a Dataset from the spec; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    n, d, L = spec.n_examples, spec.n_features, spec.n_labels
    x = rng.standard_normal((n, d))
    logits = x @ spec.base_weights
    # Row blocks keep every temporary block-sized. The draws keep their
    # order, x, all the noise, then all the uniforms, and consecutive block
    # draws give the numbers one whole-matrix draw would.
    blocks = list(_blocks(n, L))
    if spec.noise_scale > 0:
        for rows in blocks:
            block = logits[rows]
            block += rng.normal(0.0, spec.noise_scale, size=block.shape)

    parents = _parents(spec)
    order = topo_order(spec)
    y = np.zeros((n, L))
    for rows in blocks:
        z, yb = logits[rows], y[rows]
        uniforms = rng.random(z.shape)
        for l in order:
            logit = z[:, l]
            for e in parents[l]:
                logit = logit + e.strength * yb[:, e.source]
            yb[:, l] = uniforms[:, l] < expit(logit)

    names = [f"y{i}" for i in range(L)]
    return Dataset(features=x, labels=y, label_names=names)


# Gauss-Hermite nodes of the noise integral in `bayes_marginal`
HERMITE_NODES = 80


def bayes_marginal(spec: GenSpec, x) -> np.ndarray:
    """The exact P(y_l = 1 | x) of `generate` under `spec`, as an (n, L)
    array for (n, D) features `x`.

    Given x and its parents' values, label l is 1 with probability
    E_eps sigmoid(w_l . x + sum_i beta_i * y_i + eps), eps ~ N(0, s^2): a
    Gauss-Hermite sum of `HERMITE_NODES` nodes, or `expit` itself at noise
    0. The planted parents are summed out over the 2^m joint values of the
    label's m ancestors, each weighted by its probability, a product over
    the ancestors in topological order.
    """
    # imported here because no pipeline stage calls this function, and a
    # module-level import would slow every CLI start
    from numpy.polynomial.hermite import hermgauss

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.n_features:
        raise GenSpecError(f"x has shape {x.shape}, expected (n, {spec.n_features})")
    base = x @ spec.base_weights
    parents = _parents(spec)
    order = topo_order(spec)
    nodes, weights = hermgauss(HERMITE_NODES)
    nodes *= np.sqrt(2.0) * spec.noise_scale
    weights /= np.sqrt(np.pi)

    def p_one(l: int, values: dict[int, float]) -> np.ndarray:
        """P(y_l = 1 | x, its parents' `values`)."""
        logit = base[:, l]
        for e in parents[l]:
            logit = logit + e.strength * values[e.source]
        if spec.noise_scale == 0:
            return expit(logit)
        return expit(logit[:, None] + nodes) @ weights

    ancestors: list[set[int]] = [set() for _ in range(spec.n_labels)]
    for l in order:
        for e in parents[l]:
            ancestors[l] |= ancestors[e.source] | {e.source}
    out = np.empty(base.shape)
    for l in range(spec.n_labels):
        anc = [a for a in order if a in ancestors[l]]
        total = 0.0
        for bits in itertools.product((0.0, 1.0), repeat=len(anc)):
            values = dict(zip(anc, bits))
            weight = 1.0
            for a in anc:
                q = p_one(a, values)
                weight = weight * (q if values[a] else 1.0 - q)
            total = total + weight * p_one(l, values)
        out[:, l] = total
    return out


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
