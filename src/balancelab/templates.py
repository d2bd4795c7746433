"""Built-in network templates: the one law of each benchmark graph.

Each builder returns the exact CBN of one graph.  The exact checks use it
with its default parameters; ``datagen`` draws every graph from the same
builders with the spec's parameters and noise-free channel flips:

  A  ``template_a``  anti-causal, purely spurious:   Y -> X_core,  Z -> X_aux
  B  ``template_b``  causal, purely spurious:        X_core -> Y,  Z -> X_aux
  C  ``template_c``  collider plus a second factor:  T -> X_core,  Z -> X_aux,
                     V -> X_v, with T -> Y <- U -> Z and (Y, Z) -> V
  D  ``template_d``  anti-causal, entangled:         Y -> X_core,  (Y, Z) -> X_ent

A and D realize the confounded joint over (Y, Z), parameterized by
(P(Y=0|Z=0), P(Y=0|Z=1)) and P(Z=0), with a 4-state latent pair driver U.
In C a truth bit T and a confounder U compete for the label, Z is a noisy
copy of U, and V tracks the label with an extra pull toward Z; the collider
at Y couples X_core to Z given Y.

Each template also lists its ``undesired`` edges: removing them with
``bayesnet.mutilate`` gives the graph's ideal law, in which Y ⊥ Z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .bayesnet import Cbn, Dag, joint
from .errors import ArgumentError
from .rng import spawn
from .tables import JointTable, Variable, marginalize

GRAPH_IDS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class GraphTemplate:
    """A network plus the bookkeeping the checkers and generators need."""

    graph_id: str
    net: Cbn
    latents: tuple[str, ...]
    y: str
    z: str
    core: tuple[str, ...]
    spurious: tuple[str, ...]
    entangled: tuple[str, ...]
    other_factor: tuple[str, ...]
    undesired: tuple[tuple[str, str], ...]  # edges whose removal gives the ideal law

    @property
    def observed_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.net.names if n not in self.latents)

    def observed(self) -> JointTable:
        """Exact joint over the observed variables (latents summed out)."""
        return marginalize(joint(self.net), self.observed_names)

    def mutilated_skeleton(self) -> Dag:
        """The observed skeleton with the undesired Y–Z coupling removed.

        For these templates every undesired path runs through a latent
        confounder, so the observed skeleton simply keeps the channel edges.
        """
        parents: dict[str, tuple[str, ...]] = {n: () for n in self.observed_names}
        for child in self.observed_names:
            kept = tuple(
                p for p in self.net.parents[child] if p in self.observed_names
            )
            parents[child] = kept
        return Dag(self.observed_names, parents)


def _pair_joint(confounding: tuple[float, float], z_marginal: float) -> np.ndarray:
    """Joint P(Y=y, Z=z) implied by P(Y=0|Z=z) and P(Z=0)."""
    c0, c1 = confounding
    for p in (c0, c1, z_marginal):
        if not 0.0 < p < 1.0:
            raise ArgumentError(f"confounding/marginal parameters must lie in (0,1), got {p}")
    t = np.array(
        [
            [z_marginal * c0, (1 - z_marginal) * c1],
            [z_marginal * (1 - c0), (1 - z_marginal) * (1 - c1)],
        ]
    )
    return t  # t[y, z]


def _flip_cpt(flip: float, card: int = 2) -> np.ndarray:
    """Binary-input channel CPT: copy the parent state, flip with prob ``flip``."""
    if card == 2:
        return np.array([[1 - flip, flip], [flip, 1 - flip]])
    # wider channels put 1-flip on the matched state, spread the rest evenly
    cpt = np.full((2, card), flip / (card - 1))
    cpt[0, 0] = 1 - flip
    cpt[1, 1] = 1 - flip
    return cpt


def _pair_driver_cpts(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CPTs for a 4-state latent U with P(U=2y+z)=t[y,z] and deterministic bits."""
    pu = t.reshape(-1)
    y_rows = np.zeros((4, 2))
    z_rows = np.zeros((4, 2))
    for u in range(4):
        y_rows[u, u >> 1] = 1.0
        z_rows[u, u & 1] = 1.0
    return pu, y_rows, z_rows


def template_a(
    confounding: tuple[float, float] = (0.95, 0.10),
    z_marginal: float = 0.5,
    core_flip: float = 0.1,
    aux_flip: float = 0.1,
) -> GraphTemplate:
    t = _pair_joint(confounding, z_marginal)
    pu, y_rows, z_rows = _pair_driver_cpts(t)
    net = Cbn(
        (Variable("U", 4), Variable("Y", 2), Variable("Z", 2), Variable("X_core", 2), Variable("X_aux", 2)),
        {"Y": ("U",), "Z": ("U",), "X_core": ("Y",), "X_aux": ("Z",)},
        {"U": pu, "Y": y_rows, "Z": z_rows, "X_core": _flip_cpt(core_flip), "X_aux": _flip_cpt(aux_flip)},
    )
    return GraphTemplate("A", net, ("U",), "Y", "Z", ("X_core",), ("X_aux",), (), (), (("U", "Z"),))


def template_b(
    x_effect: float = 0.6,
    confounder_effect: float = 0.3,
    z_flip: float = 0.1,
    aux_flip: float = 0.1,
) -> GraphTemplate:
    if not 0 < x_effect + confounder_effect < 1:
        raise ArgumentError("x_effect + confounder_effect must lie in (0,1)")
    y_rows = np.zeros((2, 2, 2))  # (x_core, u, y)
    for x in range(2):
        for u in range(2):
            p1 = 0.5 + x_effect * (x - 0.5) + confounder_effect * (u - 0.5)
            y_rows[x, u] = (1 - p1, p1)
    net = Cbn(
        (Variable("X_core", 2), Variable("U", 2), Variable("Y", 2), Variable("Z", 2), Variable("X_aux", 2)),
        {"Y": ("X_core", "U"), "Z": ("U",), "X_aux": ("Z",)},
        {
            "X_core": np.array([0.5, 0.5]),
            "U": np.array([0.5, 0.5]),
            "Y": y_rows,
            "Z": _flip_cpt(z_flip),
            "X_aux": _flip_cpt(aux_flip),
        },
    )
    undesired = (("U", "Y"), ("U", "Z"))
    return GraphTemplate("B", net, ("U",), "Y", "Z", ("X_core",), ("X_aux",), (), (), undesired)


def template_c(
    confounder_strength: float = 0.45,
    label_noise: float = 0.02,
    z_flip: float = 0.1,
    v_flip: tuple[float, float] = (0.2, 0.9),
    v_z_pull: float = 0.3,
    core_flip: float = 0.1,
    aux_flip: float = 0.1,
    v_channel_flip: float = 0.1,
) -> GraphTemplate:
    """T and U are fair coins.  The label copies T when T and U agree and
    copies U with probability ``confounder_strength`` when they disagree,
    then flips with probability ``label_noise``.  Z copies U up to ``z_flip``.
    P(V=0 | y, z) is v_flip[y] plus ``v_z_pull`` times (1{z=0} - P(Z=0 | y)),
    clipped to [0.01, 0.99], so before clipping its mean given Y=y is v_flip[y].
    """
    m, ln = confounder_strength, label_noise
    y_rows = np.zeros((2, 2, 2))  # (t, u, y)
    for t in range(2):
        for u in range(2):
            p1 = float(t) if t == u else (1 - m) * t + m * u
            p1 = (1 - ln) * p1 + ln * (1 - p1)
            y_rows[t, u] = (1 - p1, p1)
    z_rows = _flip_cpt(z_flip)
    pyz = np.einsum("tuy,uz->yz", y_rows, z_rows)  # 4 P(Y=y, Z=z)
    pz0_given_y = pyz[:, 0] / pyz.sum(axis=1)
    v_rows = np.zeros((2, 2, 2))  # (y, z, v)
    for y in range(2):
        for z in range(2):
            p_v0 = v_flip[y] + v_z_pull * ((1 if z == 0 else 0) - pz0_given_y[y])
            p_v0 = min(max(p_v0, 0.01), 0.99)
            v_rows[y, z] = (p_v0, 1 - p_v0)
    net = Cbn(
        tuple(Variable(name, 2) for name in ("T", "U", "Y", "Z", "V", "X_core", "X_aux", "X_v")),
        {"Y": ("T", "U"), "Z": ("U",), "V": ("Y", "Z"), "X_core": ("T",), "X_aux": ("Z",), "X_v": ("V",)},
        {
            "T": np.array([0.5, 0.5]),
            "U": np.array([0.5, 0.5]),
            "Y": y_rows,
            "Z": z_rows,
            "V": v_rows,
            "X_core": _flip_cpt(core_flip),
            "X_aux": _flip_cpt(aux_flip),
            "X_v": _flip_cpt(v_channel_flip),
        },
    )
    undesired = (("U", "Z"), ("Y", "V"))
    return GraphTemplate("C", net, ("T", "U", "V"), "Y", "Z", ("X_core",), ("X_aux",), (), ("X_v",), undesired)


def template_d(
    confounding: tuple[float, float] = (0.95, 0.10),
    z_marginal: float = 0.5,
    core_flip: float = 0.1,
    ent_p: float = 0.9,
    ent_q: float = 0.1,
) -> GraphTemplate:
    t = _pair_joint(confounding, z_marginal)
    pu, y_rows, z_rows = _pair_driver_cpts(t)
    ent_rows = np.zeros((2, 2, 2))  # (y, z, x_ent); channel keyed to OR(y, z)
    for y in range(2):
        for z in range(2):
            p1 = ent_p if (y or z) else ent_q
            ent_rows[y, z] = (1 - p1, p1)
    net = Cbn(
        (Variable("U", 4), Variable("Y", 2), Variable("Z", 2), Variable("X_core", 2), Variable("X_ent", 2)),
        {"Y": ("U",), "Z": ("U",), "X_core": ("Y",), "X_ent": ("Y", "Z")},
        {"U": pu, "Y": y_rows, "Z": z_rows, "X_core": _flip_cpt(core_flip), "X_ent": ent_rows},
    )
    undesired = (("U", "Z"), ("Y", "X_ent"), ("Z", "X_ent"))
    return GraphTemplate("D", net, ("U",), "Y", "Z", ("X_core",), (), ("X_ent",), (), undesired)


def graph_template(graph_id: str, **params) -> GraphTemplate:
    builders = {"A": template_a, "B": template_b, "C": template_c, "D": template_d}
    if graph_id not in builders:
        raise ArgumentError(f"unknown graph id {graph_id!r}; expected one of {GRAPH_IDS}")
    return builders[graph_id](**params)


def _random_rows(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    rows = gen.uniform(0.1, 0.9, size=shape)
    return rows / rows.sum(axis=-1, keepdims=True)


def random_instance(graph_id: str, seed: int) -> GraphTemplate:
    """The graph's template with every CPT that is not a deterministic copy
    replaced by random strictly positive rows."""
    tpl = graph_template(graph_id)
    gen = spawn(seed, 41)
    cpts = {
        name: cpt if np.all((cpt == 0) | (cpt == 1)) else _random_rows(gen, cpt.shape)
        for name, cpt in tpl.net.cpts.items()
    }
    return replace(tpl, net=Cbn(tpl.net.nodes, tpl.net.parents, cpts))


def causal_collider_net() -> Cbn:
    """Binary surrogate of the thresholded-Gaussian model X -> Y <- U -> Z.

    CPT entries discretize the continuous mechanisms
    X = 1{g > 0},  U = 1{g > 0.3},  Y = 1{X - U + 0.5 g > 0.5},
    Z = 1{U - 0.5 g > 0.1} with independent standard normal g's.
    """
    p_u1 = float(norm.sf(0.3))
    y_rows = np.zeros((2, 2, 2))  # (x, u, y)
    for x in range(2):
        for u in range(2):
            p1 = float(norm.sf(2.0 * (0.5 - x + u)))
            y_rows[x, u] = (1 - p1, p1)
    z_rows = np.zeros((2, 2))
    for u in range(2):
        p1 = float(norm.cdf(2.0 * (u - 0.1)))
        z_rows[u] = (1 - p1, p1)
    return Cbn(
        (Variable("X", 2), Variable("U", 2), Variable("Y", 2), Variable("Z", 2)),
        {"Y": ("X", "U"), "Z": ("U",)},
        {
            "X": np.array([0.5, 0.5]),
            "U": np.array([1 - p_u1, p_u1]),
            "Y": y_rows,
            "Z": z_rows,
        },
    )
