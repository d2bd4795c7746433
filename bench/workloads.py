"""The benchmark's three workloads.

A workload turns the workload seed into passes of tasks.  Each task is one
closed unit of program work (``run``) plus the check of its outputs
(``check``, which returns a list of problems and is empty when the outputs
are correct).  Pass ``p`` draws fresh inputs from (seed, p, task index), so
no pass repeats the inputs of another and a cache keyed on inputs cannot
turn later passes into lookups.

Every call into the package goes through a module attribute
(``datagen.generate``, not an imported name) so the tracer in ``tracing.py``
sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from balancelab import balancing, bayesnet, checks, datagen, metrics, model, tables, templates
from balancelab.balancing import BalanceSpec, JointTarget, Mechanism
from balancelab.errors import CounterexampleNotFound
from balancelab.tables import SampleBatch, Variable

PAIR_TOL = 1e-9  # residual (Y, Z) dependence allowed after balancing
TABLE_TOL = 1e-9  # cellwise agreement of importance weights with balance_exact
CHI2_TOL = 1e-6  # chi-squared statistic of a balanced (Y, Z) table

GRAPHS = templates.GRAPH_IDS
MECHANISMS = (
    Mechanism.IMPORTANCE_WEIGHTS,
    Mechanism.SUBSAMPLE_MAJORITY,
    Mechanism.UPSAMPLE_MINORITY,
)
YZ = (Variable("Y", 2), Variable("Z", 2))


def derive_seed(*path: int) -> int:
    """A 32-bit seed for the task at ``path`` (workload seed, pass, index, ...)."""
    return int(np.random.SeedSequence([int(p) for p in path]).generate_state(1)[0])


@dataclass(frozen=True)
class Task:
    key: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    quality: Callable[[dict], dict[str, float]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: Callable[[int], list[Task]]  # pass index -> the tasks of that pass
    warmup: Callable[[], None]


# -- shared helpers -------------------------------------------------------------

def balance_spec(mechanism: Mechanism, seed: int) -> BalanceSpec:
    resampling = mechanism is not Mechanism.IMPORTANCE_WEIGHTS
    return BalanceSpec(JointTarget("Y", "Z"), mechanism, seed if resampling else None)


def balance_dataset(data: datagen.Dataset, mechanism: Mechanism, seed: int) -> datagen.Dataset:
    """Balance a Dataset on (Y, Z) with ``balance_batch``.

    The package balances only SampleBatch objects, so the rows travel as a
    (Y, Z, row index) batch and come back through ``Dataset.take``.
    """
    rows = np.column_stack([data.y, data.z, np.arange(len(data))])
    batch = SampleBatch(YZ + (Variable("row", len(data)),), rows, data.weights)
    out = balancing.balance_batch(batch, balance_spec(mechanism, seed))
    return data.take(out.rows[:, 2], weights=out.weights)


def pair_table(y: np.ndarray, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted (Y, Z) frequencies as a 2x2 array."""
    counts = np.bincount(2 * np.asarray(y) + np.asarray(z), weights=weights, minlength=4)
    return counts.reshape(2, 2) / counts.sum()


def pair_gap(y: np.ndarray, z: np.ndarray, weights: np.ndarray) -> float:
    """Largest |P(y, z) - P(y)P(z)| of the weighted (Y, Z) frequencies."""
    t = pair_table(y, z, weights)
    return float(np.abs(t - t.sum(1, keepdims=True) * t.sum(0, keepdims=True)).max())


def _nonfinite(values) -> bool:
    return not all(np.isfinite(float(v)) for v in values if v is not None)


# -- paper-grid -----------------------------------------------------------------

REGULARIZERS = {
    "none": None,
    "marginal": model.MmdPenalty("marginal", 1.0),
    "conditional": model.MmdPenalty("conditional", 1.0),
    "conditional_rep": model.MmdPenalty("conditional", 1.0, on_representation=True),
}
BALANCINGS = (None,) + MECHANISMS


@dataclass(frozen=True)
class GridSize:
    n: int = 2000
    n_test: int = 2000
    epochs: int = 10
    hidden: int = 16
    batch: int = 128


def _paper_run(graph: str, mechanism: Mechanism | None, reg: str, seeds: tuple[int, int, int], size: GridSize) -> dict:
    data_seed, ideal_seed, shift_seed = seeds
    spec = datagen.GenSpec(graph, size.n, data_seed)
    train_set = datagen.generate(spec)
    if mechanism is not None:
        train_set = balance_dataset(train_set, mechanism, data_seed)
    fit = model.train(
        train_set,
        model.TrainSpec(
            epochs=size.epochs,
            batch_size=size.batch,
            hidden_dim=size.hidden,
            mmd=REGULARIZERS[reg],
            seed=data_seed,
        ),
    )
    ideal = datagen.ideal_testset(spec, size.n_test, ideal_seed)
    report = metrics.evaluate(fit.params, ideal, probe_seed=data_seed)
    shifted = datagen.shift_testsets(spec, checks.correlation_grid(), size.n_test, shift_seed)
    risk = metrics.risk_invariance_report(fit.params, shifted)
    return {"train_set": train_set, "balanced": mechanism is not None, "log": fit.log, "report": report, "risk": risk}


def check_paper(out: dict) -> list[str]:
    problems = []
    rep, risk = out["report"], out["risk"]
    values = [rep.accuracy, rep.worst_group, rep.equalized_odds, rep.dp_gap, rep.pp_gap, rep.encoding]
    values += list(rep.z_accuracy.values()) + list(risk.risks) + [risk.max_gap]
    if _nonfinite(values):
        problems.append(f"non-finite metric in {values}")
    if _nonfinite(v for entry in out["log"] for v in entry.values()):
        problems.append("non-finite training log value")
    if out["balanced"]:
        ds = out["train_set"]
        gap = pair_gap(ds.y, ds.z, ds.weights)
        if not gap <= PAIR_TOL:
            problems.append(f"balanced training set keeps a (Y, Z) pair gap of {gap}")
    return problems


def quality_paper(out: dict) -> dict[str, float]:
    rep = out["report"]
    return {
        "ideal_acc": rep.accuracy,
        "worst_group_acc": rep.worst_group,
        "eo_gap": rep.equalized_odds,
        "shift_risk_gap": out["risk"].max_gap,
    }


def paper_grid(seed: int, quick: bool = False) -> Workload:
    size = GridSize(n=300, n_test=300, epochs=1) if quick else GridSize()
    # regularizer innermost, then balancing, then graph: any prefix of a pass
    # holds every (balancing, regularizer) cell about equally often
    cells = [(g, m, r) for g in GRAPHS for m in BALANCINGS for r in REGULARIZERS]

    def tasks(p: int) -> list[Task]:
        out = []
        for k, (g, m, r) in enumerate(cells):
            seeds = tuple(derive_seed(seed, p, k, j) for j in range(3))
            key = f"{g}/{m.value if m else 'none'}/{r}"
            run = lambda g=g, m=m, r=r, seeds=seeds: _paper_run(g, m, r, seeds, size)  # noqa: E731
            out.append(Task(key, run, check_paper, quality_paper))
        return out

    def warmup() -> None:
        small = GridSize(n=200, n_test=200, epochs=1)
        for m, r in zip(BALANCINGS, REGULARIZERS):
            check_paper(_paper_run("A", m, r, (1, 2, 3), small))

    return Workload(
        "paper-grid",
        "the paper's learned grid (graphs x balancing x MMD); time is mostly model (MMD loss) and evaluate, almost none balancing",
        tasks,
        warmup,
    )


# -- exact-checks ---------------------------------------------------------------

def _search(example_id: str, seed: int) -> dict:
    try:
        found = checks.find_nonfactorizing_balance(example_id, seed)
    except CounterexampleNotFound:
        return {"example_id": example_id, "found": False, "violations": 0}
    return {"example_id": example_id, "found": True, "violations": len(found.violations)}


def check_search(out: dict) -> list[str]:
    expected = out["example_id"] != "C4"  # C1-C3 break the skeleton; C4 provably does not
    if out["found"] != expected or (expected and out["violations"] < 1):
        return [f"{out['example_id']}: found={out['found']} with {out['violations']} violations, expected found={expected}"]
    return []


def _control(seed: int) -> dict:
    result = checks.anticausal_control(seed)
    return {"factorizes": result.factorizes, "max_gap": result.max_gap}


def check_control(out: dict) -> list[str]:
    return [] if out["factorizes"] else [f"anticausal control does not factorize (gap {out['max_gap']})"]


def _instance(graph: str, seed: int) -> dict:
    tpl = templates.random_instance(graph, seed)
    observed = tpl.observed()
    labels = checks.labels_for(tpl)
    conditions = checks.check_invariance_conditions(observed, labels)
    balanced = balancing.balance_exact(observed, BalanceSpec(JointTarget(tpl.y, tpl.z)))
    family = checks.ShiftFamily(balanced, checks.correlation_grid())
    predictor = checks.bayes_predictor(balanced, tpl.core)
    gap = checks.risk_invariance_gap(predictor, family)
    bound = checks.check_epsilon_risk_bound(predictor, family, tpl.core)
    fairness = [checks.check_fairness_implication(observed, labels, c) for c in checks.FairnessCriterion]
    factor = bayesnet.factorizes_according_to(balanced, tpl.mutilated_skeleton())
    return {
        "graph": graph,
        "conditions": conditions,
        "risk": gap,
        "bound": bound,
        "fairness": fairness,
        "factorizes": factor.factorizes,
    }


def check_instance(out: dict) -> list[str]:
    problems = []
    c, bound = out["conditions"], out["bound"]
    values = [c.cond1_gap, c.cond2_gap, bound.epsilon, bound.gap, out["risk"].sup_gap, *out["risk"].risks]
    values += [v for f in out["fairness"] for v in (f.premise_gap, f.conclusion_gap)]
    if _nonfinite(values):
        problems.append(f"graph {out['graph']}: non-finite gap in {values}")
    if not bound.bound_holds:
        problems.append(f"graph {out['graph']}: risk gap {bound.gap} exceeds epsilon {bound.epsilon}")
    for f in out["fairness"]:
        if f.premise_holds and not f.conclusion_holds:
            problems.append(f"graph {out['graph']}: {f.criterion.value} premise holds but conclusion fails")
    if out["graph"] == "A" and not out["factorizes"]:
        problems.append("graph A: balanced anti-causal instance does not factorize")
    return problems


def random_chain(n_nodes: int, seed: int) -> bayesnet.Cbn:
    """A binary chain V0 -> V1 -> ... with seeded CPT rows in [0.1, 0.9]."""
    gen = np.random.default_rng(seed)
    names = [f"V{i}" for i in range(n_nodes)]
    parents = {name: ((names[i - 1],) if i else ()) for i, name in enumerate(names)}
    cpts = {}
    for name in names:
        rows = gen.uniform(0.1, 0.9, size=(2,) * (len(parents[name]) + 1))
        cpts[name] = rows / rows.sum(axis=-1, keepdims=True)
    return bayesnet.Cbn(tuple(Variable(n, 2) for n in names), parents, cpts)


def _chain(n_nodes: int, seed: int) -> dict:
    net = random_chain(n_nodes, seed)
    report = bayesnet.factorizes_according_to(bayesnet.joint(net), net)
    return {"nodes": n_nodes, "factorizes": report.factorizes, "max_gap": report.max_gap()}


def check_chain(out: dict) -> list[str]:
    if out["factorizes"]:
        return []
    return [f"{out['nodes']}-node network does not factorize by its own DAG (gap {out['max_gap']})"]


def exact_checks(seed: int, quick: bool = False) -> Workload:
    chain_sizes = (4, 5, 6) if quick else (6, 7, 8)

    def tasks(p: int) -> list[Task]:
        s = derive_seed(seed, p)
        out = [Task(f"search/{c}", lambda c=c: _search(c, s), check_search) for c in ("C1", "C2", "C3", "C4")]
        out.append(Task("control", lambda: _control(s), check_control))
        out += [Task(f"instance/{g}", lambda g=g: _instance(g, s), check_instance) for g in GRAPHS]
        out += [
            Task(f"chain/{n}", lambda n=n: _chain(n, derive_seed(seed, p, n)), check_chain)
            for n in chain_sizes
        ]
        return out

    def warmup() -> None:
        for c in ("C1", "C2", "C3", "C4"):
            check_search(_search(c, 0))
        check_control(_control(0))
        for g in GRAPHS:
            check_instance(_instance(g, 0))
        check_chain(_chain(4, 0))

    return Workload(
        "exact-checks",
        "the paper's propositions on exact tables; all time in bayesnet, tables and checks, none in model or datagen",
        tasks,
        warmup,
    )


# -- sampled-balance ------------------------------------------------------------

def _balance_report(batch: SampleBatch) -> tuple[tables.JointTable, tuple[float, float]]:
    return batch.empirical_table(), tables.chi2_independence(batch, "Y", "Z")


def _cbn_run(net: bayesnet.Cbn, n: int, seed: int) -> dict:
    batch = bayesnet.sample_cbn(net, n, seed)
    reference = balancing.balance_exact(batch.empirical_table(), BalanceSpec(JointTarget("Y", "Z")))
    results = {}
    for mechanism in MECHANISMS:
        out = balancing.balance_batch(batch, balance_spec(mechanism, seed))
        results[mechanism] = (out.column("Y"), out.column("Z"), out.weights) + _balance_report(out)
    return {"rows": n, "reference": reference, "results": results}


def _datagen_run(graph: str, n: int, seed: int) -> dict:
    data = datagen.generate(datagen.GenSpec(graph, n, seed))
    source = SampleBatch(YZ, np.column_stack([data.y, data.z]), data.weights)
    reference = balancing.balance_exact(source.empirical_table(), BalanceSpec(JointTarget("Y", "Z")))
    results = {}
    for mechanism in MECHANISMS:
        out = balance_dataset(data, mechanism, seed)
        pair = SampleBatch(YZ, np.column_stack([out.y, out.z]), out.weights)
        results[mechanism] = (out.y, out.z, out.weights) + _balance_report(pair)
    return {"rows": n, "reference": reference, "results": results}


def check_sampled(out: dict) -> list[str]:
    problems = []
    rows = out["rows"]
    for mechanism, (y, z, w, table, (stat, _)) in out["results"].items():
        tag = mechanism.value
        gap = pair_gap(y, z, w)
        if not gap <= PAIR_TOL:
            problems.append(f"{tag}: residual (Y, Z) pair gap {gap}")
        if not (np.isfinite(stat) and stat <= CHI2_TOL):
            problems.append(f"{tag}: chi-squared statistic {stat} on a balanced table")
        if mechanism is Mechanism.IMPORTANCE_WEIGHTS:
            reference = out["reference"]
            diff = np.abs(table.probs - reference.probs).max()
            if table.names != reference.names or not diff <= TABLE_TOL or len(y) != rows:
                problems.append(f"{tag}: differs from balance_exact(empirical_table) by {diff}")
        else:
            counts = np.bincount(2 * y + z, minlength=4)
            if counts.min() != counts.max() or np.any(w != 1.0):
                problems.append(f"{tag}: unequal resampled cell counts {counts.tolist()}")
            grows = mechanism is Mechanism.UPSAMPLE_MINORITY
            if (len(y) >= rows) != grows:
                problems.append(f"{tag}: {len(y)} rows out of {rows}")
    return problems


def sampled_balance(seed: int, quick: bool = False) -> Workload:
    rows = 20_000 if quick else 250_000
    nets = {g: templates.graph_template(g).net for g in GRAPHS}
    units = [(g, source) for g in GRAPHS for source in ("cbn", "datagen")]

    def tasks(p: int) -> list[Task]:
        out = []
        for k, (g, source) in enumerate(units):
            s = derive_seed(seed, p, k)
            if source == "cbn":
                run = lambda g=g, s=s: _cbn_run(nets[g], rows, s)  # noqa: E731
            else:
                run = lambda g=g, s=s: _datagen_run(g, rows, s)  # noqa: E731
            out.append(Task(f"{g}/{source}", run, check_sampled))
        return out

    def warmup() -> None:
        check_sampled(_cbn_run(nets["C"], 5_000, 1))
        check_sampled(_datagen_run("C", 5_000, 1))

    return Workload(
        "sampled-balance",
        "balance_batch on 125x the rows of paper-grid next to sample_cbn and the datagen samplers; balancing, sampling and datagen changes show here",
        tasks,
        warmup,
    )


WORKLOADS = {"paper-grid": paper_grid, "exact-checks": exact_checks, "sampled-balance": sampled_balance}
