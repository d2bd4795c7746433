"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces each public function at a module boundary of
``balancelab`` with a wrapper that records a span: name, start, end, the
enclosing span and the pass it ran in.  A function is replaced in every
``balancelab`` module that holds it, because callers look names up in their
own module (``checks`` calls its imported ``joint``, ``train`` looks up
``model.loss``).  Nothing in the package itself changes.

Spans stay in memory; ``layer_metrics`` reduces them after the timed phase
and ``dump`` writes them out when the run ends.

Reduction rules:
  * counts (``.calls``, rows, attempts, skipped strata) cover pass 0 only, a
    fixed set of tasks for a given seed, so they repeat exactly;
  * times (``busy_s``, ``self_s``) are per pass, averaged over the passes
    that completed; ``busy_s`` counts only spans with no enclosing span of
    the same name (or, for a whole layer, of the same layer);
  * rates (``us_per_call``, ``rows_per_s``) use every span of completed passes.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np

MODULES = ("balancing", "bayesnet", "checks", "datagen", "metrics", "model", "tables", "templates")

Hook = Callable[[tuple, dict, object, BaseException | None], dict[str, float]]


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _loss_mode(args: tuple, kwargs: dict) -> str:
    mmd = _arg(args, kwargs, 2, "spec").mmd
    if mmd is None:
        return "none"
    return mmd.mode + ("_rep" if mmd.on_representation else "")


def _train_rows(args, kwargs, result, error):
    return {"model.row_epochs": len(_arg(args, kwargs, 0, "data")) * _arg(args, kwargs, 1, "spec").epochs}


def _loss_skipped(args, kwargs, result, error):
    return {"model.skipped_strata": result.skipped_strata} if result is not None else {}


def _datagen_rows(args, kwargs, result, error):
    if result is None:
        return {}
    rows = sum(len(d) for d in result) if isinstance(result, list) else len(result)
    return {"datagen.rows": rows}


def _balance_diagnostics(args, kwargs, result, error):
    if result is None:
        return {}
    batch, spec = _arg(args, kwargs, 0, "batch"), _arg(args, kwargs, 1, "spec")
    n_in, n_out = len(batch), len(result)
    out = {"balancing.rows_in": n_in, "balancing.rows_out": n_out}
    mechanism = spec.mechanism.value
    if mechanism in ("importance_weights", "exact_reweight"):
        w = result.weights
        out["balancing.ess_frac"] = float(w.sum()) ** 2 / float((w * w).sum()) / n_in
    elif mechanism == "subsample_majority":
        out["balancing.kept_frac"] = n_out / n_in
    else:
        out["balancing.dup_frac"] = (n_out - n_in) / n_out
    target = spec.target
    if hasattr(target, "z_var"):
        y, z = result.column(target.y_var), result.column(target.z_var)
        cz = result.variables[result.axis(target.z_var)].cardinality
        cy = result.variables[result.axis(target.y_var)].cardinality
        t = np.bincount(y * cz + z, weights=result.weights, minlength=cy * cz).reshape(cy, cz)
        t = t / t.sum()
        out["balancing.pair_gap_max"] = float(np.abs(t - t.sum(1, keepdims=True) * t.sum(0, keepdims=True)).max())
    return out


def _sample_rows(args, kwargs, result, error):
    return {"bayesnet.sample_cbn.rows": _arg(args, kwargs, 1, "n")}


def _search_attempts(args, kwargs, result, error):
    if result is not None:
        return {"checks.search.attempts": result.seed_used + 1, "checks.search.hits": 1}
    retries = kwargs.get("retries", args[2] if len(args) > 2 else 16)
    return {"checks.search.attempts": retries, "checks.search.hits": 0}


# span name -> (module, attribute, span-name suffix from the arguments, hook)
TARGETS: dict[str, tuple[str, str, Callable | None, Hook | None]] = {
    "datagen.generate": ("datagen", "generate", None, _datagen_rows),
    "datagen.ideal_testset": ("datagen", "ideal_testset", None, _datagen_rows),
    "datagen.shift_testsets": ("datagen", "shift_testsets", None, _datagen_rows),
    "balancing.balance_batch": ("balancing", "balance_batch", None, _balance_diagnostics),
    "balancing.balance_exact": ("balancing", "balance_exact", None, None),
    "model.train": ("model", "train", None, _train_rows),
    "model.loss": ("model", "loss", _loss_mode, _loss_skipped),
    "metrics.evaluate": ("metrics", "evaluate", None, None),
    "metrics.probe": ("model", "probe_encoding", None, None),
    "metrics.risk": ("metrics", "risk_invariance_report", None, None),
    "bayesnet.factorize": ("bayesnet", "factorizes_according_to", None, None),
    "bayesnet.d_separated": ("bayesnet", "d_separated", None, None),
    "bayesnet.sample_cbn": ("bayesnet", "sample_cbn", None, _sample_rows),
    "bayesnet.joint": ("bayesnet", "joint", None, None),
    "tables.is_independent": ("tables", "is_independent", None, None),
    "tables.marginalize": ("tables", "marginalize", None, None),
    "tables.empirical_table": ("tables", "SampleBatch.empirical_table", None, None),
    "tables.chi2": ("tables", "chi2_independence", None, None),
    "checks.search": ("checks", "find_nonfactorizing_balance", None, _search_attempts),
    "checks.anticausal_control": ("checks", "anticausal_control", None, None),
    "checks.invariance_conditions": ("checks", "check_invariance_conditions", None, None),
    "checks.bayes_predictor": ("checks", "bayes_predictor", None, None),
    "checks.risk_invariance_gap": ("checks", "risk_invariance_gap", None, None),
    "checks.epsilon_bound": ("checks", "check_epsilon_risk_bound", None, None),
    "checks.fairness": ("checks", "check_fairness_implication", None, None),
    "templates.graph_template": ("templates", "graph_template", None, None),
    "templates.random_instance": ("templates", "random_instance", None, None),
    "templates.observed": ("templates", "GraphTemplate.observed", None, None),
    "templates.mutilated_skeleton": ("templates", "GraphTemplate.mutilated_skeleton", None, None),
}

LOSS_MODES = ("none", "marginal", "conditional", "conditional_rep")

# name -> unit; the order and units match BENCHMARK.json's per_layer list
LAYER_METRICS = {
    "model.loss.calls": "count",
    **{f"model.loss.{m}.us_per_call": "us" for m in LOSS_MODES},
    "model.train.self_s": "s",
    "model.rows_per_s": "rows/s",
    "model.skipped_strata": "count",
    "metrics.evaluate.self_s": "s",
    "metrics.probe.busy_s": "s",
    "metrics.risk.busy_s": "s",
    "datagen.calls": "count",
    "datagen.rows": "count",
    "datagen.busy_s": "s",
    "balancing.balance_batch.calls": "count",
    "balancing.balance_batch.busy_s": "s",
    "balancing.rows_in": "count",
    "balancing.rows_out": "count",
    "balancing.ess_frac": "ratio",
    "balancing.kept_frac": "ratio",
    "balancing.dup_frac": "ratio",
    "balancing.pair_gap_max": "prob",
    "balancing.balance_exact.calls": "count",
    "balancing.balance_exact.busy_s": "s",
    "bayesnet.factorize.calls": "count",
    "bayesnet.factorize.busy_s": "s",
    "bayesnet.d_separated.calls": "count",
    "bayesnet.d_separated.busy_s": "s",
    "bayesnet.sample_cbn.busy_s": "s",
    "bayesnet.sample_cbn.rows_per_s": "rows/s",
    "bayesnet.joint.calls": "count",
    "bayesnet.joint.busy_s": "s",
    "tables.is_independent.calls": "count",
    "tables.is_independent.busy_s": "s",
    "tables.marginalize.calls": "count",
    "tables.empirical_table.busy_s": "s",
    "tables.chi2.busy_s": "s",
    "checks.self_s": "s",
    "checks.search.attempts": "count",
    "checks.search.hit_frac": "ratio",
    "templates.busy_s": "s",
    "proc.cpu_frac": "ratio",
    "trace.tasks_per_s": "1/s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory spans of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.pass_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.current_pass = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, suffix, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._name_id(f"{name}.{suffix(args, kwargs)}" if suffix else name)
            index = len(tracer.end)
            tracer.name.append(span)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.pass_index.append(tracer.current_pass)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            result, error = None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end[index] = perf_counter()
                tracer.start[index] = t0
                tracer._stack.pop()
                if hook is not None:
                    for key, value in hook(args, kwargs, result, error).items():
                        tracer.notes[key].append((tracer.current_pass, float(value)))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"balancelab.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for name, (module, attr, suffix, hook) in TARGETS.items():
            owner = by_name[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, suffix, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, suffix, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, complete_passes: int, cpu_frac: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics but ``trace.tasks_per_s``, which the caller
        adds; times are multiplied by ``scale`` and rates divided by it (see
        ``speed.py``)."""
        n = len(self.end)
        names = self.names
        layer_of = [nm.split(".")[0] for nm in names]
        layer_ids = {layer: i for i, layer in enumerate(sorted(set(layer_of)))}
        name_layer = [layer_ids[layer] for layer in layer_of]
        base = [nm if not nm.startswith("model.loss.") else "model.loss" for nm in names]
        base_ids = {b: i for i, b in enumerate(sorted(set(base)))}
        name_base = [base_ids[b] for b in base]

        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        layer_mask = [0] * n  # layers of the enclosing spans
        base_mask = [0] * n  # names of the enclosing spans
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
                layer_mask[i] = layer_mask[p] | (1 << name_layer[self.name[p]])
                base_mask[i] = base_mask[p] | (1 << name_base[self.name[p]])

        passes = max(complete_passes, 1)
        timed = [self.pass_index[i] < complete_passes for i in range(n)]
        first = [self.pass_index[i] == 0 for i in range(n)]
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        layer_busy: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i in range(n):
            nid = self.name[i]
            name = names[nid]
            if first[i]:
                calls[base[nid]] += 1
            if not timed[i]:
                continue
            d = duration[i]
            total[name] += d
            count[name] += 1
            self_time[base[nid]] += d - child[i]
            layer_self[layer_of[nid]] += d - child[i]
            if not base_mask[i] >> name_base[nid] & 1:
                busy[base[nid]] += d
            if not layer_mask[i] >> name_layer[nid] & 1:
                layer_busy[layer_of[nid]] += d

        def first_notes(key: str) -> list[float]:
            return [v for p, v in self.notes.get(key, ()) if p == 0]

        def timed_notes(key: str) -> list[float]:
            return [v for p, v in self.notes.get(key, ()) if p < complete_passes]

        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        def per_call_us(name: str) -> float:
            return total[name] / count[name] * 1e6 if count[name] else 0.0

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        attempts = sum(first_notes("checks.search.attempts"))
        out = {
            "model.loss.calls": calls["model.loss"],
            **{f"model.loss.{m}.us_per_call": per_call_us(f"model.loss.{m}") for m in LOSS_MODES},
            "model.train.self_s": self_time["model.train"] / passes,
            "model.rows_per_s": rate(sum(timed_notes("model.row_epochs")), total["model.train"]),
            "model.skipped_strata": sum(first_notes("model.skipped_strata")),
            "metrics.evaluate.self_s": self_time["metrics.evaluate"] / passes,
            "metrics.probe.busy_s": busy["metrics.probe"] / passes,
            "metrics.risk.busy_s": busy["metrics.risk"] / passes,
            "datagen.calls": sum(calls[k] for k in ("datagen.generate", "datagen.ideal_testset", "datagen.shift_testsets")),
            "datagen.rows": sum(first_notes("datagen.rows")),
            "datagen.busy_s": layer_busy["datagen"] / passes,
            "balancing.balance_batch.calls": calls["balancing.balance_batch"],
            "balancing.balance_batch.busy_s": busy["balancing.balance_batch"] / passes,
            "balancing.rows_in": sum(first_notes("balancing.rows_in")),
            "balancing.rows_out": sum(first_notes("balancing.rows_out")),
            "balancing.ess_frac": mean(first_notes("balancing.ess_frac")),
            "balancing.kept_frac": mean(first_notes("balancing.kept_frac")),
            "balancing.dup_frac": mean(first_notes("balancing.dup_frac")),
            "balancing.pair_gap_max": max(first_notes("balancing.pair_gap_max"), default=0.0),
            "balancing.balance_exact.calls": calls["balancing.balance_exact"],
            "balancing.balance_exact.busy_s": busy["balancing.balance_exact"] / passes,
            "bayesnet.factorize.calls": calls["bayesnet.factorize"],
            "bayesnet.factorize.busy_s": busy["bayesnet.factorize"] / passes,
            "bayesnet.d_separated.calls": calls["bayesnet.d_separated"],
            "bayesnet.d_separated.busy_s": busy["bayesnet.d_separated"] / passes,
            "bayesnet.sample_cbn.busy_s": busy["bayesnet.sample_cbn"] / passes,
            "bayesnet.sample_cbn.rows_per_s": rate(sum(timed_notes("bayesnet.sample_cbn.rows")), total["bayesnet.sample_cbn"]),
            "bayesnet.joint.calls": calls["bayesnet.joint"],
            "bayesnet.joint.busy_s": busy["bayesnet.joint"] / passes,
            "tables.is_independent.calls": calls["tables.is_independent"],
            "tables.is_independent.busy_s": busy["tables.is_independent"] / passes,
            "tables.marginalize.calls": calls["tables.marginalize"],
            "tables.empirical_table.busy_s": busy["tables.empirical_table"] / passes,
            "tables.chi2.busy_s": busy["tables.chi2"] / passes,
            "checks.self_s": layer_self["checks"] / passes,
            "checks.search.attempts": attempts,
            "checks.search.hit_frac": sum(first_notes("checks.search.hits")) / attempts if attempts else 0.0,
            "templates.busy_s": layer_busy["templates"] / passes,
            "proc.cpu_frac": cpu_frac,
            "trace.spans": sum(first),
        }
        factor = {"s": scale, "us": scale, "rows/s": 1.0 / scale, "1/s": 1.0 / scale}
        return {k: float(v) * factor.get(LAYER_METRICS[k], 1.0) for k, v in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as parallel columns (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "pass": self.pass_index.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )
