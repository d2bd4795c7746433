"""Alternating parent/change pairs of ``bench/run.py``, summarized per metric.

    python3 tools/bench_pairs.py --parent /path/to/parent --change . \\
        --workload paper-grid --seeds 701-710 --seconds 30

Each pair runs ``bench/run.py`` once in each checkout, with the same seed and
settings; which side runs first alternates from pair to pair.  For every
metric of the result line the summary gives each side's median and
quartiles, the change in the medians, and how many pairs the change won
(ties count for neither side), using the ``better`` direction that the
change's ``BENCHMARK.json`` gives the metric.  A gain holds when at least
ten pairs ran, the change won at least nine in ten of them and its median
beats the parent's by more than the parent's interquartile distance.
Each end-to-end metric with a ``bound`` in that file also gets a
no-regression verdict: *unresolved* when the parent's quartile spread,
relative to its median, is wider than the bound (unless every change run
beats every parent run), else *worse beyond bound* when the change's median
is worse than the parent's by more than the bound, relative to the parent's,
else *within bound*.
Under the table it gives each side's median count of attempted tasks: a
faster side runs more tasks in the same seconds, and ``peak_rss_mb`` grows
with the number of tasks run, so a memory change is read against it.
Next it gives each side's median in-process set-up and median replica
set-up, read from the record's ``setup_samples_s`` (the run's own set-up
first, then those of its ``--setup-only`` replicas), since ``setup_s`` is
the median of both kinds and they can disagree.
Then it gives each checkout's line count of the package source,
``src/balancelab``, and of its tests, ``tests`` (so a change that moves
code from the package into the tests shows both sides of the move), and
under them the package's count of settable values, each with the change in
it.  A settable value is a parameter with a default
of a public function or method, or an ``__init__`` field with a default or
``default_factory`` of a public dataclass.  Under those it gives each side's
public names in the package that no module reads, with the change in their
count: a function, class, constant or public method of a public class whose
name appears nowhere in ``src/`` or in ``bench/`` outside ``bench/tests``,
as a name, an attribute or a part of a dotted string constant (the tracer
names its targets by such strings); its own definition does not count.

Each run's ``{"record": ...}`` line also carries the means of the
workload's quality outputs over its first pass.  For every seed the summary
says whether the two sides' means are equal, and it names the first seed
and metric where they differ, so a change meant to keep every output
bit-identical shows that end to end at no extra run cost.

Uses the standard library only, so it runs with any interpreter that can
run the benchmark.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass

MIN_PAIRS = 10  # a claimed gain needs at least this many pairs
WIN_SHARE = 0.9  # and the change to win this share of them
STDERR_TAIL = 20  # lines of a failed run's stderr that the error quotes
SOURCE = "src/balancelab"  # the package whose lines each checkout reports
TESTS = "tests"  # and its tests, whose lines are reported under it


@dataclass(frozen=True)
class Spread:
    q1: float
    median: float
    q3: float


@dataclass(frozen=True)
class Row:
    metric: str
    better: str | None  # "lower", "higher", or None when BENCHMARK.json does not list the metric
    parent: Spread
    change: Spread
    wins: int | None  # pairs the change won; None without a direction
    pairs: int
    bound: float | None = None  # the largest relative worsening allowed; None for a metric without one
    beats_all: bool = False  # every change run beats every parent run

    @property
    def verdict(self) -> str | None:
        """"within bound", "worse beyond bound" or "unresolved"; None without a direction or bound."""
        if self.better is None or self.bound is None:
            return None
        if self.beats_all:
            return "within bound"
        base = abs(self.parent.median)
        if not base or (self.parent.q3 - self.parent.q1) / base > self.bound:
            return "unresolved"
        step = (self.change.median - self.parent.median) / base
        return "worse beyond bound" if (step if self.better == "lower" else -step) > self.bound else "within bound"

    @property
    def gain_holds(self) -> bool:
        """Ten pairs or more, nine wins in ten, and a median gain beyond the parent's quartile spread."""
        if self.better is None or self.wins is None or self.pairs < MIN_PAIRS:
            return False
        step = self.change.median - self.parent.median
        gain = -step if self.better == "lower" else step
        return self.wins >= WIN_SHARE * self.pairs and gain > self.parent.q3 - self.parent.q1


def spread(values: list[float]) -> Spread:
    """Median and quartiles (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return Spread(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Spread(q1, median, q3)


def summarize(
    pairs: list[tuple[dict[str, float], dict[str, float]]], better: dict[str, str], bound: dict[str, float] | None = None
) -> list[Row]:
    """One row per metric present on both sides of every pair, in the order
    of the first parent run; each pair is (parent metrics, change metrics).
    ``bound`` maps an end-to-end metric to its allowed relative worsening."""
    if not pairs:
        raise ValueError("no pairs to summarize")
    rows = []
    for name in pairs[0][0]:
        if not all(name in p and name in c for p, c in pairs):
            continue
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        direction = better.get(name)
        wins, beats_all = None, False
        if direction is not None:
            wins = sum((n < o) if direction == "lower" else (n > o) for o, n in zip(old, new))
            beats_all = max(new) < min(old) if direction == "lower" else min(new) > max(old)
        limit = (bound or {}).get(name)
        rows.append(Row(name, direction, spread(old), spread(new), wins, len(pairs), limit, beats_all))
    return rows


def format_rows(rows: list[Row]) -> str:
    def cell(s: Spread) -> str:
        return f"{s.median:.6g} [{s.q1:.6g}, {s.q3:.6g}]"

    lines = [f"{'metric':<40} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} {'change':>8} {'wins':>7}"]
    lines[0] += "  verdict"
    for r in rows:
        rel = f"{(r.change.median - r.parent.median) / abs(r.parent.median):+.1%}" if r.parent.median else "-"
        wins = "-" if r.wins is None else f"{r.wins}/{r.pairs}"
        notes = [note for note in (r.verdict, "gain holds" if r.gain_holds else None) if note]
        line = f"{r.metric:<40} {cell(r.parent):<36} {cell(r.change):<36} {rel:>8} {wins:>7}"
        lines.append(line + "".join(f"  {note}" for note in notes))
    return "\n".join(lines)


def _metrics(checkout: str) -> tuple[list[dict], list[dict]]:
    """The end-to-end and per-layer metric entries of the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec.get("end_to_end", []), spec.get("per_layer", [])


def directions(checkout: str) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    end_to_end, per_layer = _metrics(checkout)
    return {m["name"]: m["better"] for m in end_to_end + per_layer}


def bounds(checkout: str) -> dict[str, float]:
    """End-to-end metric name -> its ``bound``, from the checkout's BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _metrics(checkout)[0] if "bound" in m}


def same_quality(seeds: list[int], qualities: list[tuple[dict[str, float], dict[str, float]]]) -> list[str]:
    """One line per seed saying whether the parent's and the change's quality
    means (a pair of name -> value dicts) are equal, then a verdict line
    naming the first seed and metric that differ.  Values are compared
    exactly; NaN equals NaN."""
    if not any(old or new for old, new in qualities):
        return ["no quality means to compare"]
    lines, first = [], None
    for seed, (old, new) in zip(seeds, qualities):
        differ = [k for k in sorted(old.keys() | new.keys()) if repr(old.get(k)) != repr(new.get(k))]
        lines.append(f"seed {seed}: quality means " + (f"differ in {', '.join(differ)}" if differ else "equal"))
        if differ and first is None:
            first = f"seed {seed}, {differ[0]}: parent {old.get(differ[0])!r}, change {new.get(differ[0])!r}"
    lines.append(f"quality means first differ at {first}" if first else "quality means equal at every seed")
    return lines


def attempted_line(counts: list[tuple[int, int]]) -> str:
    """Each side's median number of attempted tasks over the pairs, each
    pair being (parent count, change count), and the change in the medians."""
    old, new = (statistics.median(side) for side in zip(*counts))
    rel = f"{(new - old) / old:+.1%}" if old else "-"
    return f"attempted tasks, median: parent {old:g}, change {new:g} ({rel})"


def setup_line(samples: list[tuple[list[float] | None, list[float] | None]]) -> str:
    """Each side's median in-process set-up and median replica set-up, each
    pair being (parent samples, change samples) as a record's
    ``setup_samples_s`` lists them: the in-process set-up first, then the
    replicas, which are pooled over the pairs.  Traced runs record none."""
    if not all(runs and len(runs) > 1 for pair in samples for runs in pair):
        return "set-up samples: none recorded"
    parts = []
    for side, runs in zip(("parent", "change"), zip(*samples)):
        own = statistics.median(r[0] for r in runs)
        replica = statistics.median(x for r in runs for x in r[1:])
        parts.append(f"{side} {own:.4g} / {replica:.4g} s")
    return "set-up, median in-process / replica: " + ", ".join(parts)


def _py_texts(top: str, skip: str | None = None) -> dict[str, str]:
    """The text of every ``.py`` file under ``top``, by its path relative to
    ``top``, leaving out the directory ``skip`` (relative to ``top``)."""
    texts = {}
    for root, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs if os.path.relpath(os.path.join(root, d), top) != skip]
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    texts[os.path.relpath(path, top)] = f.read()
    return texts


def _package_texts(checkout: str) -> dict[str, str]:
    """The text of every ``.py`` file under the checkout's ``src/balancelab``,
    by its path relative to it."""
    package = os.path.join(checkout, SOURCE)
    if not os.path.isdir(package):
        raise FileNotFoundError(f"{checkout}: no {SOURCE} directory")
    return _py_texts(package)


def _newlines(texts: dict[str, str]) -> int:
    """The newline count of ``texts``, as ``wc -l`` counts them."""
    return sum(text.count("\n") for text in texts.values())


def source_lines(checkout: str) -> int:
    """The line count of every ``.py`` file under the checkout's ``src/balancelab``."""
    return _newlines(_package_texts(checkout))


def suite_lines(checkout: str) -> int:
    """The line count of every ``.py`` file under the checkout's ``tests``;
    0 if it has none."""
    return _newlines(_py_texts(os.path.join(checkout, TESTS)))


def lines_line(parent: int, change: int, top: str = SOURCE) -> str:
    """Each side's line count of ``top`` and the change in it."""
    return f"{top} lines: parent {parent}, change {change} ({change - parent:+d})"


def _named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is ``name``, ``module.name``, or either subscripted or called."""
    node = node.value if isinstance(node, ast.Subscript) else node.func if isinstance(node, ast.Call) else node
    return node.id == name if isinstance(node, ast.Name) else isinstance(node, ast.Attribute) and node.attr == name


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _field_defaults(cls: ast.ClassDef) -> int:
    """The ``__init__`` fields of a dataclass body that have a default or ``default_factory``."""
    count = 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or stmt.value is None or _named(stmt.annotation, "ClassVar"):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _named(value, "field"):
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if (isinstance(init, ast.Constant) and init.value is False) or not {"default", "default_factory"} & set(keywords):
                continue
        count += 1
    return count


def settable_values(checkout: str) -> int:
    """The count of settable values in the checkout's ``src/balancelab``:
    defaulted parameters of public module-level functions and of the public
    methods of public classes, and defaulted ``__init__`` fields of public
    dataclasses."""
    count = 0
    for text in _package_texts(checkout).values():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                count += _defaults(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                count += sum(_defaults(m) for m in methods if not m.name.startswith("_"))
                if any(_named(d, "dataclass") for d in node.decorator_list):
                    count += _field_defaults(node)
    return count


def settable_line(parent: int, change: int) -> str:
    """Each side's count of settable values and the change in it."""
    return f"{SOURCE} settable values: parent {parent}, change {change} ({change - parent:+d})"


def _public_names(checkout: str) -> dict[str, str]:
    """The public names that the checkout's ``src/balancelab`` defines, each
    as its dotted path in the package -> the name: module-level functions,
    classes and assigned constants, and the methods (properties included) of
    public classes, each public when it does not start with ``_``."""
    names = {}
    for path, text in _package_texts(checkout).items():
        module = os.path.splitext(path)[0].replace(os.sep, ".")
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            else:
                continue
            for name in defined:
                if not name.startswith("_"):
                    names[f"{module}.{name}"] = name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_"):
                        names[f"{module}.{node.name}.{method.name}"] = method.name
    return names


def _references(checkout: str) -> set[str]:
    """Every name that the checkout's ``src/`` and ``bench/`` (but not
    ``bench/tests``) read: each loaded or deleted name and attribute, and
    each part of a string constant that is a dotted name, as the tracer
    names its targets."""
    texts = list(_py_texts(os.path.join(checkout, "src")).values())
    texts += _py_texts(os.path.join(checkout, "bench"), skip="tests").values()
    seen = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    seen.update(parts)
    return seen


def unreferenced_names(checkout: str) -> list[str]:
    """The dotted paths of the checkout's public names (``_public_names``)
    that no module in ``_references`` reads, sorted; a name counts as read
    wherever it appears, whatever object it is read from."""
    seen = _references(checkout)
    return sorted(path for path, name in _public_names(checkout).items() if name not in seen)


def unreferenced_lines(parent: list[str], change: list[str]) -> list[str]:
    """Each side's count of unreferenced public names and the change in it,
    then each side's names."""
    lines = [f"{SOURCE} unreferenced public names: parent {len(parent)}, change {len(change)} ({len(change) - len(parent):+d})"]
    for side, names in (("parent", parent), ("change", change)):
        lines.append(f"  {side}: {', '.join(names) or 'none'}")
    return lines


def parse_run(stdout: str) -> tuple[dict[str, float], dict[str, float], list[float] | None, dict]:
    """The metric values, the quality means, the set-up samples and the
    result line of one ``bench/run.py`` output; a run without quality
    outputs has none, and a traced run no set-up samples."""
    lines = stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    quality = {name: entry["value"] for name, entry in record.get("quality", {}).items()}
    return metrics, quality, record.get("setup_samples_s"), result


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int):
    """The metric values, quality means, attempted task count and set-up
    samples of one ``bench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
        raise RuntimeError(f"{checkout}: bench/run.py exited with {done.returncode} at seed {seed}; its stderr ends:\n{tail}")
    metrics, quality, setups, result = parse_run(done.stdout)
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} tasks failed at seed {seed}")
    return metrics, quality, result["attempted"], setups


def parse_seeds(text: str) -> list[int]:
    """'701-710', '701,703,705' or both joined by commas, as '701-705,710'.
    An empty part or a range that runs backwards is an argparse error."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} in {text!r} is neither a seed nor a range lo-hi") from None
        if first > last:
            raise argparse.ArgumentTypeError(f"range {part!r} in {text!r} runs backwards")
        seeds += range(first, last + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="one pair per seed: 701-710 or 701,702")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a wrong checkout fails before any run
    lines = lines_line(source_lines(args.parent), source_lines(args.change))
    tests = lines_line(suite_lines(args.parent), suite_lines(args.change), TESTS)
    settable = settable_line(settable_values(args.parent), settable_values(args.change))
    unreferenced = unreferenced_lines(unreferenced_names(args.parent), unreferenced_names(args.change))

    pairs, qualities, attempted, setups = [], [], [], []
    for i, seed in enumerate(args.seeds):
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            checkout = getattr(args, side)
            sides[side] = run_once(checkout, args.workload, seed, args.seconds, args.trace)
        pairs.append((sides["parent"][0], sides["change"][0]))
        qualities.append((sides["parent"][1], sides["change"][1]))
        attempted.append((sides["parent"][2], sides["change"][2]))
        setups.append((sides["parent"][3], sides["change"][3]))
        print(json.dumps({"seed": seed, **sides}), file=sys.stderr, flush=True)
    print(format_rows(summarize(pairs, directions(args.change), bounds(args.change))))
    print(attempted_line(attempted))
    print(setup_line(setups))
    print(lines)
    print(tests)
    print(settable)
    print("\n".join(unreferenced))
    print("\n".join(same_quality(args.seeds, qualities)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
