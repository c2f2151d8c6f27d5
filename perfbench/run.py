#!/usr/bin/env python3
"""The cmfields benchmark: pinned CLI workloads, end-to-end timings, and a
traced run that times each layer.

    python3 perfbench/run.py --workload cyclo_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 90 [--trace 1]
    python3 perfbench/run.py --smoke

Run from anywhere; paths resolve against this checkout.  Each repetition
("rep") is a fresh child interpreter running `cmfields.cli.main`, one at a
time, so imports and the program's lru_caches start empty as they do for a
user.  Every rep's stdout is checked against the pinned seed output, line by
line per item (one table row or one sweep check).

A round runs each chosen workload once, in a seeded order (--workload all
interleaves all four); rounds repeat until the next one would overrun
--seconds.  With --trace 0 the run reports the median over reps of each
end-to-end metric.  With --trace 1 each round runs an untraced and a traced
rep and the run reports per-layer self times, exact work counters and the
tracing overhead.  The last line of stdout is one JSON object {correct,
attempted, failed, metrics}; the lines above it give every metric by name
with its unit, quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # one invocation ends within this, children included

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACED_TIMES = (
    "cyclotomic.norm", "hminus", "hminus.bernoulli", "characters.conductor",
    "characters.enumerate", "characters.orbits", "fields.build",
    "fields.roots_of_unity", "fields.decompose", "unitindex", "cli",
)
# Layers a table or a sweep never enters: their self time is exactly 0 on
# some workloads, so they are printed but left out of the JSON metrics.
UNTIMED_IN_JSON = ("fieldspec", "quadratic", "theorems")
TRACED_COUNTS = (
    "cyclotomic.norm.calls", "cyclotomic.norm.conjugates",
    "cyclotomic.norm.max_phi", "hminus.orbit_norms",
    "hminus.orbit_norms_distinct", "characters.conductor.calls",
    "characters.enumerate.chars", "fields.build.calls",
    "fields.roots_of_unity.calls", "unitindex.calls", "quadratic.calls",
    "fieldspec.calls", "theorems.calls",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad pinned data)."""


# -- workloads and pinned output ---------------------------------------------


@dataclass
class Workload:
    name: str
    cli: list
    item: str
    header_lines: int
    expected: str
    sha256: str
    specs: list = field(default_factory=list)
    why: str = ""
    notes: dict = field(default_factory=dict)  # seed profile, for readers

    def argv(self, seed: int) -> list:
        """CLI arguments; --spec lists are shuffled by the seed, the
        sweeps and ranges are fixed by the CLI itself."""
        specs = list(self.specs)
        random.Random(seed).shuffle(specs)
        return self.cli + [a for s in specs for a in ("--spec", s)]

    def expected_lines(self, argv: list) -> tuple[list, list]:
        """(header lines, one expected line per item) for this argv."""
        data = (HERE / self.expected).read_bytes()
        if hashlib.sha256(data).hexdigest() != self.sha256:
            raise BenchError(f"pinned output {self.expected} does not match its digest")
        lines = data.decode().splitlines(keepends=True)
        head, items = lines[: self.header_lines], lines[self.header_lines:]
        if self.specs:
            by_field = {line.split(",", 1)[0]: line for line in items}
            order = [argv[i + 1] for i, a in enumerate(argv) if a == "--spec"]
            items = [by_field[s] for s in order]
        return head, items


def load_config() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def load_workloads() -> dict:
    cfg = load_config()
    return {name: Workload(name=name, **spec) for name, spec in cfg["workloads"].items()}


def compare(stdout: str, head: list, items: list, raised=()) -> tuple[int, list]:
    """Failed item count and problem descriptions.  An item fails when its
    line differs from the pinned one, is missing, or its call raised."""
    lines = stdout.splitlines(keepends=True)
    problems = []
    if lines[: len(head)] != head:
        problems.append("header lines differ from the pinned output")
    got = lines[len(head):]
    bad = {i for i, want in enumerate(items) if i >= len(got) or got[i] != want}
    bad |= {i for i in raised if i < len(items)}
    if len(got) > len(items):
        problems.append(f"{len(got) - len(items)} lines beyond the pinned output")
    for i in sorted(bad)[:3]:
        problems.append(f"item {i}: expected {items[i]!r}, got "
                        f"{got[i] if i < len(got) else None!r}")
    return len(bad), problems


# -- one child interpreter ----------------------------------------------------


@dataclass
class Rep:
    stdout: str
    wall_s: float
    setup_s: float
    items_ms: list
    rss_mb: float
    attempted: int
    failed: int
    problems: list
    trace: dict | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run_child(wl: Workload, argv: list, deadline: float, trace=False) -> Rep:
    """One fresh interpreter running the workload's CLI invocation."""
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{wl.name}.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path),
           "--item", wl.item]
    if trace:
        cmd += ["--trace", str(OUT / f"{wl.name}.spans.tsv")]
    timeout = max(1.0, deadline - time.monotonic())
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns), "--", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{wl.name}: child exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0 or not report_path.exists():
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchError(f"{wl.name}: child exited with code {proc.returncode}")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    if report["setup_ns"] is None:
        raise BenchError(f"{wl.name}: the CLI returned {report['rc']} before its first item")
    head, items = wl.expected_lines(argv)
    stdout = out.decode()
    failed, problems = compare(stdout, head, items, report["raised"])
    if report["rc"] != 0:
        problems.append(f"exit code {report['rc']}, pinned 0")
    if len(report["item_start_ns"]) != len(items):
        problems.append(f"{len(report['item_start_ns'])} item calls, pinned {len(items)}")
    if stdout != "".join(head + items):
        problems.append("stdout differs from the pinned output")
    starts, ends = report["item_start_ns"], report["item_end_ns"]
    return Rep(stdout=stdout, setup_s=report["setup_ns"] / 1e9,
               wall_s=(ends[-1] - starts[0]) / 1e9 if starts else 0.0,
               items_ms=[(e - s) / 1e6 for s, e in zip(starts, ends)],
               rss_mb=report["maxrss_kb"] / 1024, attempted=len(items),
               failed=failed, problems=problems, trace=report.get("trace"))


# -- statistics ---------------------------------------------------------------


def tail_level(n: int) -> int:
    """Highest percentile with at least ten items beyond it; 100 (the
    slowest item) when even p90 has fewer."""
    for p in (99, 98, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def percentile(values: list, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def probe_ms() -> float:
    """Fixed pure-Python loop, timed beside each round to show host drift.
    Reported only; never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def rep_metrics(rep: Rep) -> dict:
    items = rep.items_ms
    return {
        "wall_s": rep.wall_s,
        "item_p50_ms": statistics.median(items),
        "item_tail_ms": percentile(items, tail_level(len(items))),
        "setup_s": rep.setup_s,
        "peak_rss_mb": rep.rss_mb,
    }


# -- measurement --------------------------------------------------------------


@dataclass
class Series:
    """Everything measured for one workload in one invocation."""
    wl: Workload
    reps: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    def problems(self) -> list:
        return [p for r in self.reps + self.traced for p in r.problems]

    def attempted(self) -> int:
        return sum(r.attempted for r in self.reps + self.traced)

    def failed(self) -> int:
        return sum(r.failed for r in self.reps + self.traced)


def measure_round(s: Series, argv: list, deadline: float, trace: bool) -> None:
    s.probes.append(probe_ms())
    if trace:
        plain = run_child(s.wl, argv, deadline)
        traced = run_child(s.wl, argv, deadline, trace=True)
        if traced.stdout != plain.stdout:
            traced.problems.append("traced stdout differs from untraced stdout")
        s.reps.append(plain)
        s.traced.append(traced)
    else:
        s.reps.append(run_child(s.wl, argv, deadline))
    r = s.reps[-1]
    print(f"  round {len(s.probes)}: {s.wl.name} wall_s={r.wall_s:.4f} "
          f"setup_s={r.setup_s:.4f} probe_ms={s.probes[-1]:.2f} "
          f"{'ok' if r.correct else 'MISMATCH'}", flush=True)


def end_to_end(s: Series) -> dict:
    per_rep = [rep_metrics(r) for r in s.reps]
    return {name: [m[name] for m in per_rep] for name in per_rep[0]}


def per_layer(s: Series) -> dict:
    """Median self times over traced reps, the counters (identical on every
    traced rep, else the run is not correct) and the tracing overhead."""
    first = s.traced[0].trace
    for rep in s.traced[1:]:
        drift = [k for k in first if not k.endswith("_s") and rep.trace[k] != first[k]]
        if drift:
            rep.problems.append(f"counters differ between traced reps: {drift}")
    out = {}
    for layer in TRACED_TIMES + UNTIMED_IN_JSON:
        out[f"{layer}.self_s"] = [r.trace[f"{layer}.self_s"] for r in s.traced]
    out["trace.overhead_s"] = [t.wall_s - p.wall_s for t, p in zip(s.traced, s.reps)]
    for key in TRACED_COUNTS:
        out[key] = [first[key]]
    out["hminus.orbit_reuse"] = [first["hminus.orbit_norms_distinct"]
                                 / max(1, first["hminus.orbit_norms"])]
    for key in sorted(first):
        if key.startswith("unitindex.rule."):
            out[key] = [first[key]]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("reuse") else "count"


def metric_table(s: Series, trace: bool) -> dict:
    """name -> (samples, unit) for the per-layer or end-to-end metrics."""
    if trace:
        return {k: (v, layer_unit(k)) for k, v in per_layer(s).items()}
    return {k: (v, END_TO_END[k]) for k, v in end_to_end(s).items()}


def json_metrics(table: dict, trace: bool, prefix="") -> dict:
    return {prefix + name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in table.items()
            if not (trace and name.removesuffix(".self_s") in UNTIMED_IN_JSON)}


def summarize(s: Series, trace: bool, prefix="") -> dict:
    """Print every metric with unit and quartiles; return JSON metrics."""
    table = metric_table(s, trace)
    if trace:
        print(f"{s.wl.name}: traced reps={len(s.traced)}, spans={s.traced[0].trace['spans']}")
    else:
        n_items = len(s.reps[0].items_ms)
        print(f"{s.wl.name}: reps={len(s.reps)}, items/rep={n_items}, "
              f"item_tail_ms is p{tail_level(n_items)}")
    for name, (values, unit) in table.items():
        q1, med, q3 = quartiles(values)
        shown = f"{med:>14.6f}" if isinstance(med, float) else f"{med:>14}"
        spread = f"[q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)}]" if len(values) > 1 else ""
        print(f"  {name:<42} {shown} {unit:<5} {spread}")
    fail_ratio = s.failed() / max(1, s.attempted())
    print(f"  {'fail_ratio':<42} {fail_ratio:>14.6f} ratio "
          f"[{s.failed()} failed of {s.attempted()} items]")
    q1, med, q3 = quartiles(s.probes)
    print(f"  {'probe_ms (host drift, not a metric)':<42} {med:>14.6f} ms    "
          f"[q1 {q1:.6f}, q3 {q3:.6f}, n={len(s.probes)}]")
    return json_metrics(table, trace, prefix)


def build() -> None:
    """The program is pure Python: byte-compile it so set-up times every
    rep with the same warm bytecode cache."""
    if not (ROOT / "src" / "cmfields" / "cli.py").is_file():
        raise BenchError(f"no cmfields sources under {ROOT / 'src'}")
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        raise BenchError("byte-compiling src/ failed")


def run(workloads: list, seed: int, seconds: float, trace: bool, deadline: float) -> list:
    """Rounds of every given workload, in a seeded order per round, until
    the next round would overrun --seconds (at least one round)."""
    series = [Series(wl) for wl in workloads]
    rng = random.Random(seed)
    t0 = time.monotonic()
    while True:
        t_round = time.monotonic()
        order = list(series)
        rng.shuffle(order)
        for s in order:
            measure_round(s, s.wl.argv(seed), deadline, trace)
        if any(s.problems() for s in series):
            break
        now = time.monotonic()
        if now - t0 + (now - t_round) > seconds:
            break
    return series


def emit(series: list, trace: bool, multi: bool) -> bool:
    metrics = {}
    for s in series:
        metrics.update(summarize(s, trace, prefix=f"{s.wl.name}." if multi else ""))
    problems = [p for s in series for p in s.problems()]
    for p in problems:
        print(f"MISMATCH: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s.attempted() for s in series),
        "failed": sum(s.failed() for s in series),
        "metrics": metrics,
    }))
    return correct


# -- self-checks --------------------------------------------------------------


def smoke() -> bool:
    """The benchmark's own checks on a tiny table."""
    wl = Workload(name="smoke", **{k: v for k, v in load_config()["smoke"].items()})
    argv = wl.argv(0)
    deadline = time.monotonic() + RUN_LIMIT_S
    head, items = wl.expected_lines(argv)
    checks = []

    plain = run_child(wl, argv, deadline)
    checks.append(("pinned output matches, no failed item",
                   plain.correct and plain.failed == 0 and plain.attempted == len(items)))

    wrong = list(items)
    wrong[2] = "not " + wrong[2]
    failed, problems = compare(plain.stdout, head, wrong)
    checks.append(("a wrong expected line is one failed item",
                   failed == 1 and len(problems) == 1))

    traced = [run_child(wl, argv, deadline, trace=True) for _ in range(2)]
    checks.append(("traced stdout equals untraced stdout",
                   all(t.stdout == plain.stdout for t in traced)))
    a, b = (t.trace for t in traced)
    keys = [k for k in a if not k.endswith("_s")]
    checks.append(("counters repeat exactly", all(a[k] == b[k] for k in keys)))
    checks.append(("orbit norms counted", a["hminus.orbit_norms"] > 0))

    s = Series(wl, reps=[plain], traced=traced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        emitted = json_metrics(metric_table(s, trace), trace)
        want = {m["name"]: m["unit"] for m in declared[section]}
        checks.append((f"result metrics are BENCHMARK.json's {section}",
                       {k: v["unit"] for k, v in emitted.items()} == want))

    for name, ok in checks:
        print(f"[{'pass' if ok else 'FAIL'}] {name}")
    return all(ok for _, ok in checks)


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the self-checks")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        build()
        if args.smoke:
            return 0 if smoke() else 1
        workloads = load_workloads()
        if args.workload == "all":
            chosen = list(workloads.values())
        elif args.workload in workloads:
            chosen = [workloads[args.workload]]
        else:
            ap.error(f"--workload must be one of {sorted(workloads)} or 'all'")
        series = run(chosen, args.seed, args.seconds, bool(args.trace), deadline)
        return 0 if emit(series, bool(args.trace), args.workload == "all") else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
