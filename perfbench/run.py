#!/usr/bin/env python3
"""Closed-loop benchmark of grushko on four seeded workloads.

    python3 perfbench/run.py --workload visibility --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One thread: a single caller runs items back to back, in whole rounds,
until at least --seconds have passed.  The process that sets up forks a
worker for each round and waits for it, so that every round starts with
the package's caches as cold as a single verify pass has them.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it plays a
fixed number of rounds, each once untraced and once with the package's
layers wrapped (see tracer.py), and reports per-layer metrics instead.
Every item's output is checked exactly; any failure makes the exit code 1.
The last line of standard output is the result as one JSON object.

The package is imported from `src/` next to this directory; without it, or
if a set-up fails, the benchmark exits with code 2 before printing a
result, and with code 3 if a worker dies.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
# Rounds of the traced pass, whatever --seconds says, so that its counts
# and busy times measure a fixed amount of work.
TRACE_ROUNDS = 8
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# Time of reference_loop on an uncontended core of the 2-core VM the
# benchmark was tuned on; normalized times are scaled to it.
REF_LOOP_S = 5.0e-4


class SetupError(RuntimeError):
    """The package under test is missing, is not the checkout's own, or
    could not be set up."""


class WorkerError(RuntimeError):
    """A round's worker process could not start or died without reporting."""


def import_package():
    """Import grushko from the checkout's src/, never from elsewhere."""
    if not (SRC / "grushko" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'grushko'}")
    sys.path.insert(0, str(SRC))
    import grushko

    if Path(grushko.__file__).resolve().parent != (SRC / "grushko").resolve():
        raise SetupError(f"grushko imported from {grushko.__file__}, not from {SRC}")
    return grushko


def timed_setup(workload: str, seed: int):
    """Import the package and generate the inputs.

    Returns (seconds, normalized seconds, g, rounds); the normalization
    uses the reference loop timed just before and just after (see measure).
    """
    reference_loop()  # the first pass through the loop runs unspecialized
    before = reference_loop()
    t0 = time.perf_counter()
    g = import_package()
    rounds = workloads.make_rounds(g, workload, seed)
    seconds = time.perf_counter() - t0
    norm = seconds * 2 * REF_LOOP_S / (before + reference_loop())
    return seconds, norm, g, rounds


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, normalized seconds) of a set-up in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        raw, norm = proc.stdout.split()
        return float(raw), float(norm)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise SetupError(f"set-up probe failed: {exc}") from exc


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work, collector paused.

    It does none of the program's work, so its time follows only the host:
    on the VM this was built on, contention from outside made it and the
    workloads 1.4-1.9x slower together, for seconds to minutes at a time.
    It has two halves.  An integer loop follows the core's speed alone;
    building and probing a small dict of tuples, lists and strings also
    follows allocation and memory, which allocation-heavy workloads such
    as `unpaired` depend on.  Normalized by either half alone, `unpaired`
    times spread up to twice as much across runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x = (x * 3 + i) & 255
    table = {}
    for i in range(400):
        table[(i, i & 7)] = [i, str(i)]
    for key, value in table.items():
        if (key[0] ^ 5, key[1]) in table:
            x += len(value)
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


@dataclass
class Round:
    """What a worker reports for one round."""

    item_s: list[float]             # per item
    ref_s: list[float]              # reference loop before each item and after the last
    errors: list[str]               # one line per failed item
    peak_rss_mb: float              # the worker's peak resident memory
    layers: object = None           # tracer.Accounting of a traced round


@dataclass
class Measurement:
    done: list[Round] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def item_s(self) -> list[list[float]]:
        return [r.item_s for r in self.done]

    @property
    def ref_s(self) -> list[list[float]]:
        return [r.ref_s for r in self.done]

    @property
    def times(self) -> list[float]:
        return [t for r in self.done for t in r.item_s]

    @property
    def attempted(self) -> int:
        return sum(len(r.item_s) for r in self.done)

    @property
    def failed(self) -> int:
        return sum(len(r.errors) for r in self.done)

    @property
    def errors(self) -> list[str]:
        return [e for r in self.done for e in r.errors][:3]

    @property
    def rounds(self) -> int:
        return len(self.done)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.peak_rss_mb for r in self.done)

    def normalized(self) -> list[list[float]]:
        """Item times scaled by REF_LOOP_S over the reference loop's time
        (the mean of the loops timed just before and just after the item)."""
        return [[t * 2 * REF_LOOP_S / (a + b) for t, a, b in zip(items, refs, refs[1:])]
                for items, refs in zip(self.item_s, self.ref_s)]


def play_round(items, run_item, trace: bool = False) -> Round:
    """Run one round's items back to back; with `trace`, under a new tracer.

    The reference loop runs before each item and after the last one.
    Exceptions and mismatches are recorded, not raised: a failed item costs
    its time and counts toward fail_frac.
    """
    tr = None
    if trace:
        from tracer import Tracer

        tr = Tracer().install()
    clock = time.perf_counter
    start_ns = time.perf_counter_ns()
    times, refs, errors = [], [], []
    for item in items:
        refs.append(reference_loop())
        t0 = clock()
        try:
            run_item(item)
        except Exception as exc:  # every failure mode is a failed item
            errors.append(f"{item.stratum} {item.key()[2]!r}: "
                          + "".join(traceback.format_exception_only(exc)).strip())
        times.append(clock() - t0)
    refs.append(reference_loop())
    layers = tr.totals(time.perf_counter_ns() - start_ns) if tr else None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Round(times, refs, errors, peak, layers)


def in_worker(fn):
    """fn() run in a forked copy of this process; its return value.

    The copy starts from this process's state and exits when fn returns, so
    nothing fn caches or warms outlives it.  Raises WorkerError if the copy
    dies without reporting.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(rfd)
        os.close(wfd)
        raise WorkerError(f"cannot start a worker: {exc}") from exc
    if pid == 0:
        os.close(rfd)
        status = 1
        try:
            with os.fdopen(wfd, "wb") as out:
                pickle.dump(fn(), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as inp:
            data = inp.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise WorkerError(f"a worker exited with code {os.waitstatus_to_exitcode(status)}")
    return pickle.loads(data)


def measure(rounds, run_item, seconds: float) -> Measurement:
    """Play whole rounds, each in a fresh worker, until `seconds` have elapsed."""
    clock = time.perf_counter
    m = Measurement()
    start = clock()
    while m.rounds == 0 or m.elapsed < seconds:
        items = rounds[m.rounds % len(rounds)]
        m.done.append(in_worker(lambda: play_round(items, run_item)))
        m.elapsed = clock() - start
    return m


def traced_pass(rounds, run_item, count: int = TRACE_ROUNDS) -> tuple[Measurement, Measurement]:
    """The first `count` rounds, each played untraced and then traced.

    Playing each round both ways, one right after the other, makes the
    difference between the two the tracer's cost, measured on the same
    work under the same host conditions.
    """
    plain, traced = Measurement(), Measurement()
    start = time.perf_counter()
    for k in range(count):
        items = rounds[k % len(rounds)]
        plain.done.append(in_worker(lambda: play_round(items, run_item)))
        traced.done.append(in_worker(lambda: play_round(items, run_item, trace=True)))
    traced.elapsed = time.perf_counter() - start
    return plain, traced


def exit_code(m: Measurement) -> int:
    return 0 if m.failed == 0 else 1


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) for the highest ladder percentile with >= 10 items beyond."""
    n = len(times)
    for p in reversed(TAIL_LADDER):
        if n * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1] * 1e3
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def throughput(item_s: list[list[float]]) -> float:
    """Items per second of item time, over every round."""
    return sum(map(len, item_s)) / sum(map(sum, item_s))


def p50_ms(item_s: list[list[float]]) -> float:
    """Median item time over every round, in ms."""
    return statistics.median(t for items in item_s for t in items) * 1e3


def end_to_end(m: Measurement, setup_samples: list[tuple[float, float]]) -> dict:
    """The gated metrics: throughput and item time normalized to the host.

    Raw times on the host above spread 20-30% across runs, normalized ones
    3-9%.  Over whole cycles of rounds every seed runs the same inputs, so
    items per second of total item time depends little on the seed.
    """
    norm = m.normalized()
    return {
        "items_per_s.norm": {"value": throughput(norm), "unit": "1/s"},
        "item_ms.p50.norm": {"value": p50_ms(norm), "unit": "ms"},
        "setup_s": {"value": statistics.median(n for _, n in setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": m.peak_rss_mb, "unit": "MB"},
    }


def per_layer(acc, plain: Measurement, traced: Measurement) -> dict:
    """Per-layer figures from the summed accounting of set-up and traced rounds.

    Counts and busy times are totals over the traced pass's fixed rounds;
    canonical_pair's distinct inputs are counted per round and summed, as
    each round is a fresh process.
    """
    from tracer import MODULES

    c = acc.counters
    out: dict[str, tuple[float, str]] = {}

    def calls_s(name: str, calls: bool = True):
        if calls:
            out[f"{name}.calls"] = (acc.calls[name], "count")
        out[f"{name}.s"] = (acc.busy_ns[name] / 1e9, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls_s("kernels.sweep_visible")
    out["kernels.words_enumerated"] = (c["kernels.words_enumerated"], "count")
    out["kernels.visible_words"] = (c["kernels.visible_words"], "count")
    calls_s("factors.canonical_pair")
    distinct = c["factors.canonical_pair.distinct"]
    out["factors.canonical_pair.distinct"] = (distinct, "count")
    out["factors.canonical_pair.reuse"] = (
        1 - ratio(distinct, acc.calls["factors.canonical_pair"])
        if acc.calls["factors.canonical_pair"] else 0.0, "ratio")
    for fn in ("visible_classes", "visible_classes_brute", "is_visible",
               "certify_partial_basis", "bp_fiber"):
        calls_s(f"visibility.{fn}")
    calls_s("membership.is_basis")
    calls_s("membership.fold")
    out["membership.is_basis.true_frac"] = (
        ratio(c["membership.is_basis.true"], acc.calls["membership.is_basis"]), "ratio")
    out["membership.fold.vertices"] = (c["membership.fold.vertices"], "count")
    calls_s("topology.Poset.order_complex")
    for d in range(4):
        out[f"topology.simplices.d{d}"] = (c[f"topology.simplices.d{d}"], "count")
    for fieldname in ("Q", "F2", "F3"):
        calls_s(f"topology.matrix_rank.{fieldname}", calls=False)
    out["topology.matrix_rank.cols"] = (c["topology.matrix_rank.cols"], "count")
    calls_s("topology.matrix_snf", calls=False)
    out["topology.ChainComplex.builds_per_complex"] = (
        ratio(c["topology.ChainComplex.builds"], c["topology.complexes"]), "builds/complex")
    calls_s("basis_complex.build_unpaired_radius")
    out["basis_complex.certified_frac"] = (
        ratio(c["basis_complex.certified"],
              c["basis_complex.certified"] + c["basis_complex.uncertified"]), "ratio")
    calls_s("basis_complex.connectivity_report", calls=False)
    calls_s("trees.enumerate_shapes", calls=False)
    for module in MODULES:
        out[f"{module}.self_s"] = (acc.self_ns[module] / 1e9, "s")
    out["bench.self_s"] = (acc.residual_ns / 1e9, "s")
    # measured: normalized item time traced over the same rounds untraced
    out["trace.overhead_frac"] = (
        sum(map(sum, traced.normalized())) / sum(map(sum, plain.normalized())) - 1, "ratio")
    out["trace.wall_s"] = (acc.wall_ns / 1e9, "s")
    out["trace.items_per_s"] = (throughput(traced.item_s), "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def metadata(load_at_start: tuple[float, float, float]) -> dict:
    """What identifies the program and machine a run measured."""
    from importlib import metadata as md

    def version(dist: str):
        try:
            return md.version(dist)
        except md.PackageNotFoundError:
            return None

    # a checkout that is not itself a repository has no sha; the ceiling
    # keeps git from searching the directories above it
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except Exception:  # a broken install fails in many ways; all mean "no numba"
        numba_imports = False
    kernels = sys.modules.get("grushko.kernels")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba_imports": numba_imports,
        "sweep_backend": getattr(kernels, "BACKEND", None) if kernels else None,
        "nproc": os.cpu_count(),
        "loadavg_start": load_at_start,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("GRUSHKO_")},
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load = os.getloadavg()
    if trace:
        g = import_package()
        from tracer import Tracer

        tr = Tracer().install()
        t0 = time.perf_counter_ns()
        rounds = workloads.make_rounds(g, workload, seed)
        acc = tr.totals(time.perf_counter_ns() - t0)
        tr.uninstall()
        plain, m = traced_pass(rounds, lambda item: workloads.run_item(g, item))
        for r in m.done:
            acc.add(r.layers)
        metrics = per_layer(acc, plain, m)
        m.done += plain.done  # both passes count toward attempted and failed
        if tr.absent:
            print(f"absent layers: {', '.join(tr.absent)}")
    else:
        raw, norm, g, rounds = timed_setup(workload, seed)
        samples = [(raw, norm)] + [setup_probe(workload, seed) for _ in range(SETUP_REPEATS - 1)]
        m = measure(rounds, lambda item: workloads.run_item(g, item), seconds)
        metrics = end_to_end(m, samples)
    report(workload, seed, m, metrics, trace, setup_raw=statistics.median(r for r, _ in samples)
           if not trace else None)
    print("meta " + json.dumps(metadata(load), sort_keys=True))
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return exit_code(m)


def report(workload: str, seed: int, m: Measurement, metrics: dict, trace: bool,
           setup_raw: float | None) -> None:
    """Human-readable lines; the end-to-end view names all six metrics."""
    print(f"workload {workload}  seed {seed}  rounds {m.rounds}  items {m.attempted}  "
          f"failed {m.failed}  elapsed {m.elapsed:.2f} s  trace {int(trace)}")
    for err in m.errors:
        print(f"  FAILED {err}", file=sys.stderr)
    rows = {k: (v["value"], v["unit"], "") for k, v in metrics.items()}
    if not trace:
        t = tail(m.times)
        refs = [r for round_refs in m.ref_s for r in round_refs]
        rows.update({
            "items_per_s": (throughput(m.item_s), "1/s", "raw"),
            "item_ms.p50": (p50_ms(m.item_s), "ms", "raw"),
            "item_ms.tail": (t[1], "ms", f"raw, p{t[0]:g} of {m.attempted} items") if t else (
                float("nan"), "ms", f"omitted: {m.attempted} items"),
            "fail_frac": (m.failed / m.attempted, "ratio", ""),
            "setup_s": rows["setup_s"][:2] + (f"median of {SETUP_REPEATS} set-ups, normalized",),
            "setup_s.raw": (setup_raw, "s", "raw"),
            "reference_loop_us": (statistics.median(refs) * 1e6, "us",
                                  f"median; normalized times assume {REF_LOOP_S * 1e6:g}"),
        })
        order = ("items_per_s", "item_ms.p50", "item_ms.tail", "fail_frac", "setup_s.raw",
                 "peak_rss_mb", "items_per_s.norm", "item_ms.p50.norm", "setup_s",
                 "reference_loop_us")
        rows = {k: rows[k] for k in order}
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<44s} {value:>14.6g} {unit:<14s} {note}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so memory peaks stay apart."""
    results = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):  # 1 still prints a result; 2 and 3 do not
            return proc.returncode
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(*timed_setup(args.workload, args.seed)[:2])
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
