"""Seeded, stdlib-only benchmark of rewb, measured through its public functions.

Run from the repository root:

    python3 bench/run.py --workload rpq --seed 1 --seconds 50 --trace 0

One workload runs in one process: one client, a closed loop, no threads.
The run generates its inputs from the seed, sets up, then runs whole rounds
(every distinct operation of the workload once, in a seeded shuffled order)
until the operations have taken ``--seconds``. Every answer is checked
against an independent reference after the timed loop; an operation that
raises or answers wrongly is counted as failed and the run goes on.

Latency metrics take each operation at its fastest repetition in the run
(see ``best_ms``): ``ops_per_s`` is operations per second of that busy
time, ``op_p50_ms`` their median and ``op_tail_ms`` the highest percentile
with at least ten samples beyond it. The record keeps the same three over
all repetitions too.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is the full run record
(machine, git revision, input digest, percentiles, failures), which is also
written to ``.bench_out/`` with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median of cold set-ups: the measured process's own and
# more in fresh processes (so no cache of the library carries over), one
# batch before the timed loop and one after it. On a shared host the
# machine's speed drifts over seconds; spreading the samples over the run
# keeps one slow stretch from deciding the median. A batch has at least
# SETUP_BATCH[0] samples, and more up to SETUP_BATCH[1] while they add up
# to less than SETUP_BATCH_S seconds, since set-ups of a few milliseconds
# are noisy.
SETUP_BATCH = (1, 8)
SETUP_BATCH_S = 1.0

# op_tail_ms reports the highest of these with at least ten samples beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_rewb():
    """Import rewb from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rewb" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rewb sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rewb

    if Path(rewb.__file__).resolve().parent != SRC / "rewb":
        raise SystemExit(f"bench: imported rewb from {rewb.__file__}, not from {SRC}")


class Raised:
    """Outcome of an operation that raised; never equal to an answer."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"[:300]

    def __eq__(self, other):
        return False

    __hash__ = None


def run_ops(w, keys, tracer=None):
    """Run the operations ``keys``; return [(key, seconds, answer)], busy seconds."""
    done = []
    busy = 0.0
    for key in keys:
        if tracer is not None:
            tracer.op = len(done)
        start = time.perf_counter()
        try:
            raw = w.op(key)
        except Exception as exc:  # any failure of the program counts, run goes on
            latency = time.perf_counter() - start
            outcome = Raised(exc)
        else:
            latency = time.perf_counter() - start
            try:
                outcome = w.answer(key, raw)
            except Exception as exc:
                outcome = Raised(exc)
        busy += latency
        done.append((key, latency, outcome))
    return done, busy


def timed_rounds(w, rng, seconds, tracer=None):
    """Whole rounds until the operations have been busy for ``seconds``.

    Returns [(key, seconds, answer)] and the busy seconds of each round.
    """
    done = []
    rounds = []
    while sum(rounds) < seconds or not rounds:
        order = list(w.keys)
        rng.shuffle(order)
        more, spent = run_ops(w, order, tracer)
        done += more
        rounds.append(spent)
    return done, rounds


def best_ms(done):
    """Each operation's fastest repetition in the run, in ms, by key.

    Every round repeats every operation, and other processes on a shared
    host only ever add time to a repetition, so the fastest one is the
    operation's own cost. Between runs it varies far less than the mean.
    """
    best = {}
    for key, latency, _ in done:
        best[key] = min(latency, best.get(key, latency))
    return {key: latency * 1000.0 for key, latency in best.items()}


def check(w, done, expected):
    """Compare each answer with the reference; return the failures.

    ``expected`` caches reference answers by key across calls.
    """
    failures = []
    for key, _latency, outcome in done:
        if isinstance(outcome, Raised):
            failures.append({"key": repr(key), "error": outcome.error})
            continue
        if key not in expected:
            try:
                expected[key] = w.expected(key)
            except Exception as exc:
                expected[key] = Raised(exc)
        want = expected[key]
        if isinstance(want, Raised):
            failures.append({"key": repr(key), "error": f"reference failed: {want.error}"})
        elif outcome != want:
            failures.append({"key": repr(key), "error": f"answer {outcome!r} != reference {want!r}"})
    return failures


def tail(latencies_ms):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setups_s(name, seed, quick):
    """A batch of set-up times, each measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--quick"] if quick else [])
    low, high = SETUP_BATCH
    samples = []
    while len(samples) < low or (len(samples) < high and sum(samples) < SETUP_BATCH_S):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def metadata(seed):
    u = platform.uname()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    src_loc = sum(len(f.read_text().splitlines()) for f in sorted((SRC / "rewb").glob("*.py")))
    return {
        "machine": f"{u.system} {u.release} {u.machine}",
        "nproc": nproc,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "seed": seed,
        "src_loc": src_loc,
    }


def run_workload(name, seed, seconds, trace, quick=False):
    """Run one workload; return (result line, full record)."""
    import_rewb()
    from tracing import LAYERS, OVERHEAD, NullTracer, Tracer, per_layer_names
    from workloads import WORKLOADS, sweep

    tracer = Tracer() if trace else NullTracer()
    w = WORKLOADS[name](seed, quick, tracer)
    rng = random.Random(f"order:{seed}")
    record = {"workload": name, "seconds": seconds, "trace": trace, "quick": quick,
              **metadata(seed), "inputs_digest": w.digest, "round_size": len(w.keys)}

    if not trace:
        start = time.perf_counter()
        w.setup()
        setups = [time.perf_counter() - start]
        setups += child_setups_s(name, seed, quick)
        done, rounds = timed_rounds(w, rng, seconds)
        rss = peak_rss_mb()
        setups += child_setups_s(name, seed, quick)
        failures = check(w, done, {})
        best = best_ms(done)
        # One sample per operation run, at that operation's fastest repetition.
        latencies = [best[key] for key, _, _ in done]
        percentile, tail_ms = tail(latencies)
        values = {
            "ops_per_s": len(latencies) * 1000.0 / sum(latencies),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        raw = [latency * 1000.0 for _, latency, _ in done]
        record.update(
            setup_samples_s=setups, samples=len(done), tail_percentile=percentile,
            round_s=rounds, op_best_ms=[[repr(key), ms] for key, ms in best.items()],
            all_repetitions={"ops_per_s": len(done) / sum(rounds), "op_p50_ms": statistics.median(raw),
                             "op_tail_ms": tail(raw)[1]},
        )
    else:
        tracer.op = "setup"
        w.setup()
        tracer.op = "probe"
        w.probe()
        tracer.op = "sweep"
        sweep(tracer)
        # Half the time traced, then the same operations untraced: the ratio
        # of their busy times, each operation at its fastest repetition, is
        # the tracing overhead.
        done, _ = timed_rounds(w, rng, seconds / 2, tracer)
        w.t = NullTracer()
        replay, _ = run_ops(w, [key for key, _, _ in done])
        w.t = tracer
        expected = {}
        failures = check(w, done, expected) + check(w, replay, expected)
        values = tracer.layer_metrics()
        values[OVERHEAD] = sum(best_ms(done).values()) / sum(best_ms(replay).values())
        done += replay
        units = dict(per_layer_names())
        record.update(samples=len(done), layers=LAYERS)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans_{name}_seed{seed}.json"
        spans.write_text(json.dumps(tracer.spans))
        record["spans_file"] = str(spans.relative_to(ROOT))

    attempted = len(done)
    record.update(attempted=attempted, failed=len(failures), fail_ratio=len(failures) / attempted,
                  failures=failures[:10], metrics=values)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{name}_seed{seed}_trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, record


def setup_only(name, seed, quick):
    import_rewb()
    from tracing import NullTracer
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, quick, NullTracer())
    start = time.perf_counter()
    w.setup()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_rewb()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_only(args.workload, args.seed, args.quick)}))
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
