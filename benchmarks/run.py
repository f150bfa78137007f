"""Seeded end-to-end and per-layer benchmark of rockstack, one workload per process.

    python3 benchmarks/run.py --workload stack --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.
``--trace 0`` times ops with no instrumentation and reports the end-to-end
metrics. ``--trace 1`` runs every input twice, once plainly and once with
the per-layer wrappers of ``spans.py`` installed (alternating which goes
first), checks that both give the same output, and reports the per-layer
metrics. Human-readable lines go first; the last line of stdout is one JSON
object. A result file ``out/BENCH_<workload>_seed<n>_trace<t>.json`` (and,
traced, a spans file) is written next to this script. Wall-clock numbers go
only there, never into trial or summary trees.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("stack", "grasp", "pose")
# The output digest covers the first ops, which every run completes, so two
# runs with one seed give the same digest whatever their op counts.
DIGEST_OPS = 5

# gated: listed in BENCHMARK.json and printed on the last line (--trace 0)
GATED = {
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}
# printed and stored, not gated: p90 misses the ten-sample rule on the
# slow workloads, and a zero-failure share has no relative bound
INFORMATIONAL = {"op_ms.p90": "ms", "fail_share": "share", "ops": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # unset means OpenBLAS picks its default (one thread per CPU)
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


class Tally:
    """Op outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.successes = 0
        self.op_s: list = []
        self.traced_s: list = []
        self.digest = hashlib.sha256()
        self.traced_digest = hashlib.sha256()

    def fail(self, k: int, what: str) -> None:
        self.failed += 1
        print(f"op {k} failed: {what}", file=sys.stderr)


def measure(wl, seconds: float, tracer=None) -> Tally:
    """Closed loop over the workload's inputs for ``seconds`` of op time.

    Checks and digests run outside the timed region. With a tracer, each
    input runs plain and traced, in alternating order, and both outputs must
    encode to the same bytes.
    """
    from workloads import CheckFailed

    tally = Tally()
    timed = 0.0
    for k, x in enumerate(wl.inputs()):
        if timed >= seconds and k >= DIGEST_OPS:
            break
        tally.attempted += 1
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        encoded = {}
        try:
            for traced in order:
                if traced:
                    with tracer.op(k):
                        start = time.perf_counter()
                        out = wl.op(x)
                        elapsed = time.perf_counter() - start
                    tally.traced_s.append(elapsed)
                else:
                    start = time.perf_counter()
                    out = wl.op(x)
                    elapsed = time.perf_counter() - start
                    tally.op_s.append(elapsed)
                timed += elapsed
                success = wl.check(x, out)
                encoded[traced] = wl.encode(out)
        except CheckFailed as exc:
            tally.fail(k, str(exc))
            continue
        except Exception:  # one crashing op is a counted failure, not an aborted run
            tally.fail(k, traceback.format_exc())
            continue
        if tracer is not None and encoded[True] != encoded[False]:
            tally.fail(k, "traced output differs from the untraced output")
            continue
        tally.successes += success
        if k < DIGEST_OPS:
            tally.digest.update(encoded[False])
            if tracer is not None:
                tally.traced_digest.update(encoded[True])
    return tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rockstack" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'rockstack'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rockstack

    if Path(rockstack.__file__).resolve().parent != SRC / "rockstack":
        print(f"error: imported rockstack from {rockstack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from stats import percentile, samples_beyond, tail_ok
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START

    start = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    warmups = wl.warmup_inputs()
    build_s = time.perf_counter() - start
    warmup_s = []
    for x in warmups:
        start = time.perf_counter()
        out = wl.op(x)
        warmup_s.append(time.perf_counter() - start)
        wl.check(x, out)
    # import and input building happen once per process; the warm-up op is
    # repeated and its median taken so set-up time is steady run to run
    setup_s = import_s + build_s + statistics.median(warmup_s)

    tracer = spans.Tracer() if args.trace else None
    tally = measure(wl, args.seconds, tracer)
    ok_ops = tally.attempted - tally.failed
    if ok_ops == 0:
        print("error: every op failed", file=sys.stderr)
        return 1
    digest = tally.digest.hexdigest()
    correct = tally.failed == 0

    op_ms = [s * 1e3 for s in tally.op_s]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "digest": digest,
        "digest_ops": min(DIGEST_OPS, tally.attempted),
        "skipped_input_seeds": wl.skipped,
        "setup": {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s},
        "op_ms": op_ms,
    }
    if args.trace:
        traced_ms = [s * 1e3 for s in tally.traced_s]
        correct = correct and tally.traced_digest.hexdigest() == digest
        values = spans.layer_metrics(tracer.spans, tracer.counters, len(traced_ms))
        values["harness.trace_overhead"] = percentile(traced_ms, 50) / percentile(op_ms, 50)
        metrics = {k: {"value": v, "unit": spans.unit_of(k)[0]} for k, v in values.items()}
        record["traced_op_ms"] = traced_ms
        record["traced_digest"] = tally.traced_digest.hexdigest()
        printed = metrics
    else:
        n = len(op_ms)
        values = {
            "op_ms.p50": percentile(op_ms, 50),
            "ops_per_s": n / sum(tally.op_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": tally.successes / tally.attempted,
            "op_ms.p90": percentile(op_ms, 90),
            "fail_share": tally.failed / tally.attempted,
            "ops": n,
        }
        units = {**GATED, **INFORMATIONAL}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        printed = {k: metrics[k] for k in GATED}
        record["p90_samples_beyond"] = samples_beyond(n, 90)

    record["correct"] = correct
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    with open(OUT_DIR / f"BENCH_{stem}_trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    if args.trace:
        with open(OUT_DIR / f"spans_{stem}.jsonl", "w", encoding="utf-8") as f:
            for name, s0, s1, parent, op in tracer.spans:
                f.write(json.dumps([name, s0, s1, parent, op]) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {tally.attempted}  failed {tally.failed}  digest {digest[:16]}  "
          f"unplaceable seeds skipped {len(wl.skipped)}")
    if not args.trace:
        n = len(op_ms)
        note = "" if tail_ok(n, 90) else "  (below the ten-sample rule; not gated)"
        print(f"p50 and p90 over {n} ops; {samples_beyond(n, 90)} samples beyond p90{note}")
    for k, m in metrics.items():
        print(f"{k:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
