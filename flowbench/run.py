"""The repository benchmark: one command, three serial workloads.

Usage (from the repository root)::

    python3 flowbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer ledger of the traced ones (see ``spans.py``).  Every run
checks the program's outputs; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
lines above it print all end-to-end metrics by name, unit and sample
count, the deterministic work counters and the host record.

End-to-end metrics (``--trace 0``):

* ``latency_p50_s`` / ``latency_p90_s`` -- median and p90 wall time of
  one timed operation: a whole flow run on ``sweep_cold`` and
  ``flat_warm`` (printed as ``flow_s``), one ECO script on
  ``eco_stream`` (printed as ``eco_p50_s`` / ``eco_p90_s``).  Design generation
  and other set-up are excluded.
* ``setup_s`` -- one-off set-up (cache fill, checkpointed base run)
  plus the median of at least five per-repetition set-ups (design
  generation; checkpoint copy and session open), up to 25 when each is
  cheap.
* ``peak_rss_mb`` -- peak resident memory during the timed operations
  of the first repetition (the high-water mark is reset before each).
* ``hpwl`` / ``rwl`` / ``power`` -- post-place HPWL, routed wirelength
  and total power (the final values for ``eco_stream``).

WNS, TNS and the failed-operation fraction are printed too but are not
gated: slack crosses zero from one design seed to the next (TNS is 0
on most), so a relative bound cannot be set on them; failures are
gated through ``correct`` / ``failed`` instead.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before numpy is imported anywhere.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch and output directory inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".flowbench")
#: Per-repetition set-ups measured in every run; a set-up cheaper than
#: CHEAP_SETUP_S is sampled more, so its median is not host noise.
SETUP_SAMPLES = 5
CHEAP_SETUP_SAMPLES = 25
CHEAP_SETUP_S = 1.0


def _import_program():
    """Put the repository's sources on the path; fail fast if absent."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"flowbench: no program sources under {ROOT}/src\n")
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)


_import_program()

from benchmarks.bench_flow_e2e import calibration_seconds  # noqa: E402
from repro import perf  # noqa: E402
from repro.route.steiner import clear_rsmt_cache  # noqa: E402

import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metric -> unit, in report order.
E2E_UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hpwl": "um",
    "rwl": "um",
    "power": "mW",
}


# ----------------------------------------------------------------------
# Peak RSS of the timed part only
# ----------------------------------------------------------------------
def _reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class Op:
    key: str
    seconds: float
    peak_rss_mb: float
    counters: Dict[str, int]
    traced: bool
    sample: bool
    rep: int
    qor: Dict[str, float] = field(default_factory=dict)
    failed: bool = False


class Recorder:
    """Times set-ups and operations and checks their answers.

    Every operation starts from the state a CLI user gets: the
    process-global RSMT memo is cleared and the ``repro.perf`` counters
    are reset, so each operation's work counters are its own.
    """

    def __init__(self) -> None:
        self.tracer: Optional[spans.Tracer] = None
        self.setup_once_s = 0.0
        self.setup_s: List[float] = []
        self.ops: List[Op] = []
        self.failures: List[str] = []
        self.extra_attempted = 0
        self.extra_failed = 0
        self.peak_scope = "timed"
        self.rep_index = 0
        #: op key -> (fingerprint, work counters) of its first answer.
        self.reference: Dict[str, tuple] = {}

    @contextlib.contextmanager
    def _timed(self, span_name: str):
        sid = self.tracer.open(span_name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._elapsed = time.perf_counter() - t0
            if sid is not None:
                self.tracer.close(sid)

    @contextlib.contextmanager
    def setup_once(self):
        with self._timed(spans.SETUP_ONCE):
            yield
        self.setup_once_s = self._elapsed

    @contextlib.contextmanager
    def setup(self):
        gc.collect()
        with self._timed(spans.SETUP):
            yield
        self.setup_s.append(self._elapsed)

    @contextlib.contextmanager
    def op(self, key: str, sample: bool = True):
        """Time one operation; ``sample=False`` ops are checked only."""
        clear_rsmt_cache()
        perf.reset()
        gc.collect()
        if not _reset_peak_rss():
            self.peak_scope = "process"
        with self._timed(spans.OP):
            yield
        counters = dict(perf.report().to_dict().get("counters") or {})
        self.ops.append(
            Op(
                key,
                self._elapsed,
                _peak_rss_mb(),
                counters,
                traced=self.tracer is not None,
                sample=sample,
                rep=self.rep_index,
            )
        )

    def result(self, key: str, qor, fingerprint, problems: List[str]) -> None:
        """Attach the last operation's answer and check it."""
        op = self.ops[-1]
        op.qor = qor
        for problem in problems:
            self.fail(f"{key}: {problem}")
        work = {c: op.counters.get(c, 0) for c in workloads.WORK_COUNTERS}
        first = self.reference.setdefault(key, (fingerprint, work))
        for what, now, then in (
            ("hash", fingerprint, first[0]),
            ("work counter", work, first[1]),
        ):
            for name in sorted(now):
                if now[name] != then[name]:
                    self.fail(
                        f"{key}: {what} {name} differs between runs of one seed "
                        f"({then[name]} then {now[name]})"
                    )

    def fail(self, message: str) -> None:
        """Mark the last operation failed."""
        self.ops[-1].failed = True
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check that is its own operation (not timed)."""
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1
            self.failures.append(message)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.extra_attempted

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops) + self.extra_failed


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def host_record() -> Dict[str, object]:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "calibration_s": calibration_seconds(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    tracer = spans.Tracer() if trace else None
    rec = Recorder()
    perf.enable()
    try:
        bench = workloads.WORKLOADS[workload](seed, workdir)
        rec.tracer = tracer
        if tracer:
            tracer.install()
        try:
            with rec.setup_once():
                bench.setup_once()
        finally:
            if tracer:
                tracer.uninstall()
        # Repeat while the next repetition is expected to end within
        # ``seconds``; a traced run needs an untraced repetition too,
        # for the end-to-end table it prints.
        min_reps = max(bench.min_reps, 2 if tracer else 1)
        start = time.perf_counter()
        rep_seconds: List[float] = []
        index = 0
        while index < min_reps or (
            time.perf_counter() - start + statistics.median(rep_seconds) <= seconds
        ):
            # Traced runs alternate: even repetitions untraced, odd traced.
            traced = tracer is not None and index % 2 == 1
            rec.tracer = tracer if traced else None
            rec.rep_index = index
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                bench.rep(rec, index)
            finally:
                if traced:
                    tracer.uninstall()
            rep_seconds.append(time.perf_counter() - t0)
            index += 1
        # setup_s is a median: top the per-repetition set-ups up with
        # set-ups that no operation uses.
        rec.tracer = None
        cheap = statistics.median(rec.setup_s) < CHEAP_SETUP_S
        wanted = CHEAP_SETUP_SAMPLES if cheap else SETUP_SAMPLES
        while len(rec.setup_s) < wanted:
            with rec.setup():
                bench.prepare()
    finally:
        perf.disable()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"bench": bench, "rec": rec, "tracer": tracer, "reps": index}


def _samples(rec: Recorder) -> List[Op]:
    return [op for op in rec.ops if op.sample and not op.traced]


def e2e_metrics(rec: Recorder) -> Dict[str, float]:
    samples = _samples(rec)
    seconds = [op.seconds for op in samples]
    final = samples[-1].qor
    return {
        "latency_p50_s": statistics.median(seconds),
        "latency_p90_s": float(numpy.percentile(seconds, 90)),
        "setup_s": rec.setup_once_s + statistics.median(rec.setup_s),
        # Later repetitions start from the memory earlier ones left
        # behind, so only the first repetition's peak is comparable.
        "peak_rss_mb": max(op.peak_rss_mb for op in samples if op.rep == 0),
        "hpwl": final["hpwl"],
        "rwl": final["rwl"],
        "power": final["power"],
    }


def layer_metrics(rec: Recorder, tracer: spans.Tracer) -> Dict[str, float]:
    traced = [op for op in rec.ops if op.traced]
    counters: Dict[str, float] = {}
    for op in traced:
        for name, value in op.counters.items():
            counters[name] = counters.get(name, 0) + value
    return spans.ledger(tracer, counters)


def work_counter_lines(rec: Recorder) -> List[str]:
    """Per-operation work counters; flags any that did not repeat."""
    lines = []
    for key, (_, work) in rec.reference.items():
        repeats = [op for op in rec.ops if op.key == key]
        same = all(
            {c: op.counters.get(c, 0) for c in work} == work for op in repeats
        )
        body = " ".join(f"{c}={work[c]}" for c in workloads.WORK_COUNTERS)
        flag = "repeat exactly" if same else "DIFFER between runs"
        lines.append(f"  {key:<9} {body}  [{len(repeats)} runs, {flag}]")
    return lines


def report_lines(name: str, seed: int, outcome, metrics) -> List[str]:
    """The human-readable table: all eleven end-to-end figures and context."""
    rec: Recorder = outcome["rec"]
    bench = outcome["bench"]
    n = len(_samples(rec))
    is_eco = name == "eco_stream"
    final = _samples(rec)[-1].qor
    fail_frac = rec.failed / rec.attempted
    na = "n/a"

    def fmt(value, digits=4):
        return na if value is None else f"{value:.{digits}f}"

    p50, p90 = metrics.get("latency_p50_s"), metrics.get("latency_p90_s")
    rows = [
        ("flow_s", None if is_eco else p50, "s", f"median of {n} flow runs"),
        ("eco_p50_s", p50 if is_eco else None, "s", f"median of {n} ECO scripts"),
        ("eco_p90_s", p90 if is_eco else None, "s", f"p90 of {n} ECO scripts"),
        ("setup_s", metrics.get("setup_s"), "s",
         f"one-off {rec.setup_once_s:.3f} s + median of {len(rec.setup_s)} set-ups"),
        ("peak_rss_mb", metrics.get("peak_rss_mb"), "MB",
         f"max over the first repetition's operations ({rec.peak_scope} peak)"),
        ("hpwl", final["hpwl"], "um", "final" if is_eco else "post-place"),
        ("rwl", final["rwl"], "um", "routed"),
        ("wns", final["wns"], "ns", "not gated"),
        ("tns", final["tns"], "ns", "not gated"),
        ("power", final["power"], "mW", "total"),
        ("fail_frac", fail_frac, "ratio",
         f"{rec.failed} of {rec.attempted} operations failed or incorrect"),
    ]
    lines = [f"workload {name} seed {seed}: {len(rec.ops)} x {bench.op_name} "
             f"over {outcome['reps']} repetitions"]
    lines += [
        f"  {m:<12} {fmt(v):>16} {u:<5} {note if v is not None else 'not this workload'}"
        for m, v, u, note in rows
    ]
    lines.append(f"work counters per {bench.op_name}:")
    lines += work_counter_lines(rec)
    lines += [f"CHECK FAILED: {msg}" for msg in rec.failures]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full result record (host, samples, counters, "
        "ledger) as JSON",
    )
    args = parser.parse_args(argv)

    host = host_record()
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rec: Recorder = outcome["rec"]
    e2e = e2e_metrics(rec)
    if args.trace:
        values = layer_metrics(rec, outcome["tracer"])
        units = dict(spans.LAYER_METRICS)
        spans_path = args.out + ".spans.json" if args.out else os.path.join(
            WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json"
        )
        outcome["tracer"].dump(spans_path)
    else:
        values, units = e2e, E2E_UNITS

    for line in report_lines(args.workload, args.seed, outcome, e2e):
        print(line)
    if args.trace:
        print("per-layer ledger (mean per traced operation):")
        for name, unit in spans.LAYER_METRICS:
            print(f"  {name:<24} {values[name]:>16.6g} {unit}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "reps": outcome["reps"],
            "metrics": metrics,
            "op_seconds": [op.seconds for op in rec.ops],
            "op_traced": [op.traced for op in rec.ops],
            "setup_once_s": rec.setup_once_s,
            "setup_s": rec.setup_s,
            "work_counters": {k: v[1] for k, v in rec.reference.items()},
            "hashes": {k: v[0] for k, v in rec.reference.items()},
            "failures": rec.failures,
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
