"""megraph benchmark: one command, four workloads, correctness-checked.

Run from the repository root:

    python3 bench/run.py --workload loso_full --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 1 --out results.json

``--trace 0`` repeats the workload's timed call for ``--seconds``, with
set-ups interleaved, and prints the end-to-end metrics. Their times are
scaled to a fixed machine speed with a reference job run around every
measurement (``reference.py``); raw times are printed beside them.
``--trace 1`` splits the time between an untraced and a traced phase; the
traced phase wraps the public functions of every traced ``megraph`` module
with timers (see ``spans.py``) and prints the per-layer metrics. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import reference_seconds  # noqa: E402
from spans import HOOK_SPAN, TRACED_MODULES, Tracer, is_wrapper  # noqa: E402
from workloads import SCALES, WORKLOADS, Outcome  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = "megraph"

# Set-ups are spread over the untraced phase, so that slow and fast phases
# of the shared machine hit them as they hit the timed calls: after a call,
# the workload is set up again while set-ups have taken less than
# SETUP_SHARE of the time so far. At least SETUP_REPEATS set-ups run.
SETUP_SHARE = 0.15
SETUP_REPEATS = 5
MIN_REPEATS = 4
# Gated timings are in seconds at a fixed machine speed: the measured time
# times NOMINAL_REF_S over the reference job's time right before plus right
# after the measurement (see reference.py). NOMINAL_REF_S is a round figure
# near what those two runs took where the baseline was made (0.15-0.2 s).
NOMINAL_REF_S = 0.2
ACCOUNTING_TOLERANCE = 0.10
FALLBACK_WARNING = "relation weights are all zero"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics, all per timed call. `<f>.calls`, `<f>.s` (inclusive)
# and `<f>.self_s` come from the span of traced function `<f>`.
SPAN_METRICS = (
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.s", "s"),
    ("autodiff.backward.self_s", "s"),
    ("autodiff.grad_check.calls", "count"),
    ("autodiff.grad_check.s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.s", "s"),
    ("model.backbone.s", "s"),
    ("model.decompose.calls", "count"),
    ("model.decompose.s", "s"),
    ("model.relate.s", "s"),
    ("model.classify.s", "s"),
    ("losses.total_loss.s", "s"),
    ("losses.classification_loss.s", "s"),
    ("losses.feature_center_loss.s", "s"),
    ("losses.weight_center_loss.s", "s"),
    ("losses.balance_loss.s", "s"),
    ("params.sgd_step.calls", "count"),
    ("params.sgd_step.s", "s"),
    ("params.write_checkpoint.s", "s"),
    ("params.read_checkpoint.s", "s"),
    ("graph.build_graph.calls", "count"),
    ("graph.build_graph.s", "s"),
    ("landmarks.magnify.s", "s"),
    ("landmarks.load_samples.s", "s"),
    ("landmarks.synthesize_dataset.s", "s"),
    ("training.train_fold.self_s", "s"),
    ("training.evaluate.s", "s"),
    ("training.check_no_leakage.s", "s"),
    ("training.write_run_dir.s", "s"),
    ("checks.kink_margin.calls", "count"),
    ("checks.kink_margin.s", "s"),
)
DERIVED_METRICS = (
    ("autodiff.tape_nodes_per_step", "count"),
    ("model.relation_fallbacks", "count"),
    ("training.step_ms.p50", "ms"),
    ("training.step_ms.p90", "ms"),
    ("checks.jitter_accept_ratio", "ratio"),
    *((f"{m}.self_s", "s") for m in TRACED_MODULES),
    ("trace.hooks.self_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
)
PER_LAYER = SPAN_METRICS + DERIVED_METRICS


# -- statistics -----------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def high_percentile(n: int) -> float | None:
    """Highest of p99.9, p99, p90 with at least ten samples beyond it."""
    for num, den in ((999, 1000), (99, 100), (9, 10)):
        if n * (den - num) >= 10 * den:
            return 100.0 * num / den
    return None


def summarize(values) -> dict:
    """Median, the highest percentile the sample count supports, and n."""
    out = {"n": len(values), "median": statistics.median(values) if values else 0.0}
    p = high_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def describe(summary: dict, unit: str) -> str:
    parts = [f"median of {summary['n']}"]
    parts += [f"{k} {v:.6g} {unit}" for k, v in summary.items() if k.startswith("p")]
    return ", ".join(parts)


# -- environment ------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    git = root / ".git"
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
    return "unknown"


def provenance(seed: int, scale: str, names) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": git_revision(ROOT),
        "seed": seed,
        "scale": scale,
        "sizes": {n: WORKLOADS[n].sizes(scale) for n in names},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_megraph():
    """Import the package afresh, so every set-up pays for the import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    mg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.checks")
    return mg


def wrapped_bindings(mg) -> list[str]:
    """Names in the package's modules and classes that hold a timing
    wrapper; empty whenever the program runs untraced."""
    found = []
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
            continue
        for attr, obj in vars(module).items():
            if is_wrapper(obj):
                found.append(f"{key}.{attr}")
            if isinstance(obj, type) and obj.__module__ == key:
                found += [f"{key}.{attr}.{a}" for a, o in vars(obj).items()
                          if is_wrapper(getattr(o, "__func__", o))]
    return found


# -- measurement ------------------------------------------------------------------


def at_nominal_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while two reference runs took ``ref_seconds``."""
    return seconds * NOMINAL_REF_S / ref_seconds


@dataclass
class Session:
    """A workload's set-ups. Each re-imports the package and rebuilds the
    inputs from the seed; calls use the latest set-up.

    A set-up's time is scaled once the reference job after it has run:
    :meth:`setup` takes the reference time measured just before it and
    :meth:`close` the one measured just after.
    """

    wl: object
    seed: int
    work_dir: Path
    scale: str
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    mg: object = None
    state: object = None
    _open: tuple | None = None

    def setup(self, ref_before: float) -> None:
        t0 = time.perf_counter()
        mg = load_megraph()
        state = self.wl.setup(mg, self.seed, self.work_dir, self.scale)
        self.times.append(time.perf_counter() - t0)
        self.mg, self.state = mg, state
        self._open = (self.times[-1], ref_before)

    def close(self, ref_after: float) -> None:
        if self._open is not None:
            seconds, ref_before = self._open
            self.scaled.append(at_nominal_speed(seconds, ref_before + ref_after))
            self._open = None


@dataclass
class Phase:
    """Timed repeats of one workload call, with their checked outcomes."""

    times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    fallbacks: int = 0
    other_warnings: list[str] = field(default_factory=list)


def measure(session: Session, seconds: float, untraced: bool) -> Phase:
    """Repeat the timed call for ``seconds`` (at least MIN_REPEATS times).

    When ``untraced``, the reference job runs right before and right after
    every call (``ref_times`` holds the sum of the two) and set-ups are
    interleaved with the calls.
    """
    wl = session.wl
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while len(phase.times) < MIN_REPEATS or time.perf_counter() < deadline:
            repeat = len(phase.times)
            state = session.state
            if untraced:
                before = reference_seconds()
                session.close(before)
            t0 = time.perf_counter()
            try:
                result = wl.call(state, repeat)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = None
                outcome = Outcome(1, 1, problems=[f"{type(exc).__name__}: {exc}"])
            phase.times.append(time.perf_counter() - t0)
            if untraced:
                after = reference_seconds()
                phase.ref_times.append(before + after)
            if result is not None:
                try:
                    outcome = wl.check(state, repeat, result)
                except Exception as exc:
                    outcome = Outcome(
                        1, 1, problems=[f"check raised {type(exc).__name__}: {exc}"]
                    )
            phase.outcomes.append(outcome)
            if untraced and sum(session.times) < SETUP_SHARE * (time.perf_counter() - start):
                session.setup(after)
    if untraced:
        session.close(reference_seconds())
    messages = [str(w.message) for w in caught]
    phase.fallbacks = sum(FALLBACK_WARNING in m for m in messages)
    phase.other_warnings = sorted({m for m in messages if FALLBACK_WARNING not in m})
    return phase


def tape_size(root) -> int:
    """Tape nodes reachable from ``root``, itself included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Probe:
    """Hooks for the traced phase: tape size of each training step's loss
    and the interval between successive SGD steps of one fold."""

    def __init__(self):
        self.nodes: list[int] = []
        self.step_s: list[float] = []
        self._last = None

    def on_total_loss(self, tracer, args, kwargs, breakdown):
        if tracer.active("training.train_fold"):
            self.nodes.append(tape_size(breakdown.total))

    def on_sgd_step(self, tracer, args, kwargs, result):
        now = time.perf_counter()
        hooks = tracer.stats.self_s[tracer.index[HOOK_SPAN]]
        fold = tracer.calls("training.train_fold")
        if self._last is not None and self._last[0] == fold:
            # leave out the probe's own time between the two steps
            self.step_s.append((now - self._last[1]) - (hooks - self._last[2]))
        self._last = (fold, now, hooks)

    def hooks(self) -> dict:
        return {"losses.total_loss": self.on_total_loss, "params.sgd_step": self.on_sgd_step}


def digest_problems(phases) -> tuple[int, list[str]]:
    """Calls whose digest differs from the first call with the same key."""
    first: dict[str, str] = {}
    bad = 0
    problems = []
    for label, phase in phases:
        for i, o in enumerate(phase.outcomes):
            if o.key is None or o.digest is None:
                continue
            ref = first.setdefault(o.key, o.digest)
            if o.digest != ref:
                bad += 1
                problems.append(f"{label} repeat {i}: {o.key} digest {o.digest[:12]} "
                                f"differs from {ref[:12]}")
    return bad, problems


def layer_metrics(wl, tracer, probe, traced: Phase, untraced: Phase) -> tuple[dict, list[str]]:
    """Per-layer metrics per timed call, plus the traced-run checks."""
    n = len(traced.times)
    stats = tracer.stats.by_name()
    problems = []
    values = {}
    for name, _ in SPAN_METRICS:
        func, kind = name.rsplit(".", 1)
        if func not in stats:
            problems.append(f"no traced function {func}")
            values[name] = 0.0
            continue
        values[name] = stats[func][kind] / n
    for func in sorted(wl.expect_called):
        if stats.get(func, {}).get("calls", 0) == 0:
            problems.append(f"{func} was never called on {wl.name}")
    for func in sorted(wl.expect_zero):
        if func not in stats:
            problems.append(f"no traced function {func}")
        elif stats[func]["calls"]:
            problems.append(f"{func} ran {stats[func]['calls']} times on {wl.name}, expected 0")

    steps_ms = [1000.0 * s for s in probe.step_s]
    kink_calls = stats["checks.kink_margin"]["calls"]
    model_seeds = sum(o.model_seeds for o in traced.outcomes)
    values["autodiff.tape_nodes_per_step"] = (
        statistics.mean(probe.nodes) if probe.nodes else 0.0
    )
    values["model.relation_fallbacks"] = traced.fallbacks / n
    values["training.step_ms.p50"] = percentile(steps_ms, 50) if steps_ms else 0.0
    values["training.step_ms.p90"] = percentile(steps_ms, 90) if steps_ms else 0.0
    values["checks.jitter_accept_ratio"] = model_seeds / kink_calls if kink_calls else 0.0
    for module in TRACED_MODULES:
        values[f"{module}.self_s"] = sum(
            s["self_s"] for f, s in stats.items() if f.startswith(module + ".")
        ) / n
    hooks_s = stats[HOOK_SPAN]["self_s"]
    wall_total = sum(traced.times)
    remainder = wall_total - tracer.stats.root_s
    covered = sum(s["self_s"] for s in stats.values())
    values["trace.hooks.self_s"] = hooks_s / n
    values["trace.remainder_s"] = remainder / n
    accounting = (covered + remainder) / wall_total
    values["trace.untraced_wall_s"] = statistics.median(untraced.times)
    values["trace.traced_wall_s"] = statistics.median(traced.times)
    values["trace_overhead_s"] = (
        values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    )
    if abs(accounting - 1.0) > ACCOUNTING_TOLERANCE:
        problems.append(
            f"layer self times plus remainder cover {accounting:.3f} of the "
            "traced wall time"
        )
    extra = {
        "accounting_ratio": accounting,
        "step_ms": summarize(steps_ms),
        "tape_nodes": sorted(set(probe.nodes)),
        "traced_calls": {f: s["calls"] for f, s in stats.items() if s["calls"]},
    }
    return {"values": values, "extra": extra}, problems


@dataclass
class Result:
    name: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 work_root: Path) -> Result:
    wl = WORKLOADS[name]
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        session = Session(wl, seed, work_dir, scale)
        session.setup(reference_seconds())
        problems = [f"unexpected wrapper at {w}" for w in wrapped_bindings(session.mg)]
        untraced = measure(session, seconds / 2 if trace else seconds, untraced=True)
        while len(session.times) < SETUP_REPEATS:
            session.setup(reference_seconds())
            session.close(reference_seconds())
        peak = peak_rss_mib()
        phases = [("untraced", untraced)]
        layers = None
        if trace:
            probe = Probe()
            tracer = Tracer(session.mg, after=probe.hooks())
            tracer.patch()
            try:
                traced = measure(session, seconds / 2, untraced=False)
            finally:
                tracer.restore()
            phases.append(("traced", traced))
            problems += [f"binding not restored: {b}" for b in tracer.unrestored()]
            problems += [f"wrapper left at {w}" for w in wrapped_bindings(session.mg)]
            layers, layer_problems = layer_metrics(wl, tracer, probe, traced, untraced)
            problems += layer_problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = [o for _, p in phases for o in p.outcomes]
    mismatched, digest_msgs = digest_problems(phases)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + mismatched
    problems += digest_msgs
    problems += [p for o in outcomes for p in o.problems]
    accuracies = sorted({o.accuracy for o in outcomes if o.accuracy is not None})

    wall = [at_nominal_speed(t, r) for t, r in zip(untraced.times, untraced.ref_times)]
    end_to_end = {
        "setup_s": statistics.median(session.scaled),
        "wall_s": statistics.median(wall),
        "peak_rss_mb": peak,
    }
    metrics = layers["values"] if trace else end_to_end
    units = dict(PER_LAYER if trace else END_TO_END)
    record = {
        "workload": name,
        "why": wl.why,
        "sizes": wl.sizes(scale),
        "end_to_end": end_to_end,
        "nominal_reference_s": NOMINAL_REF_S,
        "setup_s": summarize(session.scaled),
        "wall_s": summarize(wall),
        "raw_setup_s": summarize(session.times),
        "raw_wall_s": summarize(untraced.times),
        "reference_s": summarize(untraced.ref_times),
        "setup_samples_s": session.scaled,
        "wall_samples_s": wall,
        "raw_setup_samples_s": session.times,
        "raw_wall_samples_s": untraced.times,
        "reference_samples_s": untraced.ref_times,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "pooled_accuracy": accuracies,
        "relation_fallbacks": sum(p.fallbacks for _, p in phases),
        "warnings": sorted({w for _, p in phases for w in p.other_warnings}),
        "problems": problems,
    }
    if layers is not None:
        record["per_layer"] = layers["values"]
        record["trace"] = layers["extra"]
        record["traced_wall_samples_s"] = phases[1][1].times
    correct = not problems and failed == 0 and attempted > 0
    return Result(
        name=name,
        correct=correct,
        attempted=max(attempted, 1),
        failed=failed if attempted else 1,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        record=record,
    )


def print_result(res: Result, trace: bool) -> None:
    rec = res.record
    print(f"workload {res.name}: {rec['why']}")
    print(f"  sizes: {json.dumps(rec['sizes'], sort_keys=True)}")
    print(f"  (times in s are at reference speed: the two reference runs around "
          f"a measurement took {rec['reference_s']['median']:.6g} s here, "
          f"{NOMINAL_REF_S:g} s nominal)")
    print(f"  setup_s      {rec['setup_s']['median']:.6g} s  "
          f"({describe(rec['setup_s'], 's')} set-ups; raw "
          f"{rec['raw_setup_s']['median']:.6g} s)")
    print(f"  wall_s       {rec['wall_s']['median']:.6g} s  "
          f"({describe(rec['wall_s'], 's')} timed calls; raw "
          f"{rec['raw_wall_s']['median']:.6g} s)")
    print(f"  peak_rss_mb  {rec['end_to_end']['peak_rss_mb']:.6g} MiB")
    print(f"  error_rate   {rec['error_rate']:.6g}  "
          f"({rec['failed']} failed of {rec['attempted']} operations)")
    acc = rec["pooled_accuracy"]
    if acc:
        same = "identical in every repeat" if len(acc) == 1 else "DIFFERS between repeats"
        print(f"  pooled_accuracy {', '.join(f'{a:.6g}' for a in acc)}  ({same})")
    print(f"  relation-weight fallbacks: {rec['relation_fallbacks']}")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<34} {res.metrics[name]['value']:.6g} {unit}")
        step = rec["trace"]["step_ms"]
        if step["n"]:
            print(f"  training.step_ms: {describe(step, 'ms')} steps")
        print(f"  accounting: layer self times + remainder = "
              f"{rec['trace']['accounting_ratio']:.4f} of traced wall "
              f"(tolerance {ACCOUNTING_TOLERANCE:.0%})")
    for w in rec["warnings"]:
        print(f"  warning: {w}")
    for p in rec["problems"][:20]:
        print(f"  PROBLEM: {p}")
    print(f"  verdict: {'correct' if res.correct else 'INCORRECT'}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'toy' shrinks every workload, for self-tests")
    parser.add_argument("--out", help="write the full results record as JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    try:
        info = provenance(args.seed, args.scale, names)
        print("machine: " + json.dumps({k: v for k, v in info.items() if k != "sizes"},
                                       sort_keys=True))
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.scale, work_root)
            print_result(res, bool(args.trace))
            results.append(res)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if args.out:
        payload = {
            "provenance": info,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": {r.name: r.record for r in results},
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.name}.{k}": v for r in results for k, v in r.metrics.items()}
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
