"""Seeded benchmark for freqfuse: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from --seed; the
program only sees the generated files. Each run sets up five times, runs
whole rounds of the workload's operations (a single-client closed loop)
until S seconds have passed, checks every output, and prints as its last
stdout line {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics; --trace 1 alternates untraced and traced rounds and
gives the per-layer metrics, writing the spans to
.bench_work/trace/<workload>-seed<N>.jsonl. See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5
BLAS_THREADS = "1"
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_ref_ms", "ms"),
              ("op_geomean_ref_ms", "ms"))
# Reference time of one calibration measurement; see Calibration.
CAL_REF_S = 0.0025


def pin_environment():
    """Fix BLAS threads and the child's import path before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # the mock oracle runs as `python -m freqfuse` from this checkout
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment():
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # the wheel's bundled OpenBLAS, already loaded by numpy
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "blas_threads_env": BLAS_THREADS}


class Calibration:
    """Machine speed, measured next to every timed call.

    On a shared 2-core VM the effective CPU speed was seen to drift by 20%
    and more within seconds and between minutes, in CPU time as in wall
    time, and alike for pure Python, FFT and BLAS work. A fixed kernel of all three is timed, in CPU
    time of its own thread, just before and just after each timed call, and
    every PERIOD_S from a thread during calls that mostly wait on the oracle
    process. Each call's time is scaled by CAL_REF_S / (median kernel time)
    to the time it would have taken at the reference speed. The kernel
    shares nothing with the program.
    """

    PERIOD_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        # bound now, so a traced round's wrappers never see the kernel
        self._fft2 = np.fft.fft2
        self._plane = rng.random((256, 256))
        self._mat = rng.random((128, 64))
        self._words = [f"w{i % 97}" for i in range(6000)]
        self.last = self.measure()

    def _kernel(self):
        # CPU time of this thread: waiting for the GIL or a core is not speed
        start = time.thread_time()
        self._fft2(self._plane)
        for _ in range(6):
            self._mat.T @ self._mat
        counts = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        return time.thread_time() - start

    def measure(self):
        return statistics.median(self._kernel() for _ in range(3))

    def timed(self, call, sample):
        """Run call(); return (result, error, wall seconds, reference seconds)."""
        samples = [self.last]
        stop = threading.Event()

        def sampler():
            while not stop.wait(self.PERIOD_S):
                samples.append(self._kernel())

        thread = threading.Thread(target=sampler, daemon=True) if sample else None
        if thread:
            thread.start()
        start = time.perf_counter()
        try:
            out, error = call(), None
        except Exception:
            out, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if thread:
            stop.set()
            thread.join()
        self.last = self.measure()
        samples.append(self.last)
        return out, error, seconds, seconds * CAL_REF_S / statistics.median(samples)


def run(args):
    import resource

    import numpy as np

    import checks
    import tracing
    import workloads

    silent = checks.fire_all()
    if silent:
        raise RuntimeError(f"checks that let a wrong answer through: {silent}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    # the sweep writes its exports under the temporary directory
    tempfile.tempdir = str(workdir / "tmp")
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.make(args.seed)
        calib = Calibration()
        setup_s = []
        for k in range(SETUPS):
            target = workdir / f"setup{k}"
            target.mkdir()
            _, error, _, ref = calib.timed(lambda: workload.setup(target),
                                           workload.waits_on_oracle)
            if error:
                raise RuntimeError(f"set-up failed:\n{error}")
            setup_s.append(ref)

        attempted = failed = 0
        correct = True

        def attempt(name, call):
            """One operation; call raises CheckFailed on a wrong output."""
            nonlocal attempted, failed, correct
            attempted += 1
            try:
                call()
            except checks.CheckFailed as exc:
                failed += 1
                correct = False
                print(f"check {name} failed: {exc}", file=sys.stderr)
            except checks.OperationFailed as exc:
                failed += 1
                print(f"operation {name} failed: {exc}", file=sys.stderr)
            except Exception:
                failed += 1
                print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)

        for name, check in workload.expect():
            attempt(name, check)

        tracer = tracing.Tracer() if args.trace else None
        per_unit, raw_per_unit = {}, {}
        walls = {False: [], True: []}
        traced_raw_s = 0.0
        index = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and index % 2 == 1
            ops = workload.round(index)
            results = [calib.timed(tracer.recorded(call) if traced else call,
                                   workload.waits_on_oracle) for _, call, _, _ in ops]
            wall = 0.0
            for (out, error, seconds, ref), (kind, _, check, units) in zip(results, ops):
                attempt(kind, lambda: check(_result(out, error)))
                wall += ref
                if traced:
                    traced_raw_s += seconds
                else:
                    raw_per_unit.setdefault(kind, []).append(seconds / units)
                    per_unit.setdefault(kind, []).append(ref / units)
            walls[traced].append(wall)
            index += 1
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or index % 2 == 0):
                break

        if args.trace:
            overhead = statistics.median(walls[True]) - statistics.median(walls[False])
            metrics = tracer.metrics(len(walls[True]), traced_raw_s, overhead)
            tracer.write(WORK / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            kinds = {k: statistics.median(v) for k, v in per_unit.items()}
            raw = {k: statistics.median(v) for k, v in raw_per_unit.items()}
            print("detail " + json.dumps({"wall": workload.detail(raw),
                                          "reference": workload.detail(kinds)}, sort_keys=True))
            values = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "round_ref_ms": 1e3 * statistics.median(walls[False]),
                "op_geomean_ref_ms":
                    1e3 * float(np.exp(np.mean(np.log(list(kinds.values()))))),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("rounds " + json.dumps({"untraced_s": walls[False], "traced_s": walls[True],
                                      "setup_s": setup_s}))
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)


def _result(out, error):
    if error is not None:
        raise RuntimeError(f"the timed call raised:\n{error}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cutoffs", "sweep-images", "decompose", "fuse-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freqfuse" / "__init__.py").is_file():
        print(f"error: no freqfuse sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    print("env " + json.dumps(environment(), sort_keys=True))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
