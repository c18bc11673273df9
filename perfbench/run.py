"""Fixed-seed benchmark for bitmine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine-kt2 --seed 1 --seconds 20 --trace 0

One run sets up the workload's datasets from ``--seed`` (``setup_s``
times that in fresh interpreters), then runs operations for ``--seconds``
seconds, split evenly over one worker process per dataset; the workers
run one after another.  Every operation is one ``bitmine.cli.main([...])``
call in a worker, so it builds its backend and ``TransactionSet`` from
scratch, as a CLI invocation does; no coder state survives from one
operation to the next.  Each output is checked outside the timed region.
End-to-end times are means over the datasets; per-layer values are sums
over the datasets of one operation on each.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations (and, for
mine-kt2, operations at ``--threads 2``) and reports the per-layer
metrics; it also writes the miner's per-level table to
``.perfbench-work/<workload>-seed<seed>/levels.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
2, with no result line, when the checkout holds no bitmine sources.
``--worker`` is internal: it runs one worker and prints its raw records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import tracer as tracing
import workloads

ROOT = workloads.ROOT
SETUP_RUNS = 5

# Worker k mines dataset k.  Python salts string hashes per process, which
# changes dict layouts; on ncd-kt1 that alone moved operation time by 13%
# between processes.  Worker k therefore runs with the fixed hash seed k,
# so every run, on every commit, averages the same layouts.
WORKERS = workloads.DATASETS
# A worker runs for about --seconds / WORKERS plus one operation, its
# checks and its start-up; past WORKER_SLACK_S more it counts as failed.
WORKER_SLACK_S = 30

# The host's speed drifts by up to a third over tens of seconds on a shared
# VM.  A fixed pure-Python loop, timed REF_REPEATS times after every
# operation, tracks that drift: each operation's time is scaled by
# REF_NOMINAL_S / (the mean of the median loop times on either side of it).
# REF_NOMINAL_S is about the loop's time on a quiet 2-vCPU x86-64 VM; it
# only sets the scale.
REF_ITERATIONS = 10_000
REF_REPEATS = 3
REF_NOMINAL_S = 0.035
_LOG2 = [math.log2(i) for i in range(1, 64)]


def reference() -> float:
    """Fixed work shaped like the coders' inner loops: a small dict copy
    per step, tuple keys, table lookups and float sums."""
    base = {(i, "0"): (i, i + 1) for i in range(10)}
    total = 0.0
    for i in range(REF_ITERATIONS):
        counts = dict(base)
        key = i % 10
        for ch in "0110100111":
            c0, c1 = counts.get((key, ch), (0, 0))
            total += _LOG2[c0 + c1] - _LOG2[c0]
            counts[(key, ch)] = (c0 + 1, c1)
    return total


def timed_reference() -> float:
    gc.collect()
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def scaled(samples):
    """Median of operation time / reference time."""
    return median(w / r for w, r in samples)


def _ratio(a, b):
    return a / b if a is not None and b else None


# -- one worker process ----------------------------------------------------------


class Worker:
    """Runs checked operations in this process and records them."""

    def __init__(self, bm, wl, seed, k, work):
        self.bm, self.wl, self.work = bm, wl, work / f"d{k}"
        self.facts = json.loads((self.work / "facts.json").read_text())
        self.expected = wl.recorded_digest(seed, k)
        self.first = k == 1  # the first worker also makes the once-per-run checks
        self.rec = {"attempted": 0, "failed": 0, "problems": [], "units": None}
        self._ref_prev = None

    def fail(self, what, reason, operation=True):
        self.rec["failed"] += operation
        self.rec["problems"].append(f"{what}: {reason}")

    def operation(self, threads=1, tracer=None):
        """Run one checked operation; return (wall s, reference s) or None."""
        wl, bm, rec = self.wl, self.bm, self.rec
        argv = wl.argv(self.work, threads)
        rec["attempted"] += 1
        if self._ref_prev is None:
            self._ref_prev = timed_reference()
        out = wl.output(self.work)
        if out is not None and out.exists():
            out.unlink()
        gc.collect()
        buf = io.StringIO()
        try:
            if tracer is not None:
                tracing.install(tracer, bm, wl.eps(self.facts.get("transactions", 0)))
            try:
                start = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = bm.cli.main(argv)
                wall = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception:  # a crash is a failed operation, not a failed run
            self.fail(f"operation {rec['attempted']}", traceback.format_exc(limit=3))
            return None
        ref_now = timed_reference()
        ref = (self._ref_prev + ref_now) / 2
        self._ref_prev = ref_now
        reason = wl.check(bm, self.work, self.facts, rc, buf.getvalue(), self.expected)
        if reason is not None:
            self.fail(f"operation {rec['attempted']} ({argv[0]})", reason)
            return None
        if rec["units"] is None:
            rec["units"] = wl.units(bm, self.work, self.facts)
        return wall, ref

    def loop(self, seconds, step):
        """Call ``step`` at least once, and again while it is expected to
        end within ``seconds``."""
        start = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            step()
            durations.append(time.perf_counter() - t)
            if time.perf_counter() - start + median(durations) > seconds:
                return

    def fresh_state_check(self):
        """mine-kt2 at its recorded seed, run in this process after other
        operations, must still give the recorded result."""
        kt2 = workloads.WORKLOADS["mine-kt2"]
        d = self.work / "fresh-state"
        d.mkdir(exist_ok=True)
        kt2.setup(self.bm, kt2.recorded_seed, d)
        self.rec["attempted"] += 1
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.bm.cli.main(kt2.argv(d))
        reason = kt2.check(self.bm, d, {}, rc, "", kt2.recorded_digest(kt2.recorded_seed, 1))
        if reason is not None:
            self.fail("mine-kt2 after oracle-kt1 in one process", reason)

    def untraced(self, seconds):
        plain = []
        self.loop(seconds, lambda: plain.append(self.operation()))
        self.rec["plain"] = [s for s in plain if s is not None]

    def traced(self, seconds):
        wl = self.wl
        threads2 = wl.name == "mine-kt2" and (os.cpu_count() or 1) >= 2
        plain, parallel, traced = [], [], []

        def round_():
            plain.append(self.operation())
            if threads2:
                parallel.append(self.operation(threads=2))
            t = tracing.Tracer()
            traced.append((self.operation(tracer=t), t))

        self.loop(seconds, round_)
        ok = [t for s, t in traced if s is not None]
        self.rec.update(
            plain=[s for s in plain if s is not None],
            parallel=[s for s in parallel if s is not None] if threads2 else None,
            traced=[s for s, _ in traced if s is not None],
            layers=[layer_values(t) for t in ok])
        if not (self.first and ok):
            return
        first = ok[0]
        self.rec["levels"] = first.levels
        self.rec["triangle_s"] = 0.0
        if first.matrix is not None:
            triangle = getattr(self.bm.distance, "triangle_violation_rate", None)
            self.rec["triangle_s"] = None
            if triangle is not None:
                start = time.perf_counter()
                triangle(first.matrix)
                self.rec["triangle_s"] = time.perf_counter() - start
        self.rec["peak_alloc_mb"] = 0.0
        if isinstance(wl, workloads.MineWorkload):
            tracemalloc.start()
            try:
                self.operation()
                self.rec["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()


def layer_values(t: tracing.Tracer) -> dict:
    """Per-layer values of one traced operation (None where a hook is missing)."""
    c, calls, total, self_ = t.counts, t.calls, t.total, t.self_
    v, h = t.value, t.hooked
    ec, cl = "codelength.extend_cost", "codelength.code_len"
    rows, mined = t.levels, h("miner.prefilter", "miner.count_pass", ec)
    kept = sum(r["kept"] for r in rows)
    groups = sum(r.get("groups", 0) for r in rows)
    pairs = calls["distance.pair"]
    return {
        "codelength.pairs": c["pairs"] if h(ec, cl) else None,
        "codelength.bits_coded": c["bits_coded"] if h(ec) else None,
        "codelength.extend_cost.self_s": v(self_, ec),
        "codelength.extend.self_s": v(self_, "codelength.extend"),
        "codelength.code_len.calls": v(calls, cl),
        "codelength.code_len.s": v(total, cl),
        "codelength.signature.calls": v(calls, "codelength.signature"),
        "codelength.signature.self_s": v(self_, "codelength.signature"),
        "occurrence.cache_fill_s": c["cache_fill_s"] if h("occurrence.cached") else None,
        "miner.levels": v(calls, "miner.generate"),
        "miner.candidates": sum(r["candidates"] for r in rows) if mined else None,
        "miner.prefilter_kept": kept if mined else None,
        "miner.groups": groups if mined else None,
        "miner.group_ratio": (groups / kept if kept else 0.0) if mined else None,
        "miner.frequent": sum(r.get("frequent", 0) for r in rows) if mined else None,
        "miner.count_pass.self_s": v(self_, "miner.count_pass"),
        "miner.prefilter.s": v(total, "miner.prefilter"),
        "miner.generate.s": v(total, "miner.generate"),
        "oracle.s": v(total, "oracle"),
        "oracle.strings": c["oracle.strings"] if h("oracle", cl) else None,
        "distance.matrix_s": v(total, "distance.matrix"),
        "distance.pairs": v(calls, "distance.pair"),
        "distance.code_len_per_pair": ((c["distance.code_len"] / pairs if pairs else 0.0)
                                       if h("distance.matrix", "distance.pair", cl) else None),
        "textio.load_s": v(total, "textio.load"),
        "textio.format_s": v(total, "textio.format"),
        "cli.self_s": v(self_, "cli"),
    }


# Ratios among the per-layer values, with the count each is a ratio to;
# over datasets they combine weighted by that count.
RATIOS = {"miner.group_ratio": "miner.prefilter_kept",
          "distance.code_len_per_pair": "distance.pairs"}

# Per-layer values that must repeat exactly between traced operations.
COUNT_METRICS = {"codelength.pairs", "codelength.bits_coded", "codelength.code_len.calls",
                 "codelength.signature.calls", "miner.levels", "miner.candidates",
                 "miner.prefilter_kept", "miner.groups", "miner.group_ratio",
                 "miner.frequent", "oracle.strings", "distance.pairs",
                 "distance.code_len_per_pair"}


def worker_main(args) -> int:
    bm = workloads.import_bitmine()
    w = Worker(bm, workloads.WORKLOADS[args.workload], args.seed, args.worker,
               workloads.work_dir(args.workload, args.seed))
    (w.traced if args.trace else w.untraced)(args.seconds)
    if w.first and args.workload == "oracle-kt1":
        w.fresh_state_check()
    w.rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(w.rec))
    return 0


# -- the run: set-up, workers, metrics ------------------------------------------


def _lost_worker(k, reason):
    return {"attempted": 1, "failed": 1, "units": None,
            "problems": [f"worker {k} {reason}"]}


class Run:
    def __init__(self, args):
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.work = workloads.work_dir(args.workload, args.seed)
        self.problems = []
        self.attempted = self.failed = 0

    def setup(self):
        """Set up SETUP_RUNS times, each in a fresh interpreter; the inputs
        must come out byte-identical every time.  Each set-up time is
        scaled by the reference loop like an operation's."""
        probes, digests, refs = [], set(), [timed_reference()]
        for _ in range(SETUP_RUNS):
            proc = subprocess.run(
                [sys.executable, workloads.__file__, self.wl.name, str(self.args.seed),
                 str(self.work)], capture_output=True, text=True, timeout=15, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
            probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            refs.append(timed_reference())
            digests.add(tuple(workloads.sha256(p) for p in sorted(self.work.rglob("*"))
                              if p.is_file()))
        if len(digests) != 1:
            self.problems.append("set-up: inputs differ between set-ups of one seed")
        for k, facts in enumerate(probes[-1]["datasets"], 1):
            (self.work / f"d{k}" / "facts.json").write_text(json.dumps(facts))
        self.setup_s = median(p["setup_s"] * REF_NOMINAL_S * 2 / (r0 + r1)
                              for p, r0, r1 in zip(probes, refs, refs[1:]))
        self.datagen_s = median(p["datagen_s"] for p in probes)

    def workers(self):
        recs = []
        for k in range(1, WORKERS + 1):
            a = self.args
            argv = [sys.executable, __file__, "--workload", a.workload, "--seed", str(a.seed),
                    "--seconds", repr(a.seconds / WORKERS), "--trace", str(a.trace),
                    "--worker", str(k)]
            env = dict(os.environ, PYTHONHASHSEED=str(k))
            timeout = a.seconds / WORKERS + WORKER_SLACK_S
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=timeout, cwd=ROOT, env=env)
                rec = json.loads(proc.stdout.strip().splitlines()[-1])
            except subprocess.TimeoutExpired:
                rec = _lost_worker(k, f"timed out after {timeout:.0f} s")
            except (IndexError, ValueError):
                rec = _lost_worker(k, f"exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            self.attempted += rec["attempted"]
            self.failed += rec["failed"]
            self.problems += rec["problems"]
            recs.append(rec)
        return recs

    def end_to_end(self, recs):
        per_dataset = [scaled(r["plain"]) * REF_NOMINAL_S / r["units"] * 1e6
                       for r in recs if r.get("plain") and r["units"]]
        for k, r in enumerate(recs, 1):
            plain = r.get("plain", [])
            print(f"dataset {k}: {len(plain)} checked operations; wall_s median "
                  f"{median(w for w, _ in plain)} s; reference median "
                  f"{median(r for _, r in plain)} s; work units {r['units']}")
        return {
            "work_us": statistics.fmean(per_dataset) if per_dataset else None,
            "setup_s": self.setup_s,
            "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in recs),
            "ok_rate": 1 - self.failed / max(1, self.attempted),
        }

    def per_layer(self, recs):
        names = list(layer_values(tracing.Tracer()))
        per_dataset = []
        for r in recs:
            layers, values = r.get("layers") or [dict.fromkeys(names)], {}
            for name in names:
                seen = [v[name] for v in layers]
                if name in COUNT_METRICS:
                    if len(set(seen)) != 1:
                        self.problems.append(f"trace: {name} differs between operations: {seen}")
                    values[name] = seen[0]
                else:
                    values[name] = None if None in seen else median(seen)
            per_dataset.append(values)
        out = {}
        for name in names:
            vals = [v[name] for v in per_dataset]
            base = [v[RATIOS[name]] for v in per_dataset] if name in RATIOS else None
            if None in vals or (base and None in base):
                out[name] = None
            elif base:
                out[name] = sum(v * b for v, b in zip(vals, base)) / sum(base) if sum(base) else 0.0
            else:
                out[name] = sum(vals)
        first = recs[0]
        levels = first.get("levels") or []
        if levels:
            (self.work / "levels.json").write_text(json.dumps(levels, indent=1) + "\n")
            print("level candidates kept groups pairs frequent seconds")
            for r in levels:
                print(r["level"], r["candidates"], r["kept"], r.get("groups"),
                      r.get("pairs"), r.get("frequent"), f"{r['seconds']:.4f}")

        def mean_ratio(a, b):
            ratios = [_ratio(scaled(r.get(a, [])), scaled(r.get(b) or [])) for r in recs]
            return None if None in ratios else statistics.fmean(ratios)

        walls = [median(w for w, _ in r.get("plain", [])) for r in recs]
        print(f"operations: {sum(len(r.get('plain', [])) for r in recs)} untraced, "
              f"{sum(len(r.get('parallel') or []) for r in recs)} at --threads 2, "
              f"{sum(len(r.get('traced', [])) for r in recs)} traced")
        out.update({
            "wall_s": None if None in walls else sum(walls),
            "host.ref_s": median(r for rec in recs for _, r in rec.get("plain", [])),
            "trace.overhead_ratio": mean_ratio("traced", "plain"),
            "miner.threads2_speedup": mean_ratio("plain", "parallel")
            if first.get("parallel") is not None else 0.0,
            "miner.peak_alloc_mb": first.get("peak_alloc_mb"),
            "distance.triangle_s": first.get("triangle_s"),
            "datagen.gen_s": self.datagen_s,
        })
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.worker:
            return worker_main(args)
        workloads.import_bitmine()
    except workloads.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    run.setup()
    recs = run.workers()
    values = run.per_layer(recs) if args.trace else run.end_to_end(recs)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    unknown = {m["name"] for m in wanted} ^ set(values)
    if unknown:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 3
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
