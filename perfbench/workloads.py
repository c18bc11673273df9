"""Workload definitions for the bitmine benchmark.

Each workload turns a seed into input files (set-up), names the exact
``bitmine`` argv that one operation runs, counts the operation's work
units, and checks the operation's output.  ``workloads.json`` beside this
file records, per workload, the generator call, the argv, the layers it
stresses and bypasses, the recorded digests and the counts at the seed
commit.

A run's seed gives DATASETS inputs, one per worker process of the run
(``dataset_seed``), so that every run averages over several datasets.

Run as a script to time one set-up in a fresh interpreter, which is how
``run.py`` measures ``setup_s``::

    python3 perfbench/workloads.py <workload> <seed> <directory>

It writes dataset k into ``<directory>/d<k>`` and prints one JSON line:
``setup_s`` (import, then generate and write every dataset, plus the
preliminary mines of oracle-kt1), ``import_s``, ``datagen_s`` and the
per-dataset facts.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NOTES = json.loads((Path(__file__).with_name("workloads.json")).read_text())

# Sizes are chosen so that one operation takes about 1 s on a 2-vCPU VM and
# a run holds a dozen or more of them.  See workloads.json for the reasons.
ORACLE_T, ORACLE_LEN, ORACLE_CAP = 40, 32, 15
NCD_N, NCD_LEN = 64, (100, 300)
THRESHOLDS = ["--c1", "0.6", "--c2", "0.3"]

# Datasets per run.  Per-operation work differs between datasets of one
# generator (mine-kt2: 8-13% between seeds); averaging three per run
# narrows the spread between runs.
DATASETS = 3


def dataset_seed(seed: int, k: int) -> int:
    """Generator seed of dataset k (1-based) of a run; dataset 1 uses the
    run's seed itself."""
    return seed + 1000 * (k - 1)


class SourceMissing(Exception):
    """The checkout has no importable bitmine under src/."""


def import_bitmine():
    """Import bitmine from this checkout's src/ and nowhere else."""
    if not (SRC / "bitmine" / "__init__.py").is_file():
        raise SourceMissing(f"no bitmine package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bitmine
    import bitmine.cli  # noqa: F401  (the entry point every operation uses)
    if Path(bitmine.__file__).resolve().parent != (SRC / "bitmine").resolve():
        raise SourceMissing(f"bitmine imported from {bitmine.__file__}")
    return bitmine


def work_dir(name: str, seed: int) -> Path:
    """Where a run keeps its inputs and outputs (ignored by git)."""
    return ROOT / ".perfbench-work" / f"{name}-seed{seed}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One workload: inputs from a seed, the argv of one operation, its
    work units and the check of its output."""

    name = ""

    def __init__(self):
        self.notes = NOTES[self.name]
        self.recorded_seed = self.notes["recorded"]["seed"]

    def recorded_digest(self, seed, k):
        """Recorded output digest of dataset k of a run, if there is one."""
        digests = self.notes["recorded"]["output_sha256"]
        return digests[k - 1] if seed == self.recorded_seed and digests else None

    def setup(self, bm, seed: int, d: Path) -> dict:
        """Generate and write the inputs into ``d``; return facts for the run."""
        raise NotImplementedError

    def argv(self, d: Path, threads: int = 1) -> list:
        raise NotImplementedError

    def eps(self, transactions: int) -> int:
        """Absolute support threshold of a mining operation (0 otherwise)."""
        return 0

    def output(self, d: Path):
        """Path of the file an operation writes, or None."""
        return d / "out.txt"

    def units(self, bm, d: Path, facts: dict) -> int:
        """Work units of one operation, fixed by the inputs and the exact
        output; ``work_us`` is the operation time per unit."""
        return 1

    def check(self, bm, d: Path, facts: dict, rc: int, stdout: str, expected=None):
        """Return None when the output is right, else a one-line reason.
        ``expected`` is the recorded output digest, if there is one;
        without it the output is checked structurally."""
        raise NotImplementedError


class MineWorkload(Workload):
    backend: list = []
    transactions = 0
    epsilon = ""
    step_bits = 2

    def setup(self, bm, seed, d):
        t = time.perf_counter()
        spec = bm.PlantSpec(transaction_count=self.transactions, rng_seed=seed)
        T, _ = bm.gen_planted(spec)
        gen_s = time.perf_counter() - t
        (d / "transactions.txt").write_text(bm.textio.emit_transactions(T.items))
        return {"datagen_s": gen_s, "transactions": len(T)}

    def argv(self, d, threads=1):
        return ["mine", str(d / "transactions.txt"), *self.backend, *THRESHOLDS,
                "--epsilon", self.epsilon, "--step-bits", str(self.step_bits),
                "--threads", str(threads), "--out", str(d / "out.txt")]

    def eps(self, transactions):
        return max(1, math.ceil(float(self.epsilon[:-1]) * transactions))

    def _records(self, bm, d):
        return bm.textio.parse_result((d / "out.txt").read_text())

    def candidate_pairs(self, bm, d, facts):
        # Candidates of the exact level-wise search: every string of length
        # 1..step_bits, then 2**step_bits children per reported pattern
        # (also below a last frequent level, whose children all fail).
        records, header = self._records(bm, d)
        truncated = header.get("truncated") == "true"
        top = max((r[3] for r in records), default=0)
        extended = sum(1 for r in records if not (truncated and r[3] == top))
        level0 = sum(2 ** n for n in range(1, self.step_bits + 1))
        return (level0 + 2 ** self.step_bits * extended) * facts["transactions"]

    def check(self, bm, d, facts, rc, stdout, expected=None):
        if rc != 0:
            return f"exit code {rc}"
        digest = sha256(d / "out.txt")
        if expected is not None:
            return None if digest == expected else f"digest {digest} != recorded"
        if facts.setdefault("verified_digest", digest) != digest:
            return "result differs between operations of one run"
        if facts.get("verified"):
            return None
        reason = self.verify(bm, d)
        facts["verified"] = reason is None
        return reason

    def verify(self, bm, d):
        """Prefix closure and an independent recount of every pattern.  A
        result cut at --max-level (``truncated: true``) is still complete
        up to that level."""
        records, _ = self._records(bm, d)
        by_level: dict = {}
        for pattern, _, _, level in records:
            by_level.setdefault(level, set()).add(pattern)
        for pattern, _, _, level in records:
            if level and pattern[:-self.step_bits] not in by_level.get(level - 1, ()):
                return f"{pattern} lacks its parent"
        T = bm.TransactionSet(bm.textio.load_transactions(str(d / "transactions.txt")))
        backend = self.make_backend(bm)
        params = bm.OccurrenceParams(c1=0.6, c2=0.3)
        eps = self.eps(len(T))
        for pattern, count, _, _ in records:
            if count < eps or bm.frequency(backend, params, T, pattern) != count:
                return f"{pattern}: reported count {count} does not recount"
        return None


class MineKT2(MineWorkload):
    name = "mine-kt2"
    backend = ["--backend", "kt", "--order", "2"]
    # One work unit per operation: with signature grouping the time does
    # not follow the candidate count (dividing by it doubled the spread
    # between seeds).  Some datasets reach the default --max-level 64.
    transactions, epsilon = 30, "0.3f"

    def make_backend(self, bm):
        return bm.KTBackend(2)


class MineLZ(MineWorkload):
    name = "mine-lz"
    backend = ["--backend", "lz"]
    # Fewer than 60 transactions or a lower threshold gives some seeds
    # five times the median work.
    transactions, epsilon = 60, "0.4f"

    def make_backend(self, bm):
        return bm.LZBackend()

    def units(self, bm, d, facts):
        # Without grouping every candidate is coded against every
        # transaction, and the candidate count varies 1.7x between seeds.
        return self.candidate_pairs(bm, d, facts)


class OracleKT1(Workload):
    name = "oracle-kt1"
    prelim = ["--backend", "kt", "--order", "1", *THRESHOLDS,
              "--epsilon", "0.5f", "--step-bits", "2", "--threads", "1"]

    def setup(self, bm, seed, d):
        t = time.perf_counter()
        T = bm.gen_random(ORACLE_T, (ORACLE_LEN, ORACLE_LEN), seed)
        gen_s = time.perf_counter() - t
        tx = d / "transactions.txt"
        tx.write_text(bm.textio.emit_transactions(T.items))
        # The preliminary mine whose result every operation diffs against,
        # cut to the oracle's length cap.
        mined = d / "mined.txt"
        rc = bm.cli.main(["mine", str(tx), *self.prelim, "--out", str(mined)])
        if rc != 0:
            raise RuntimeError(f"preliminary mine exited {rc}")
        lines = [ln for ln in mined.read_text().splitlines()
                 if ln.startswith("#") or len(ln.split()[0]) <= ORACLE_CAP]
        (d / "mined_capped.txt").write_text("\n".join(lines) + "\n")
        return {"datagen_s": gen_s, "transactions": len(T)}

    def argv(self, d, threads=1):
        return ["oracle", str(d / "transactions.txt"), "--backend", "kt",
                "--order", "1", *THRESHOLDS, "--epsilon", "0.5f",
                "--max-len", str(ORACLE_CAP), "--diff", str(d / "mined_capped.txt")]

    def output(self, d):
        return None

    def units(self, bm, d, facts):
        # every string of length 1..cap, decided against every transaction
        return (2 ** (ORACLE_CAP + 1) - 2) * facts["transactions"]

    def check(self, bm, d, facts, rc, stdout, expected=None):
        if rc != 0:
            return f"oracle --diff exited {rc}"
        if not stdout.startswith("identical:"):
            return f"unexpected oracle output {stdout[:60]!r}"
        return None


class NcdKT1(Workload):
    name = "ncd-kt1"

    def setup(self, bm, seed, d):
        t = time.perf_counter()
        T = bm.gen_random(NCD_N, NCD_LEN, seed)
        gen_s = time.perf_counter() - t
        (d / "items.txt").write_text(bm.textio.emit_transactions(T.items))
        return {"datagen_s": gen_s, "items": len(T)}

    def argv(self, d, threads=1):
        return ["ncd", str(d / "items.txt"), "--backend", "kt", "--order", "1",
                "--measure", "ncd", "--out", str(d / "out.txt")]

    def units(self, bm, d, facts):
        n = facts["items"]
        return n * (n + 1) // 2  # the diagonal is computed too

    def check(self, bm, d, facts, rc, stdout, expected=None):
        if rc != 0:
            return f"exit code {rc}"
        digest = sha256(d / "out.txt")
        if expected is not None and digest != expected:
            return f"digest {digest} != recorded"
        if facts.setdefault("verified_digest", digest) != digest:
            return "matrix differs between operations of one run"
        rows = [ln.split() for ln in (d / "out.txt").read_text().splitlines()
                if ln and not ln.startswith(("#", "labels:"))]
        n = facts["items"]
        if len(rows) != n or any(len(r) != n for r in rows):
            return "matrix is not square"
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            return "matrix is not symmetric"
        return None


WORKLOADS = {w.name: w for w in (MineKT2(), MineLZ(), OracleKT1(), NcdKT1())}


def _main(argv):
    name, seed, d = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    bm = import_bitmine()
    import_s = time.perf_counter() - t0
    datasets = []
    for k in range(1, DATASETS + 1):
        (d / f"d{k}").mkdir(exist_ok=True)
        datasets.append(WORKLOADS[name].setup(bm, dataset_seed(seed, k), d / f"d{k}"))
    print(json.dumps({"setup_s": time.perf_counter() - t0, "import_s": import_s,
                      "datagen_s": sum(f["datagen_s"] for f in datasets),
                      "datasets": datasets}))


if __name__ == "__main__":
    try:
        _main(sys.argv[1:])
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
