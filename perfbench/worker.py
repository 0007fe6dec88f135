"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process, so every pass begins
with the program's ``lru_cache``s cold. Modes:

    worker.py setup                        time import + registry + tables
    worker.py pass WORKLOAD SEED SECONDS FIXED TRACE
    worker.py repro-child SEED             one traced ``repro --json``

``pass`` runs the workload for SECONDS (FIXED=0), or over the fixed
input set of the traced run (FIXED=1), optionally with tracing on
(TRACE=1), checks every output outside the timed region and prints one
JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import inputs
import oracle

# Per-operation limits in seconds. An operation past its limit is
# counted as failed; it is never removed from the inputs.
LIMIT = {"obstruct-ladder": 20.0, "trigonal-census": 2.0, "chain-search": 10.0,
         "cli-repro": 30.0}
# A pass stops starting new operations after this long (timed, fixed
# input set), so a pathological regression still ends the run in time.
HARD_STOP = {False: 100.0, True: 40.0}

# Size of the fixed input set of a traced run.
TRACE_LADDER_ROUNDS = 2
TRACE_CENSUS_CHUNKS = 32
TRACE_CHAIN_BATCHES = 16
TRACE_REPRO_RUNS = 8

# op_tail_ms is this percentile (nearest rank) of the operation times,
# chosen so that a 20 s run has at least ten operations beyond it.
TAIL = {"obstruct-ladder": 80, "trigonal-census": 99, "chain-search": 90, "cli-repro": 75}
# A timed pass completes at least this many units, and peak_rss_mb is
# the high-water mark when it has. comb.is_closed's cache grows with the
# combs searched, so a peak read at the end of a timed pass would follow
# the host's speed rather than the program's memory use.
MEMORY_UNITS = {"obstruct-ladder": 4, "trigonal-census": 48, "chain-search": 48,
                "cli-repro": 40}

CENSUS_CHUNK = 250
REFUSAL = "not realizable on this surface index"


class OperationLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise OperationLimit()


def limited(fn, seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """Bookkeeping for one pass: operations, failures, timed samples."""

    def __init__(self, workload: str, seed: int, seconds: float, fixed: bool, traced: bool,
                 tracer):
        self.workload, self.seed, self.fixed = workload, seed, fixed
        self.traced, self.tracer = traced, tracer
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failures: list[dict] = []
        self.latencies: list[float] = []  # wall seconds of each operation
        self.units: list[tuple[int, float]] = []  # (operations, wall seconds)
        self.digest = hashlib.sha256()
        self.truncated = False  # the fixed input set was cut short
        self.peak_rss_mb: float | None = None

    def overdue(self) -> bool:
        return time.perf_counter() - self.started >= HARD_STOP[self.fixed]

    def more(self, units_done: int, fixed_units: int) -> bool:
        """Whether to start another unit of the input set."""
        if self.fixed:
            if units_done >= fixed_units:
                return False
            self.truncated = self.overdue()
            return not self.truncated
        if self.overdue():
            return False
        return (time.perf_counter() < self.deadline
                or len(self.units) < MEMORY_UNITS[self.workload])

    def run_op(self, fn):
        """(kind, value): kind is "ok", "limit" or "error"."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            return "ok", limited(fn, LIMIT[self.workload])
        except OperationLimit:
            return "limit", f"past the {LIMIT[self.workload]} s limit"
        except Exception as exc:  # any raise is a failed operation, reported
            return "error", f"{type(exc).__name__}: {exc}"
        finally:
            self.latencies.append(time.perf_counter() - start)

    def fail(self, kind: str, subject, detail: str) -> None:
        self.failures.append({"kind": kind, "input": subject, "detail": detail})

    def unit(self, ops: int, seconds: float) -> None:
        """One timed unit of the input set: a ladder round, a census
        chunk, a batch of combs, one command-line invocation."""
        self.units.append((ops, seconds))
        if len(self.units) == MEMORY_UNITS[self.workload]:
            self.peak_rss_mb = peak_rss_mb(self.workload)

    def metrics(self) -> dict:
        ms = sorted(1000.0 * s for s in self.latencies)
        tail = ms[max(0, -(-len(ms) * TAIL[self.workload] // 100) - 1)]
        return {
            "throughput_per_s": (sum(n for n, _ in self.units)
                                 / sum(s for _, s in self.units), "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (tail, "ms"),
        }


# -- obstruct-ladder ------------------------------------------------------


def ladder(p: Pass) -> dict:
    """One operation is a rung: the five words of one strand count, each
    through the verdict and the Alexander polynomial. Rungs cost about
    the same at every m, so the median is steady; single words differ
    by more than an order of magnitude."""
    from ruledcurves import braid, invariants

    def rung(braids):
        return [(invariants.quasipositivity_verdict(b), invariants.alexander_polynomial(b))
                for b in braids]

    records = []
    rounds = 0
    while p.more(rounds, TRACE_LADDER_ROUNDS):
        words = inputs.ladder_round(p.seed, rounds)
        rungs = [[w for w in words if w["strands"] == m] for m in inputs.LADDER_STRANDS]
        braids = [[braid.BraidWord(w["strands"], tuple(w["letters"])) for w in group]
                  for group in rungs]
        start, done = time.perf_counter(), len(records)
        for group, bs in zip(rungs, braids):
            if p.overdue():
                p.truncated = p.fixed
                break
            records.append((group, *p.run_op(lambda bs=bs: rung(bs))))
        p.unit(len(records) - done, time.perf_counter() - start)
        rounds += 1
    return {"records": records}


def check_ladder(p: Pass, records) -> None:
    """One failure per rung, listing every word of the rung that failed."""
    for group, kind, value in records:
        words = [{"strands": w["strands"], "letters": w["letters"]} for w in group]
        if kind != "ok":
            p.fail(kind, words, value)
            continue
        problems = [(word, problem) for word, w, (verdict, alex) in zip(words, group, value)
                    if (problem := _word_problem(p, w, verdict, alex))]
        if problems:
            p.fail("wrong", [word for word, _ in problems],
                   "; ".join(problem for _, problem in problems))


def _word_problem(p: Pass, w: dict, verdict, alex) -> str | None:
    m, letters = w["strands"], w["letters"]
    e = sum(1 if x > 0 else -1 for x in letters)
    p.digest.update(repr((sorted(alex.coeffs.items()), verdict.status,
                          [o.test for o in verdict.obstructions])).encode())
    return (oracle.check_normalised(alex.coeffs)
            or oracle.check_alexander(m, letters, alex.coeffs)
            or _verdict_problem(w["class"], m, e, verdict, alex.coeffs))


def _verdict_problem(cls: str, m: int, e: int, verdict, coeffs) -> str | None:
    """Re-derive what the obstruction suite must say from the checked
    Alexander polynomial; the simple-root test is not re-derived."""
    fired = {o.test for o in verdict.obstructions}
    if verdict.exponent_sum != e or verdict.strands != m:
        return f"verdict reports e={verdict.exponent_sum}, m={verdict.strands}"
    if e < 0:
        ok = verdict.status == "not_quasipositive" and fired == {"negative_exponent"}
    elif e == 0:
        if cls == "zero-trivial":
            ok = verdict.status == "quasipositive_certified"
        elif verdict.status == "quasipositive_certified":
            ok = not coeffs  # a trivial braid closes to an unlink
        else:
            ok = verdict.status == "not_quasipositive" and fired == {"exponent_zero"}
    else:
        want = set()
        if e < m - 1 and coeffs:
            want.add("alex")
        if e == m - 1 and not oracle.is_perfect_square(oracle.determinant(coeffs)):
            want.add("square")
        ok = (fired - {"double_alex"} == want
              and ("double_alex" not in fired or e == m - 1)
              and verdict.status == ("not_quasipositive" if fired else "unknown"))
    return None if ok else f"class {cls}: status {verdict.status}, fired {sorted(fired)}"


# -- trigonal-census -----------------------------------------------------


def census(p: Pass) -> dict:
    """Each chunk is checked into the verdict-pair histogram after its
    timed slice, so no per-scheme record outlives its chunk."""
    from ruledcurves import comb, invariants, lscheme

    def both_paths(ls):
        status = invariants.quasipositivity_verdict(lscheme.to_braid(ls)).status
        try:
            realizable = comb.algebraic_realizability_verdict(ls)
        except lscheme.LSchemeError as exc:
            if REFUSAL not in str(exc):
                raise
            return "refused", status
        return ("realizable" if realizable else "not_realizable"), status

    texts = inputs.census(p.seed)
    histogram: Counter = Counter()
    chunks = 0
    while p.more(chunks, TRACE_CENSUS_CHUNKS) and chunks * CENSUS_CHUNK < len(texts):
        chunk = texts[chunks * CENSUS_CHUNK:(chunks + 1) * CENSUS_CHUNK]
        schemes = [lscheme.parse_scheme(t) for t in chunk]
        start = time.perf_counter()
        records = [(text, *p.run_op(lambda ls=ls: both_paths(ls)))
                   for text, ls in zip(chunk, schemes)]
        p.unit(len(chunk), time.perf_counter() - start)
        check_chunk(p, records, histogram)
        chunks += 1
    return {"records": histogram}


def check_chunk(p: Pass, records, histogram: Counter) -> None:
    for text, kind, value in records:
        if kind != "ok":
            p.fail(kind, text, value)
            continue
        histogram["/".join(value)] += 1
        if value == ("realizable", "not_quasipositive"):
            p.fail("wrong", text, "law (a): algebraically realizable but braid-obstructed")


def check_census(p: Pass, histogram: Counter) -> dict:
    p.digest.update(repr(sorted(histogram.items())).encode())
    return dict(sorted(histogram.items()))


# -- chain-search --------------------------------------------------------


def chain(p: Pass) -> dict:
    from ruledcurves import comb

    seen: set = set()
    records = []
    batches = 0
    while p.more(batches, TRACE_CHAIN_BATCHES):
        items = []
        for it in inputs.chain_batch(p.seed, batches):
            w = comb.WeightedComb(tuple(it["word"]), *it["weights"])
            if w not in seen:
                seen.add(w)
                items.append((it, w))
        batches += 1
        if not items:
            continue
        start = time.perf_counter()
        for it, w in items:
            records.append((it, w, *p.run_op(lambda w=w: (comb.mu_exists(w), comb.mu_count(w)))))
        p.unit(len(items), time.perf_counter() - start)
    return {"records": records}


# Unpruned counts are exponential; only small inputs are re-checked.
UNPRUNED_SAMPLE = 4
UNPRUNED_MAX_WORD = 24


def check_chain(p: Pass, records) -> None:
    import random

    from ruledcurves import comb

    small = []
    for it, w, kind, value in records:
        subject = f"{it['word']} | {it['weights']}"
        if kind != "ok":
            p.fail(kind, subject, value)
            continue
        exists, count = value
        p.digest.update(repr((subject, exists, count)).encode())
        if exists != (count > 0):
            p.fail("wrong", subject, f"mu_exists={exists} but mu_count={count}")
        elif it["positive"] and count < 1:
            p.fail("wrong", subject, f"unwound from a closed comb, but mu_count={count}")
        elif len(w.word) <= UNPRUNED_MAX_WORD:
            small.append((subject, w, count))
    rng = random.Random(f"unpruned:{p.seed}")
    for subject, w, count in rng.sample(small, min(UNPRUNED_SAMPLE, len(small))):
        try:
            full = limited(lambda: comb.mu_count(w, prune=False), LIMIT["chain-search"])
        except OperationLimit:
            p.fail("limit", subject, "unpruned mu_count past the limit")
            continue
        if full != count:
            p.fail("wrong", subject, f"pruned mu_count={count}, unpruned={full}")


# -- cli-repro -----------------------------------------------------------


def repro(p: Pass) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    if p.traced:  # each invocation traces itself
        cmd = [sys.executable, os.path.join(here, "worker.py"), "repro-child", str(p.seed)]
    else:
        cmd = [sys.executable, "-m", "ruledcurves.cli", "repro", "--json"]
    records = []
    summaries = []
    while p.more(len(records), TRACE_REPRO_RUNS):
        p.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=LIMIT["cli-repro"])
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.perf_counter() - start
        p.latencies.append(elapsed)
        p.unit(1, elapsed)
        if proc is None:
            records.append(("limit", None, b""))
            continue
        code, out = proc.returncode, proc.stdout
        if p.traced and code == 0:
            child = json.loads(out)
            code, out = child["code"], child["stdout"].encode()
            summaries.append(child["trace"])
        records.append((code, proc.stderr.decode(errors="replace")[-400:], out))
    return {"records": records, "summaries": summaries}


def check_repro(p: Pass, records) -> None:
    reference = None
    for code, err, out in records:
        if code == "limit":
            p.fail("limit", "repro --json", f"past the {LIMIT['cli-repro']} s limit")
            continue
        if code != 0:
            p.fail("wrong", "repro --json", f"exit code {code}: {err}")
            continue
        report = json.loads(out)
        if report["failed"] or report["passed"] != report["total"]:
            p.fail("wrong", "repro --json", f"{report['passed']}/{report['total']} passed")
        if reference is None:
            reference = out
            p.digest.update(out)
        elif out != reference:
            p.fail("wrong", "repro --json", "output differs between invocations")


WORKLOADS = {
    "obstruct-ladder": (ladder, check_ladder),
    "trigonal-census": (census, check_census),
    "chain-search": (chain, check_chain),
    "cli-repro": (repro, check_repro),
}


def run_pass(workload: str, seed: int, seconds: float, fixed: bool, traced: bool) -> dict:
    tracer = None
    if traced and workload != "cli-repro":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    run, check = WORKLOADS[workload]
    p = Pass(workload, seed, seconds, fixed, traced, tracer)
    result = run(p)
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        dump_spans(tracer, summary, workload, seed)
    elif result.get("summaries"):
        from tracing import merge

        summary = merge(result["summaries"])
    # Read before the checks, so the oracle and the unpruned search do
    # not count towards the program's peak.
    if p.peak_rss_mb is None:
        p.peak_rss_mb = peak_rss_mb(workload)
    extra = check(p, result["records"])
    return {
        "attempted": p.attempted,
        "failures": p.failures,
        "wall": sum(seconds for _, seconds in p.units),
        "digest": p.digest.hexdigest(),
        "metrics": p.metrics(),
        "peak_rss_mb": p.peak_rss_mb,
        "trace": summary,
        "histogram": extra,
        "truncated": p.truncated,
        "operations": len(p.latencies),
    }


def peak_rss_mb(workload: str) -> float:
    """High-water resident memory so far; on cli-repro, of the largest
    invocation."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-repro"
                               else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


SPAN_DIR = ".perfbench-out"


def dump_spans(tracer, summary: dict, workload: str, seed: int) -> None:
    """Write the spans and counters of a traced pass once it has ended."""
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload}-{seed}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "strands", "error"],
                   "spans": tracer.spans, "totals": summary}, fh)


def setup() -> dict:
    """CPU time of the thread that does the set-up (user + system). The
    set-up is single-threaded work on cached files. Wall time also holds
    the time a shared host keeps the process waiting for a core, and the
    process's CPU time holds what numpy's BLAS threads burn while they
    start, which rises when the other core is idle."""
    start = time.thread_time()
    import ruledcurves  # noqa: F401
    from ruledcurves import cli, schemes7

    imported = time.thread_time()
    fixtures = cli.load_registry()
    tables = schemes7.enumerate_schemes("any")
    done = time.thread_time()
    return {"import_s": imported - start, "setup_s": done - start,
            "fixtures": len(fixtures), "schemes": len(tables)}


def repro_child(seed: int) -> dict:
    from ruledcurves import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["repro", "--json"])
    tracer.uninstall()
    summary = tracer.summary()
    dump_spans(tracer, summary, "cli-repro", seed)
    return {"code": code, "stdout": out.getvalue(), "trace": summary}


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        result = setup()
    elif argv[0] == "repro-child":
        result = repro_child(int(argv[1]))
    else:
        workload, seed, seconds, fixed, traced = argv[1:6]
        result = run_pass(workload, int(seed), float(seconds), fixed == "1", traced == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
