#!/usr/bin/env python3
"""posetoperad benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Each workload keeps one job in flight and sends the next job only
when the previous one has finished.  --trace 0 measures the end-to-end
metrics; --trace 1 runs every unit twice, untraced then traced, and reports
per-layer self time and counters from the traced copies (perfbench/tracer.py
wraps the package's public functions from outside).  Every job's output is
checked against stored expected values (refs/, made by make_refs.py).  The
last line of stdout is the JSON result; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from decimal import Decimal, getcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("zeta-cold", "enum-cold", "corpus-warm")
SETUP_RUNS = 9
JOB_TIMEOUT_S = 60
# whole percents (and p99.9): on corpus-warm p99 then stays clear of the
# 2 cold jobs per batch that finer rungs such as p99.5 land among
TAIL_LADDER = (99.9,) + tuple(range(99, 49, -1))
STRATA = 16
getcontext().prec = 80


class Fail(Exception):
    """A job whose output or exit code is not the expected one."""


def load_refs():
    refs = {}
    for name in ("zeta", "enum", "corpus"):
        with open(os.path.join(HERE, "refs", f"{name}.json")) as f:
            refs[name] = json.load(f)
    return refs


# -- running processes ---------------------------------------------------------

class Proc:
    __slots__ = ("code", "out", "err", "wall", "rss_mb")

    def __init__(self, code, out, err, wall, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.rss_mb = wall, rss_mb


class Runner:
    """Starts the program's processes from a checkout and reaps each one
    with its own resource usage."""

    def __init__(self, root):
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("POSETOPERAD_DIGITS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"  # same input, same set orders
        self.tmp = os.path.join(root, ".perfbench_tmp")
        os.makedirs(self.tmp, exist_ok=True)
        # Processes take the allowed CPUs in turn, so that a run samples
        # every core: on a shared 2-core host one core at a time can run
        # 30 % slower, and a run that stayed on it read that core alone.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.started = 0

    def run(self, args, stdin=None, same_cpu=False):
        """Run one process to its end; same_cpu puts it on the CPU of the
        previous one (the traced twin of an untraced unit)."""
        if same_cpu:
            self.started -= 1
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable] + args, cwd=self.root,
                             env=self.env,
                             stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            os.sched_setaffinity(p.pid, {self.cpus[self.started % len(self.cpus)]})
        except OSError:
            pass  # the process has already exited, or the CPU set changed
        self.started += 1
        timer = threading.Timer(JOB_TIMEOUT_S, p.kill)
        timer.start()
        try:
            if stdin:
                p.stdin.write(stdin)
                p.stdin.close()
            out = p.stdout.read()
            err = p.stderr.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
        return Proc(p.returncode, out, err, wall, usage.ru_maxrss / 1024)


def measure_setup(runner):
    """Median wall time of a fresh interpreter importing posetoperad.cli and
    building its parser (one untimed start first fills the bytecode cache)."""
    code = "import posetoperad.cli as c; c.build_parser()"
    times = []
    for i in range(SETUP_RUNS + 1):
        p = runner.run(["-c", code])
        if p.code != 0:
            raise SystemExit(f"set-up failed: {p.err.decode()[-500:]}")
        if i:
            times.append(p.wall)
    return statistics.median(times)


# -- output checks -------------------------------------------------------------

def _same(expected, got):
    """Every key of an expected dict matches in got (recursively)."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            k in got and _same(v, got[k]) for k, v in expected.items())
    return expected == got


def _close(a, b, tol):
    return abs(Decimal(a) - Decimal(b)) <= Decimal(tol)


def _parse(proc):
    if proc.code != 0:
        raise Fail(f"exit code {proc.code}: {proc.err.decode()[-300:]}")
    try:
        return json.loads(proc.out)
    except ValueError as e:
        raise Fail(f"unparsable output: {e}") from None


# -- workloads -----------------------------------------------------------------

class Unit:
    """One process of a workload: its arguments, stdin, the expected
    values its check reads, and the check itself."""

    def __init__(self, args, expect, check, stdin=None, traced_args=None):
        self.args, self.expect, self.check = args, expect, check
        self.stdin, self.traced_args = stdin, traced_args


def _stratified(rng, items):
    """Endless draws from (cost, item) pairs: each block of STRATA jobs takes
    one random item from each cost stratum, in random order, so that every
    run sees the same cost mix whatever its seed and length."""
    ranked = [item for _, item in sorted(items, key=lambda ci: ci[0])]
    k = len(ranked) / STRATA
    groups = [ranked[round(i * k):round((i + 1) * k)] for i in range(STRATA)]
    while True:
        block = [rng.choice(g) for g in groups]
        rng.shuffle(block)
        yield from block


class ColdWorkload:
    """One fresh `posetoperad` process per job (zeta-cold, enum-cold).
    Items are (cost, (argv, expect, check)); check(expect, output) returns
    True or raises Fail."""

    def __init__(self, items):
        self.items = items

    def units(self, seed, runner):
        span_file = os.path.join(runner.tmp, f"cold-spans-{os.getpid()}.json")
        for argv, expect, check in _stratified(random.Random(seed), self.items):
            yield Unit(["-m", "posetoperad.cli"] + argv, expect,
                       lambda proc, e=expect, c=check: [(proc.wall, c(e, _parse(proc)))],
                       traced_args=[os.path.join(HERE, "cold_child.py"),
                                    span_file] + argv)


def zeta_cold(refs):
    z = refs["zeta"]

    def check_identity(e, out):
        rec = out["record"]
        if rec["pass"] is not True:
            raise Fail("identity did not pass")
        if rec["rhs"] != e["rhs"]:
            raise Fail(f"rhs {rec['rhs']} != {e['rhs']}")
        if not _close(rec["numeric"]["rhs"], e["rhs_value"], "1e-20"):
            raise Fail("rhs value")
        if not _close(rec["numeric"]["lhs"], e["rhs_value"], "1e-11"):
            raise Fail("lhs value")
        return True

    def check_suite(e, out):
        got = {c["id"]: c["status"] for c in out["cases"]}
        if got != e["cases"] or out["all_pass"] is not e["all_pass"]:
            raise Fail("verify-suite cases")
        return True

    # Cost proxy for stratifying draws only: zeta(s) costs about 2.4x more
    # per 5 digits, and a taller poset skips the costliest low s.
    def cost(digits, height):
        return 10 ** (digits / 13) / height ** 1.3

    items = []
    for p in z["posets"]:
        expect = {"rhs": p["rhs"], "rhs_value": p["rhs_value"]}
        for d in range(30, 56):
            argv = ["--format", "json", "--digits", str(d), "zeta-identity",
                    p["expr"]]
            items.append((cost(d, p["height"]), (argv, expect, check_identity)))
    suite = z["verify_suite"]
    for d in range(30, 56):  # weight 4: about one job in nine is the suite
        argv = ["--format", "json", "--digits", str(d), "verify-suite"]
        items += [(cost(d, 1), (argv, suite, check_suite))] * 4
    return ColdWorkload(items)


def enum_cold(refs):
    items = []
    for job in refs["enum"]["jobs"]:
        size = refs["enum"]["exprs"][job["expr"]]["size"]

        def check(e, out, size=size):
            if not _same(e, out):
                raise Fail("output differs from the expected values")
            if "poset" in out and len(out["poset"]["elements"]) != size:
                raise Fail("poset size")
            return True

        items.append((job["cost"], (job["argv"], job["expect"], check)))
    return ColdWorkload(items)


class CorpusWorkload:
    """One fresh process per batch; each API call group is one job."""

    def __init__(self, refs):
        self.refs = refs
        self._keys = {}

    def _key(self, below):
        t = tuple(below)
        if t not in self._keys:
            self._keys[t] = oracle.canonical_key(list(t))
        return self._keys[t]

    def units(self, seed, runner):
        c = self.refs
        rng = random.Random(seed)
        batch = 0
        while True:
            jobs = [["ident", n, i] for n, count in
                    enumerate(c["class_counts"], start=1) for i in range(count)]
            jobs += [["operad", o, [rng.randint(1, 3) for _ in outer["labels"]]]
                     for o, outer in enumerate(c["outers"])]
            jobs += [["cup"] + rng.choice(c["cups"]) for _ in range(12)]
            rng.shuffle(jobs)
            # the antichain needs the most zeta terms, so the first identity
            # job takes every zeta miss and the later ones are all warm
            jobs = ([["iso", n] for n in range(1, c["max_size"] + 1)]
                    + [["antichain", c["max_size"]]] + jobs)
            spans = os.path.join(runner.tmp,
                                 f"corpus-spans-{os.getpid()}-{batch}.json")
            batch += 1
            spec = {"digits": c["digits"], "jobs": jobs,
                    "outers": [{"labels": o["labels"], "covers": o["covers"]}
                               for o in c["outers"]]}
            yield Unit([os.path.join(HERE, "corpus_child.py")], c["idents"],
                       lambda proc, jobs=jobs: self.check(jobs, proc),
                       stdin=json.dumps(spec).encode(),
                       traced_args=[os.path.join(HERE, "corpus_child.py"),
                                    spans])

    def check(self, jobs, proc):
        c = self.refs
        try:
            doc = _parse(proc)
        except Fail as e:  # the batch died: none of its jobs completed
            print(f"FAIL corpus batch: {e}", file=sys.stderr)
            return [(proc.wall / len(jobs), False)] * len(jobs)
        results = []
        for job, (dt, out) in zip(jobs, doc["jobs"]):
            try:
                self._check_job(c, job, out)
                results.append((dt, True))
            except (Fail, KeyError, TypeError, ValueError) as e:
                print(f"FAIL {job}: {e!r}", file=sys.stderr)
                results.append((dt, False))
        results += [(0.0, False)] * (len(jobs) - len(doc["jobs"]))
        return results

    def _check_job(self, c, job, out):
        if job[0] == "iso":
            if out != c["class_counts"][job[1] - 1]:
                raise Fail("class count")
        elif job[0] in ("ident", "antichain"):
            e = c["idents"].get(self._key(out["below"]))
            if e is None:
                raise Fail("not a poset class of the reference")
            if not (out["pass"] is True and out["reciprocity"] is True
                    and out["rhs"] == e["rhs"]
                    and out["closed_form"] == e["closed_form"]
                    and _close(out["rhs_value"], e["rhs_value"], "1e-30")
                    and _close(out["lhs_value"], e["rhs_value"], "1e-11")):
                raise Fail("identity output")
        elif job[0] == "operad":
            d = c["outers"][job[1]]["series"][",".join(map(str, job[2]))]
            if out != {str(i): str(v) for i, v in enumerate(d, 1) if v}:
                raise Fail("operad series")
        elif out is not True:
            raise Fail("differential_cup identity")


def make_workload(name, refs):
    if name == "zeta-cold":
        return zeta_cold(refs)
    if name == "enum-cold":
        return enum_cold(refs)
    return CorpusWorkload(refs["corpus"])


# -- one run -------------------------------------------------------------------

def _checked(unit, proc):
    """(latency, ok) per job of a finished unit."""
    try:
        return unit.check(proc)
    except Fail as e:
        print(f"FAIL {' '.join(unit.args[-3:])}: {e}", file=sys.stderr)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        print(f"FAIL {' '.join(unit.args[-3:])}: malformed output {e!r}",
              file=sys.stderr)
    return [(proc.wall, False)]


def tail(latencies):
    """(percentile, value, jobs beyond): the highest ladder percentile with
    at least ten jobs beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50, xs[max(1, math.ceil(n / 2)) - 1], n - math.ceil(n / 2)


def run_untraced(workload, seed, seconds, runner):
    jobs, rss = [], 0.0
    start = time.perf_counter()
    deadline = start + seconds
    for unit in workload.units(seed, runner):
        if time.perf_counter() >= deadline:
            break
        proc = runner.run(unit.args, unit.stdin)
        rss = max(rss, proc.rss_mb)
        jobs += _checked(unit, proc)
    wall = time.perf_counter() - start
    return jobs, wall, rss


def run_traced(workload, seed, seconds, runner, spans_out):
    """Each unit runs untraced, then traced with the same input."""
    agg = {"self_s": {}, "calls": {}, "counts": {}, "dv": [0, 0],
           "downsets": 0, "plain_wall": 0.0, "traced_wall": 0.0,
           "traced_jobs": 0}
    downsets = {}
    jobs = []
    deadline = time.perf_counter() + seconds
    with gzip.open(spans_out, "wt") as sink:
        for unit in workload.units(seed, runner):
            if time.perf_counter() >= deadline:
                break
            plain = runner.run(unit.args, unit.stdin)
            jobs += _checked(unit, plain)
            span_file = (unit.traced_args[-1] if unit.stdin
                         else unit.traced_args[1])
            traced = runner.run(unit.traced_args, unit.stdin, same_cpu=True)
            done = _checked(unit, traced)
            jobs += done
            try:
                if unit.stdin:  # corpus child: summary on stdout, spans in file
                    summary = json.loads(traced.out)["trace"]
                    with open(span_file) as f:
                        spans = json.load(f)
                else:
                    with open(span_file) as f:
                        doc = json.load(f)
                    summary, spans = doc["summary"], doc["spans"]
                os.remove(span_file)
            except (OSError, ValueError, KeyError, TypeError):
                continue  # the traced process died; its jobs count as failed
            agg["plain_wall"] += plain.wall
            agg["traced_wall"] += traced.wall
            agg["traced_jobs"] += len(done)
            for s in spans:
                sink.write(json.dumps(s) + "\n")
            for key in ("self_s", "calls", "counts"):
                for k, v in summary[key].items():
                    agg[key][k] = agg[key].get(k, 0) + v
            agg["dv"][0] += summary["dv_cache"][0]
            agg["dv"][1] += summary["dv_cache"][1]
            for below in summary["dv_posets"]:
                t = tuple(below)
                if t not in downsets:
                    downsets[t] = len(oracle.downsets(below))
                agg["downsets"] += downsets[t]
    return jobs, agg


def layer_metrics(agg):
    J = max(1, agg["traced_jobs"])
    wall = agg["traced_wall"]
    S, C, N = agg["self_s"], agg["calls"], agg["counts"]

    def self_of(*names):
        return sum(S.get(n, 0.0) for n in names)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    per_job = [
        ("cli.self_s", ("cli.main",)),
        ("dsl.resolve.self_s", ("dsl.resolve",)),
        ("poset.construct.self_s", ("poset.construct",)),
        ("poset.lex_sum.self_s", ("poset.lex_sum",)),
        ("counting.d_vector.self_s", ("counting.d_vector",)),
        ("counting.count_maps.self_s", ("counting.count_maps",)),
        ("counting.reciprocity_check.self_s", ("counting.reciprocity_check",)),
        ("polynomials.self_s", ("polynomials.to_monomial", "polynomials.monomial")),
        ("series.series_of.self_s", ("series.series_of",)),
        ("series.closed_form.self_s", ("series.closed_form",)),
        ("series.operad_eval.self_s", ("series.operad_eval",)),
        ("series.product.self_s", ("series.product",)),
        ("zeta.zeta_value.self_s", ("zeta.zeta_value",)),
        ("zeta.verify_identity.self_s", ("zeta.verify_identity",)),
        ("zeta.finite_form_identity.self_s", ("zeta.finite_form_identity",)),
        ("zeta.entry22_check.self_s", ("zeta.entry22_check",)),
        ("zeta.inverse_power_sum.self_s", ("zeta.inverse_power_sum",)),
        ("catalog.iso_classes.self_s", ("catalog.iso_classes",)),
        ("catalog.canonical_key.self_s", ("catalog.canonical_key",)),
    ]
    for metric, names in per_job:
        put(metric, self_of(*names) / J, "s")
    for metric, name in [("dsl.resolve.calls", "dsl.resolve"),
                         ("poset.lex_sum.calls", "poset.lex_sum"),
                         ("counting.d_vector.calls", "counting.d_vector"),
                         ("counting.count_maps.calls", "counting.count_maps"),
                         ("series.operad_eval.calls", "series.operad_eval"),
                         ("zeta.zeta_value.calls", "zeta.zeta_value"),
                         ("catalog.canonical_key.calls", "catalog.canonical_key")]:
        put(metric, C.get(name, 0) / J, "count")
    hits, misses = agg["dv"]
    put("counting.d_vector.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
        "ratio")
    put("counting.downsets", agg["downsets"] / J, "count")
    put("counting.d_vector.s_per_downset",
        self_of("counting.d_vector") / agg["downsets"] if agg["downsets"] else 0.0,
        "s")
    put("series.product_terms", N.get("series.product_terms", 0) / J, "count")
    put("zeta.zeta_value.misses", N.get("zeta.zeta_value.misses", 0) / J, "count")
    put("zeta.verify.terms", N.get("zeta.verify.terms", 0) / J, "count")
    put("trace.overhead_frac", agg["traced_wall"] / agg["plain_wall"] - 1, "ratio")
    put("trace.coverage", sum(S.values()) / wall, "ratio")
    shares = {layer: sum(v for k, v in S.items() if k.split(".")[0] == layer) / wall
              for layer in LAYERS}
    for layer, v in shares.items():
        put(f"share.{layer}", v, "ratio")
    put("share.zeta.verify_identity", S.get("zeta.verify_identity", 0.0) / wall,
        "ratio")
    return m, shares


# the intended split: which layer, or span, leads each workload's traced time
DESIGN_LEADER = {"zeta-cold": ("layer", "zeta"),
                 "enum-cold": ("layer", "counting"),
                 "corpus-warm": ("span", "zeta.verify_identity")}


def run(workload_name, seed, seconds, trace, root, workload=None):
    """One benchmark run; returns the result object (and prints a summary).
    A workload object may be passed in, e.g. with corrupted references."""
    runner = Runner(root)
    if workload is None:
        workload = make_workload(workload_name, load_refs())
    if trace:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_out = os.path.join(out_dir, f"spans-{workload_name}-{seed}.jsonl.gz")
        jobs, agg = run_traced(workload, seed, seconds, runner, spans_out)
        metrics, shares = layer_metrics(agg)
        kind, want = DESIGN_LEADER[workload_name]
        if kind == "layer":
            lead = max(shares, key=shares.get)
        else:
            lead = max(agg["self_s"], key=agg["self_s"].get)
        print("shares of traced time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        print(f"leading {kind}: {lead} (intended {want}: "
              f"{'holds' if lead == want else 'DOES NOT HOLD'}); "
              f"spans written to {os.path.relpath(spans_out, root)}")
    else:
        setup_s = measure_setup(runner)
        jobs, wall, rss = run_untraced(workload, seed, seconds, runner)
        lat = [dt for dt, _ in jobs]
        p, tail_v, beyond = tail(lat)
        metrics = {
            "jobs_per_s": {"value": len(jobs) / wall, "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "job_tail_s": {"value": tail_v, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(f"{workload_name} seed {seed}: {len(jobs)} jobs in {wall:.2f} s; "
              f"job_tail_s is p{p:g} over {len(jobs)} jobs ({beyond} beyond)")
    failed = sum(1 for _, ok in jobs if not ok)
    print(f"fail_frac = {failed}/{len(jobs)} = {failed / max(1, len(jobs)):.4f}")
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "posetoperad", "cli.py")):
        print("error: run from the root of a posetoperad checkout "
              "(src/posetoperad not found)", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
