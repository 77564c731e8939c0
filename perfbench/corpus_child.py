"""One corpus-warm batch in one fresh process, through the public API the
way scripts/zeta_identity_corpus.py uses it.

    python3 perfbench/corpus_child.py [SPANS_PATH] < SPEC

Reads a JSON spec on stdin and prints one JSON document: per job its
latency and the outputs the parent checks.  Given SPANS_PATH, the tracer is
installed and the spans are written there.

Job kinds: ["iso", n]; ["ident", n, i] for the i-th class of size n, and
["antichain", n] for the same calls on the n-element antichain;
["operad", outer, lengths] for an outer poset of the spec on chain slots;
["cup", s, p, q] for the differential_cup series identity.
"""

import json
import sys
import time


def main():
    spec = json.load(sys.stdin)
    spans_path = sys.argv[1] if len(sys.argv) > 1 else None
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from mpmath import nstr

    from posetoperad import catalog, counting, poset, series, zeta
    ctx = zeta.PrecisionContext(working_digits=spec["digits"])
    outers = [poset.construct_poset(o["labels"], [tuple(c) for c in o["covers"]])
              for o in spec["outers"]]
    classes = {}
    results = []
    clock = time.perf_counter
    for job_id, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = job_id
        kind = job[0]
        t0 = clock()
        if kind == "iso":
            classes[job[1]] = catalog.iso_classes(job[1])
            dt = clock() - t0
            out = len(classes[job[1]])
        elif kind in ("ident", "antichain"):
            P = (poset.antichain(job[1]) if kind == "antichain"
                 else classes[job[1]][job[2]])
            rec = zeta.verify_identity(zeta.finite_form_identity(P), ctx)
            recip = counting.reciprocity_check(P)
            cf = series.closed_form(series.series_of(P, "weak"))
            dt = clock() - t0
            out = {"below": [P.below_mask(i) for i in range(len(P))],
                   "rhs": rec.rhs.to_json_dict(),
                   "rhs_value": nstr(rec.rhs_numeric, 35),
                   "lhs_value": nstr(rec.lhs_numeric, 35),
                   "pass": rec.passed, "reciprocity": recip.passed,
                   "closed_form": cf.to_json_dict()}
        elif kind == "operad":
            args = [series.basis_series(k) for k in job[2]]
            S = series.operad_eval_series(outers[job[1]], args)
            dt = clock() - t0
            out = S.to_json_dict()["coeffs"]
        else:
            rep = series.series_identity_check(
                "differential_cup", {"s": job[1], "p": job[2], "q": job[3]})
            dt = clock() - t0
            out = rep.passed
        results.append([dt, out])
    doc = {"jobs": results, "trace": None}
    if tracer is not None:
        tracer.job = -1
        doc["trace"] = tracer.summary()
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
