"""Traced cold job: run one posetoperad command line in this fresh process
with the tracer installed, then write the spans and counters to a file.

    python3 perfbench/cold_child.py SPANS_PATH ARG...
"""

import json
import sys

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from posetoperad import cli
    code = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w") as f:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
