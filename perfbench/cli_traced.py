"""Traced stand-in for `python -m rdl.cli`, used only by traced runs.

    python3 perfbench/cli_traced.py SPANS.json LABEL <rdl arguments...>

Times `import rdl.cli`, wraps the layer entry points (tracer.install) and
`cli.main`, runs main with the given arguments, writes the spans and
counters to SPANS.json and exits with main's exit code.
"""

import json
import sys
import time


def main() -> int:
    spans_path, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import rdl.cli

    import_s = time.perf_counter() - t0
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    cli_main = tr.wrap("cli.main", rdl.cli.main)
    tr.active = True
    rc = cli_main(argv)
    tr.active = False
    main_s = sum(e - s for n, s, e, p, w in tr.spans if n == "cli.main")
    with open(spans_path, "w") as fh:
        json.dump({"label": label, "import_s": import_s, "main_s": main_s, "spans": tr.spans,
                   "counters": tr.counters, "maxima": tr.maxima}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
