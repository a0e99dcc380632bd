"""One benchmark sample: a fresh process doing what `wie run <config>` does.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [SPANS_NPZ]

Runs `wie.cli.main(["run", CONFIG, "--out-dir", OUT_DIR, "--threads", "1"])`
and writes RESULT_JSON with the exit code, two CLOCK_MONOTONIC stamps
(config validated, outputs written) and this process's own peak resident
memory.  The parent subtracts its own stamp taken just before the spawn,
so both times include interpreter start.  With SPANS_NPZ the run is
traced (tracing.py) and the spans are written there at exit; a traced
sample is never used for the end-to-end metrics.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    config, out_dir, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    import wie.cli as cli

    stamps = {}
    if spans_path is None:
        parse = cli.parse_config

        def parse_and_stamp(path):
            cfg = parse(path)
            stamps["validated"] = time.monotonic()
            return cfg

        cli.parse_config = parse_and_stamp
        tracer = None
    else:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(["run", config, "--out-dir", out_dir, "--threads", "1", "--log-level", "error"])
    stamps["written"] = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spans_path)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": rc, "stamps": stamps, "peak_rss_kb": rss_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
