"""One operation of the benchmark, run in its own process.

    child.py MARK TRACE cli ARGS...        # multidose CLI, as the console script runs it
    child.py MARK TRACE query SPEC ARRAYS OUT   # the trajectory-query library driver
    child.py MARK - warmup                 # import only (fills bytecode and file caches)

MARK receives the CLOCK_MONOTONIC time at which set-up ended: after
`import multidose` (and, for `query`, after building the solutions), just
before the first call into the workload. TRACE is `-` for an untraced run,
otherwise the file that receives the spans and counts of `tracer.py`.
"""

import sys
import time
from pathlib import Path

EXIT_WRONG_PACKAGE = 70


def main(argv: list[str]) -> int:
    mark_path, trace_path, mode, *rest = argv
    import multidose
    from multidose import cli

    expected = Path(__file__).resolve().parents[1] / "src" / "multidose"
    if Path(multidose.__file__).resolve().parent != expected:
        print(f"child: imported {multidose.__file__}, expected {expected}",
              file=sys.stderr)
        return EXIT_WRONG_PACKAGE

    recorder = None
    if trace_path != "-":
        import tracer
        recorder = tracer.Tracer()
        tracer.install(recorder)

    if mode == "cli":
        mark = time.monotonic()
        code = cli.main(rest)
    elif mode == "query":
        import query
        spec_path, arrays_path, out_path = rest
        cohort = query.build(spec_path, arrays_path)
        mark = time.monotonic()
        query.run(cohort, out_path)
        code = 0
    else:
        import query  # noqa: F401
        import tracer  # noqa: F401
        mark = time.monotonic()
        code = 0

    Path(mark_path).write_text(repr(mark))
    if recorder is not None:
        recorder.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
