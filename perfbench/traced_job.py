"""Run one zonalpd CLI job with the span tracer installed.

    python3 perfbench/traced_job.py SPANS_FILE JOB_INDEX -- <zonalpd arguments>

Output and exit code are those of `zonalpd <arguments>`; the spans of the
job are written to SPANS_FILE (numpy .npz) when the command returns.
"""
import sys

from tracer import Tracer


def main() -> int:
    spans_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_job.py SPANS_FILE JOB_INDEX -- ARGS...")
    tracer = Tracer(int(job))
    tracer.install()
    from zonalpd import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
