"""Run the ``ordcensus`` CLI from the checkout's ``src/`` in this process.

    python3 perfbench/launch.py [--trace FILE --job N] -- CLI-ARGS...

Without ``--trace`` this is what the installed ``ordcensus`` script does,
except that it refuses to run any copy of the package but the one in
``src/``.  With ``--trace`` it profiles the process from before the package
is imported, installs the span recorder, runs the command and writes the
spans and the profile to FILE.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    trace = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    sys.path.insert(0, str(SRC))
    recorder = None
    if trace is not None:
        from tracer import Recorder
        recorder = Recorder(int(opts[opts.index("--job") + 1]))
        recorder.profile.enable()
    try:
        import ordcensus
        from ordcensus import cli
        if Path(ordcensus.__file__).resolve().parent != SRC / "ordcensus":
            sys.exit(f"launch: imported {ordcensus.__file__}, not the package in {SRC}")
        if recorder is not None:
            recorder.install()
        return cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.write(trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
