"""Start one quadlcm CLI command the way its `quadlcm` console script does.

    python3 perfbench/launch.py MODE STAMP TRACE CLI-ARGS...

MODE is `run` (run the command), `setup` (exit with status 0 as soon as the
arguments are parsed) or `trace` (run the command under the layer tracer and
write its summary to the file TRACE).  In every mode the file STAMP receives
`time.monotonic()` at the moment argument parsing returns, which the parent
compares with its own monotonic clock taken just before the launch: the
difference is interpreter start + `import quadlcm.cli` + argument parsing.
When a command ends, the file STAMP.rss receives the peak RSS in KiB of this
process and of the pool workers it waited for.  The parent cannot take that
from `wait4`: the kernel folds the parent's own size at the time of the
fork into the child's maximum when the child calls exec.
"""

import argparse
import resource
import sys
import time
from pathlib import Path


def peak_rss_kib() -> int:
    """High-water RSS of this process since exec, or of any waited-for worker."""
    own = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    mode, stamp_path, trace_path, *cli_args = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    parse_args = argparse.ArgumentParser.parse_args

    def stamped_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        now = time.monotonic()
        with open(stamp_path, "w") as fh:
            fh.write(repr(now))
        if mode == "setup":
            sys.exit(0)
        return namespace

    argparse.ArgumentParser.parse_args = stamped_parse_args

    import quadlcm.cli  # after the hook, as the console script would import it

    layer_tracer = None
    if mode == "trace":
        import tracer

        layer_tracer = tracer.Tracer()
        layer_tracer.install()
    try:
        return quadlcm.cli.main(cli_args)
    finally:
        if layer_tracer is not None:
            layer_tracer.write(trace_path)
        Path(stamp_path + ".rss").write_text(str(peak_rss_kib()))


if __name__ == "__main__":
    sys.exit(main())
