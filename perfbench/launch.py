"""Run the real ``repro.cli`` entry point, optionally with span probes.

    python -m perfbench.launch [--trace-out PATH] [--probes server|router] -- ARGS...

runs ``repro.cli.main(ARGS)`` in this process.  With ``--trace-out``
the probes of :mod:`perfbench.probes` are installed first, and the spans
are written to PATH when the command returns (a graceful shutdown).
SIGTERM is turned into SIGINT so that a terminated server drains and
writes its spans too.

For ``cluster serve`` the supervisor starts each shard as
``python -m repro.cli serve ...``; with tracing on, those children are
started through this launcher instead (``--probes server``), each
writing ``PATH.shard<N>``.
"""

from __future__ import annotations

import argparse
import itertools
import signal
import subprocess
import sys
import types

from perfbench import probes
from perfbench.spans import Tracer


def _trace_shard_children(trace_out: str) -> None:
    """Start the supervisor's ``repro.cli`` children through this launcher."""
    from repro.cluster import supervisor

    counter = itertools.count()
    real_popen = subprocess.Popen

    def popen(cmd, *args, **kwargs):
        if list(cmd[1:3]) == ["-m", "repro.cli"]:
            cmd = [
                cmd[0], "-m", "perfbench.launch",
                "--trace-out", f"{trace_out}.shard{next(counter)}",
                "--probes", "server", "--", *cmd[3:],
            ]
        return real_popen(cmd, *args, **kwargs)

    shim = types.ModuleType("subprocess")
    shim.__dict__.update(subprocess.__dict__)
    shim.Popen = popen
    supervisor.subprocess = shim


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.launch")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--probes", choices=["server", "router"], default="server")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    signal.signal(signal.SIGTERM, lambda *_: signal.raise_signal(signal.SIGINT))
    tracer = None
    if opts.trace_out:
        tracer = Tracer()
        probes.install(
            tracer,
            probes.ROUTER_PROBES if opts.probes == "router" else probes.SERVER_PROBES,
        )
        if opts.probes == "router":
            _trace_shard_children(opts.trace_out)

    from repro.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        if tracer is not None:
            tracer.dump(opts.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
