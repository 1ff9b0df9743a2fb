"""The server under test, in its own process.

Hosts the generated database the way ``repro serve`` does — ``create_app``
plus the stdlib bridge's ``make_server`` — and takes commands from the
benchmark client as JSON lines on stdin, answering each with one JSON
line on stdout:

``setup``      unpickle a fresh copy of the generated database, build the
               app on a new durable store directory, start serving; answers
               ``{"port", "t0"}`` where ``t0`` (``time.monotonic``, which is
               system-wide on Linux) was read just before ``create_app``
``teardown``   stop serving and drop the app
``trace``      ``{"on": bool}``: wrap or unwrap the layer functions
``phase``      ``{"name": str}``: label the spans recorded from now on
``rss``        the process's peak resident set (``VmHWM``) in kB
``stop``       stop serving, write the trace file (if tracing), exit

Run with ``--recover DIR`` it instead restarts from the durable store
``DIR`` (``create_app(DIR, ...)``, the ``repro serve --storage`` restart
path), prints ``{"port"}`` once serving, and then takes commands.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def reply(**payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Host:
    """One app served on the stdlib bridge in a background thread."""

    def __init__(self, app):
        from repro.server import make_server

        self.app = app
        self.server = make_server(app, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.port = self.server.server_address[1]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full",
                        choices=sorted(workloads.SCALES))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--recover")
    args = parser.parse_args(argv)

    workloads.require_source()
    from repro.server import create_app
    import tracing

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    options = {"store": workload.store, "dynamic": workload.dynamic}
    tracer = tracing.Tracer() if args.trace_file else None
    uninstall = None
    if tracer is not None and args.recover:
        uninstall = tracing.install(tracer)
        tracer.phase = "restart"

    host = None
    blob = None
    setups = 0
    if args.recover:
        host = Host(create_app(args.recover, **options))
        reply(port=host.port)
    else:
        blob = workloads.database_blob(workload, scale, args.seed)
        reply(ready=True)

    for line in sys.stdin:
        command = json.loads(line)
        verb = command["command"]
        if verb == "setup":
            database = pickle.loads(blob)
            setups += 1
            store_dir = Path(args.workdir) / f"store-{setups}"
            gc.collect()
            t0 = time.monotonic()
            app = create_app(database, storage=str(store_dir), **options)
            host = Host(app)
            reply(port=host.port, t0=t0, store=str(store_dir))
        elif verb == "teardown":
            host.close()
            host = None
            gc.collect()
            reply(ok=True)
        elif verb == "trace":
            if command["on"] and uninstall is None:
                uninstall = tracing.install(tracer)
            elif not command["on"] and uninstall is not None:
                uninstall()
                uninstall = None
            reply(ok=True)
        elif verb == "phase":
            tracer.phase = command["name"]
            reply(ok=True)
        elif verb == "rss":
            reply(kb=peak_rss_kb())
        elif verb == "stop":
            if host is not None:
                host.close()
            if uninstall is not None:
                uninstall()
            if tracer is not None:
                tracer.write(args.trace_file)
            reply(ok=True)
            return 0
        else:
            raise ValueError(f"unknown command {verb!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
