"""Per-layer spans and counters around quadlcm, installed from outside the package.

The layers are the modules `quadlcm.cli`, `quadlcm.bounds`, `quadlcm.ring` and
`quadlcm.poly`.  Every public function of `bounds`, `ring` and `poly` gets a
span, plus `BezoutCertificate.verify`; in `cli` only `main` and `fmt_log` do,
so the self time of `cli.main` keeps dispatch, serialization and output.  A
wrapper replaces every name a caller looks up, including the names `cli` and
`bounds` import from other modules.  The hot `__mul__` methods get counters
instead of spans.

Spans are aggregated in memory as they close (calls, inclusive seconds, self
seconds per name) and written out once, when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

CLI_SPANS = ("main", "fmt_log")
COUNTED_MULS = {
    "ring.quadint_mul": ("ring", "QuadInt"),
    "ring.quadrat_mul": ("ring", "QuadRat"),
    "poly.quadpoly_mul": ("poly", "QuadPoly"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, list[int]] = {}
        self._open: list[float] = []  # child seconds of each open span

    def span(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - child
                if open_spans:
                    open_spans[-1] += took

        return traced

    def counter(self, name: str, fn):
        count = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            count[0] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        from quadlcm import bounds, cli, poly, ring

        modules = {"cli": cli, "bounds": bounds, "ring": ring, "poly": poly}
        wrappers = {}
        for layer, module in modules.items():
            public = [
                name for name, value in vars(module).items()
                if inspect.isfunction(value) and value.__module__ == module.__name__
                and not name.startswith("_")
            ]
            for name in CLI_SPANS if layer == "cli" else public:
                value = getattr(module, name)
                wrappers[value] = self.span(f"{layer}.{name}", value)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
        cert = poly.BezoutCertificate
        cert.verify = self.span("poly.certificate_verify", cert.verify)
        for name, (layer, cls_name) in COUNTED_MULS.items():
            cls = getattr(modules[layer], cls_name)
            cls.__mul__ = self.counter(name, cls.__mul__)

    def write(self, path: str) -> None:
        doc = {
            "spans": {k: {"calls": c, "s": s, "self_s": own} for k, (c, s, own) in self.spans.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
