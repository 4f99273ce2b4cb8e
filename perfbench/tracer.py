"""Run one tarstop CLI invocation in-process with spans around each layer.

Usage: python3 tracer.py SPANS_OUT CLI_ARG...   (with tarstop importable)

Each traced function is wrapped once and the wrapper is bound wherever the
original is bound in a loaded ``tarstop`` module, since the modules import
one another's functions by name.  Spans (name, start, end, parent, value)
are kept in memory and written as JSON when the invocation ends, together
with the time taken to import ``tarstop.cli``.  Source files are not
touched.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name, what to keep of the outcome)
TRACED = (
    ("tarstop.ingest", "parse_run", "ingest.parse_run", None),
    ("tarstop.ingest", "parse_qrels", "ingest.parse_qrels", None),
    ("tarstop.ingest", "join", "ingest.join", None),
    ("tarstop.ratefit", "bin_prefix", "ratefit.bin_prefix", None),
    ("tarstop.ratefit", "fit_exponential", "ratefit.fit_exponential", None),
    ("tarstop.ratefit", "delta_gate", "ratefit.delta_gate", bool),
    ("tarstop.poisson", "upper_credible_count", "poisson.upper_credible_count", int),
    ("tarstop.methods", "poisson_stop", "methods.pp", lambda o: bool(o.predicted)),
    ("tarstop.methods", "target_stop", "methods.tm", None),
    ("tarstop.methods", "knee_stop", "methods.km", None),
    ("tarstop.methods", "oracle_stop", "methods.or", None),
    ("tarstop.metrics", "aurc", "metrics.aurc", None),
    ("tarstop.metrics", "build_report", "metrics.build_report", None),
    ("tarstop.simulate", "gen_topic", "simulate.gen_topic", None),
    ("tarstop.simulate", "coverage_experiment", "simulate.coverage_experiment", None),
)


class Tracer:
    """Nested spans of one thread: [name, start, end, parent, value, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, keep=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[4] = keep(result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; return the names that were not found."""
    modules = [m for name, m in sys.modules.items() if name.startswith("tarstop")]
    missing = []
    for module_name, attr, span_name, keep in TRACED:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, keep)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    topic = getattr(sys.modules.get("tarstop.core"), "Topic", None)
    if topic is not None and hasattr(topic, "__post_init__"):
        topic.__post_init__ = tracer.wrap("core.topic_build", topic.__post_init__)
    else:
        missing.append("core.topic_build")
    return missing


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import tarstop.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = install(tracer)
    code = tracer.wrap("cli", cli.main)(cli_args)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "missing": missing, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
