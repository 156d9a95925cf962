"""DET001 wall-clock-entropy: ambient randomness and wall clocks.

Protocol code must draw every random number from a *named, seeded*
stream (:class:`repro.sim.rng.RngStreams`) and read time only from the
engine clock.  Calls to the module-level :mod:`random` functions, to
``random.Random()`` with no seed, to ``time.time``/``time.time_ns``,
``datetime.now``-family constructors, :mod:`uuid`, ``os.urandom``, or
:mod:`secrets` inject process-local entropy that can never replay
across serial / sharded / cached executions.

Caught in the wild by this rule's first run: ``ReplicaMap
.add_preferred`` evicting via module-level ``random.randrange`` --
a draw no shard could ever replay.

One sanctioned exemption: ``runtime/async_*`` (see
:func:`repro.tools.detlint.classify.is_wallclock_chokepoint`) is the
live-mode wall-clock funnel -- the event-loop runtime, socket wire,
live clients, and the serve CLI run in real time by design.  Those
files skip this rule only; the other rules still apply.
"""

from __future__ import annotations

import ast

from repro.tools.detlint.classify import is_wallclock_chokepoint
from repro.tools.detlint.model import FileContext, Rule
from repro.tools.detlint.rules._util import ImportMap

#: module-level :mod:`random` functions that consume the shared stream
RANDOM_FUNCS = frozenset({
    "random", "randrange", "randint", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "binomialvariate", "seed",
})

#: fully-qualified callables that read wall clocks or OS entropy
BANNED_CALLS = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime.datetime", "now"),
    ("datetime.datetime", "utcnow"),
    ("datetime.datetime", "today"),
    ("datetime.date", "today"),
    ("datetime", "now"),  # from datetime import datetime; datetime.now()
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("os", "urandom"),
})

BANNED_MODULES = frozenset({"uuid", "secrets"})


class EntropyVisitor(ast.NodeVisitor):
    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.imports = ImportMap()

    def visit_Module(self, node: ast.Module) -> None:
        if is_wallclock_chokepoint(self.ctx.fclass.relpath):
            return  # the sanctioned live-mode wall-clock funnel
        self.imports.collect(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.imports.resolve(node.func)
        if origin is not None:
            mod, attr = origin
            top = mod.split(".")[0]
            if mod == "random" and attr in RANDOM_FUNCS:
                self.ctx.report(
                    self.rule, node,
                    f"call to module-level random.{attr}; draw from a "
                    f"seeded stream (repro.sim.rng.RngStreams) instead",
                )
            elif mod == "random" and attr == "Random" and not node.args:
                self.ctx.report(
                    self.rule, node,
                    "random.Random() with no seed is entropy-seeded; "
                    "derive the seed from the run's RngStreams",
                )
            elif (mod, attr) in BANNED_CALLS:
                self.ctx.report(
                    self.rule, node,
                    f"call to {mod}.{attr} reads the wall clock; "
                    f"simulation time comes from the engine clock",
                )
            elif top in BANNED_MODULES:
                self.ctx.report(
                    self.rule, node,
                    f"call into {top!r}: ids must be derived from "
                    f"seeded streams or sequence counters",
                )
        self.generic_visit(node)


RULE = Rule("DET001", "wall-clock-entropy", EntropyVisitor)
