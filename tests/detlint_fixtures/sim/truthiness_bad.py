"""DET002 positives: boolean presence tests on sized objects.

Annotations are unquoted on purpose: the rule reads annotation names
from the AST, and a quoted forward reference is a string constant.
These files are AST input only, never imported.
"""

from typing import Optional

from repro.sim.engine import Engine
from repro.server.cache import LRUCache
from repro.server.ingress import IngressQueue
from repro.namespace.tree import Namespace


def build_system(engine=None):
    engine = engine or make_engine()  # DET002: drops an empty Engine
    return engine


def merge(entry=None):
    entry = entry or []  # DET002: mutable fallback, identity-divergent
    return entry


def run(engine: Optional[Engine]):
    if engine:  # DET002: empty engine is falsy but present
        engine.run()


def drain(queue: IngressQueue):
    assert queue  # DET002: assert-truthiness on a sized type
    while queue:  # DET002: while-truthiness
        queue.pop()


def probe(cache: Optional[LRUCache], node):
    if cache:  # DET002: an empty cache is falsy but present
        return cache.peek(node)
    return None


def label(ns: Namespace):
    return "full" if ns else "empty"  # DET002: conditional expression


def make_engine():
    return Engine()
