"""TerraDir: hierarchical P2P routing with adaptive soft-state replicas.

A full reproduction of *"Hierarchical Routing with Soft-State Replicas
in TerraDir"* (Silaghi, Gopalakrishnan, Bhattacharjee, Keleher --
IPPS 2004): the hierarchical routing protocol, path-propagating caches,
inverse-mapping Bloom digests, the adaptive replication protocol, and
the discrete-event simulation environment the paper evaluates them in.

Quickstart::

    from repro import (
        SystemConfig, build_system, balanced_tree,
        WorkloadDriver, cuzipf_stream,
    )

    ns = balanced_tree(levels=10)           # 2047-node namespace
    cfg = SystemConfig.replicated(n_servers=64, seed=7)
    system = build_system(ns, cfg)
    spec = cuzipf_stream(rate=800, alpha=1.0, warmup=5, phase=10)
    WorkloadDriver(system, spec).run()
    print(system.stats.summary())
"""

import importlib
from typing import Any

__version__ = "1.0.0"

#: The public API: each name and the module that defines it.  A name is
#: imported on first use, so ``import repro`` loads no other module.
_API = {
    "BloomFilter": "repro.filters.bloom",
    "Digest": "repro.filters.digest",
    "DigestDirectory": "repro.filters.digest",
    "Engine": "repro.sim.engine",
    "FailureInjector": "repro.cluster.failures",
    "Namespace": "repro.namespace.tree",
    "NamespaceBuilder": "repro.namespace.tree",
    "NullSink": "repro.sim.stats",
    "Peer": "repro.server.peer",
    "QueryTrace": "repro.workload.trace",
    "StatsSink": "repro.sim.stats",
    "StreamSegment": "repro.workload.streams",
    "System": "repro.cluster.system",
    "SystemConfig": "repro.cluster.config",
    "SystemStats": "repro.sim.stats",
    "TerraDirClient": "repro.client.client",
    "TraceRecorder": "repro.workload.trace",
    "WorkloadDriver": "repro.workload.arrivals",
    "WorkloadSpec": "repro.workload.streams",
    "balanced_tree": "repro.namespace.generators",
    "build_system": "repro.cluster.builder",
    "coda_like_tree": "repro.namespace.generators",
    "cuzipf_stream": "repro.workload.streams",
    "empirical_arrivals": "repro.workload.arrivals",
    "namespace_from_paths": "repro.workload.trace",
    "random_tree": "repro.namespace.generators",
    "replicate_top_levels": "repro.core.static_replication",
    "unif_stream": "repro.workload.streams",
    "university_tree": "repro.namespace.generators",
    "uzipf_stream": "repro.workload.streams",
}

__all__ = sorted(_API)


def __getattr__(name: str) -> Any:
    # not cached in globals(): a patched attribute of the defining
    # module (bench/tracer.py wraps some) is what every lookup returns
    module = _API.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_API))
