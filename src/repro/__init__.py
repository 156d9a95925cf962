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

from repro.client.client import TerraDirClient
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.failures import FailureInjector
from repro.cluster.system import System, SystemStats
from repro.core.static_replication import replicate_top_levels
from repro.filters.bloom import BloomFilter
from repro.filters.digest import Digest, DigestDirectory
from repro.namespace.generators import (
    balanced_tree,
    coda_like_tree,
    random_tree,
    university_tree,
)
from repro.namespace.tree import Namespace, NamespaceBuilder
from repro.server.peer import Peer
from repro.sim.engine import Engine
from repro.sim.stats import NullSink, StatsSink
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import (
    StreamSegment,
    WorkloadSpec,
    cuzipf_stream,
    unif_stream,
    uzipf_stream,
)
from repro.workload.trace import (
    EmpiricalWorkloadDriver,
    QueryTrace,
    TraceRecorder,
    namespace_from_paths,
    replay_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BloomFilter",
    "Digest",
    "DigestDirectory",
    "EmpiricalWorkloadDriver",
    "Engine",
    "FailureInjector",
    "QueryTrace",
    "TerraDirClient",
    "TraceRecorder",
    "Namespace",
    "NamespaceBuilder",
    "NullSink",
    "Peer",
    "StatsSink",
    "StreamSegment",
    "System",
    "SystemConfig",
    "SystemStats",
    "WorkloadDriver",
    "WorkloadSpec",
    "balanced_tree",
    "build_system",
    "coda_like_tree",
    "cuzipf_stream",
    "namespace_from_paths",
    "random_tree",
    "replay_trace",
    "replicate_top_levels",
    "unif_stream",
    "university_tree",
    "uzipf_stream",
]
