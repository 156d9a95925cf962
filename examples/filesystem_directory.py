#!/usr/bin/env python
"""A distributed file-system directory on TerraDir.

Builds a namespace from explicit file paths (the way TerraDir models a
file-sharing utility: one node per file, meta-data as attributes),
plus a large synthetic Coda-like volume, then serves lookups against
both.  Demonstrates:

* building namespaces from paths (``Namespace.from_names``),
* name-based lookups through the public API,
* owner-side meta-data updates with lazy replica convergence,
* the section 2.1 client operations: attributes and keywords written
  at the owner, a two-step retrieve, and a keyword search over a
  subtree,
* cache/digest introspection after a run.

    python examples/filesystem_directory.py
"""

from repro import (
    SystemConfig,
    TerraDirClient,
    WorkloadDriver,
    build_system,
    coda_like_tree,
)
from repro.namespace.tree import Namespace
from repro.workload.streams import uzipf_stream


def tiny_volume() -> Namespace:
    """A hand-written project tree."""
    return Namespace.from_names(
        [
            "/src/core/engine.py",
            "/src/core/routing.py",
            "/src/net/transport.py",
            "/docs/design.md",
            "/docs/api/reference.md",
            "/release/v1.0/archive.tar.gz",
        ]
    )


def main() -> None:
    # --- explicit paths --------------------------------------------------
    ns = tiny_volume()
    cfg = SystemConfig.replicated(n_servers=4, seed=1, digest_probe_limit=1)
    system = build_system(ns, cfg)

    target = "/release/v1.0/archive.tar.gz"
    print(f"{len(ns)} nodes; looking up {target!r} from every server ...")
    for src in range(4):
        system.lookup_name(src, target)
    system.run_until(2.0)
    print(f"  completions: {system.stats.n_completed}, "
          f"mean hops {system.stats.mean_hops:.2f}")

    # owner-side meta-data update (version propagates lazily to replicas)
    node = ns.id_of(target)
    owner = system.peers[system.owner[node]]
    version = owner.bump_meta(node)
    print(f"  owner server {owner.sid} bumped meta-data of {target!r} "
          f"to v{version}")

    # attributes and keywords: only the owner writes them, and each
    # write that changes something bumps the version again
    meta = owner.metadata.meta(node)
    meta.set_attribute("format", "tar.gz")
    meta.add_keywords(["release"])
    for doc in ("/docs/design.md", "/docs/api/reference.md"):
        doc_node = ns.id_of(doc)
        system.peers[system.owner[doc_node]].metadata.meta(
            doc_node).add_keywords(["docs"])

    # a client on server 0: lookup, then fetch from a mapped host; a
    # lookup its home server's bounded queue drops is reissued
    client = TerraDirClient(system, home_server=0, lookup_retries=2)
    got = client.wait(client.retrieve(target, want_meta=True))
    print(f"  retrieved {target!r} meta-data v{got.meta.version} from "
          f"server {got.served_by}: {got.meta.attributes}, "
          f"keywords {sorted(got.meta.keywords)}")
    # a search decomposes into one lookup per node under the root and
    # filters the owners' meta-data at the client
    found = client.wait(client.search("/", keyword="docs"))
    print(f"  search('/', keyword='docs') over {len(found.resolved)} "
          f"nodes: {sorted(found.matches)}\n")

    # --- Coda-like volume under skewed access -----------------------------
    volume = coda_like_tree(n_nodes=3000, seed=1993)
    cfg = SystemConfig.replicated(
        n_servers=24, seed=5, cache_slots=12, digest_probe_limit=1
    )
    system = build_system(volume, cfg)
    rate = 0.4 * cfg.n_servers / (0.005 * 3.5)
    print(f"synthetic file server: {len(volume)} nodes "
          f"({volume.n_leaves} files), depth {volume.max_depth}; "
          f"running Zipf(1.25) lookups at {rate:.0f}/s ...")
    WorkloadDriver(system, uzipf_stream(rate, 15.0, alpha=1.25, seed=2)).run()

    s = system.stats
    print(f"  completed {s.n_completed}/{s.n_injected} "
          f"(drop {100 * s.drop_fraction:.2f}%), "
          f"mean latency {s.latency.mean * 1000:.0f} ms, "
          f"mean hops {s.mean_hops:.2f}")
    print(f"  replicas created: {s.n_replicas_created}; "
          f"live: {system.total_replicas()}")
    hits = sum(p.cache.hits for p in system.peers)
    misses = sum(p.cache.misses for p in system.peers)
    print(f"  cache hit rate: {hits / (hits + misses):.2%}" if hits + misses
          else "  cache unused")
    digests = sum(len(p.digest_dir) for p in system.peers) / len(system.peers)
    print(f"  digest snapshots known per server (avg): {digests:.1f}")


if __name__ == "__main__":
    main()
