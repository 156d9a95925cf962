"""``python -m repro serve`` -- host a live TerraDir cluster.

Boots N peers over real sockets (unix-domain by default, TCP with
``--transport tcp``) in this process, starts the maintenance ticks,
and -- with ``--drive adaptive`` -- runs the closed-loop AIMD load
client against it to discover the deployment's maximum sustainable
QPS.  The capacity curve (one point per control epoch) is printed,
optionally written to ``--out`` as JSON, and optionally stored as a
campaign artifact via :class:`~repro.experiments.campaign.ResultStore`
with ``--results DIR``.

This module runs in real time by design: it is part of the sanctioned
wall-clock chokepoint (see :mod:`repro.runtime.async_runtime`).

Examples::

    # 5 peers on unix sockets, 10 s of adaptive load
    python -m repro serve --servers 5 --duration 10 --drive adaptive \\
        --out capacity.json

    # host only; talk to it with your own client over TCP
    python -m repro serve --transport tcp --port-base 47000 --drive none
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import tempfile
import time
from typing import Any, Dict, Optional

from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.runtime.async_client import AdaptiveLoadClient
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_service import LiveService, build_live_system
from repro.runtime.async_wire import AsyncWire, tcp_addresses, uds_addresses
from repro.workload.streams import unif_stream, uzipf_stream

__all__ = ["main"]

_PRESETS = {
    "replicated": SystemConfig.replicated,
    "caching": SystemConfig.caching,
}


def _parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="host a live TerraDir cluster over UDS/TCP",
    )
    ap.add_argument("--servers", type=int, default=5)
    ap.add_argument("--levels", type=int, default=8,
                    help="balanced-tree namespace depth (2**(L+1)-1 nodes)")
    ap.add_argument("--preset", choices=sorted(_PRESETS), default="replicated")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--transport", choices=("uds", "tcp"), default="uds")
    ap.add_argument("--dir", default=None,
                    help="socket directory for --transport uds "
                         "(default: a fresh temp dir)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port-base", type=int, default=47000)
    ap.add_argument("--duration", type=float, default=10.0,
                    help="seconds to run (0 = until interrupted)")
    ap.add_argument("--drive", choices=("adaptive", "none"),
                    default="adaptive")
    ap.add_argument("--alpha", type=float, default=0.0,
                    help="Zipf alpha for the driven workload (0 = uniform)")
    ap.add_argument("--slo-p99", type=float, default=0.25)
    ap.add_argument("--slo-drop-rate", type=float, default=0.01)
    ap.add_argument("--start-rate", type=float, default=50.0)
    ap.add_argument("--add-step", type=float, default=25.0)
    ap.add_argument("--md-factor", type=float, default=0.65)
    ap.add_argument("--epoch", type=float, default=1.0)
    ap.add_argument("--lookup-timeout", type=float, default=1.0)
    ap.add_argument("--out", default=None,
                    help="write the capacity-curve JSON here")
    ap.add_argument("--results", default=None,
                    help="also store the artifact in this ResultStore dir")
    return ap.parse_args(argv)


def _fingerprint(params: Dict[str, Any]) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return "serve-" + hashlib.sha256(blob).hexdigest()[:16]


async def _amain(args: argparse.Namespace) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    ns = balanced_tree(levels=args.levels)
    cfg = _PRESETS[args.preset](n_servers=args.servers, seed=args.seed)

    tmp: Optional[tempfile.TemporaryDirectory] = None
    if args.transport == "uds":
        sock_dir = args.dir
        if sock_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            sock_dir = tmp.name
        addresses = uds_addresses(sock_dir, args.servers)
    else:
        addresses = tcp_addresses(args.host, args.port_base, args.servers)

    runtime = AsyncRuntime(loop)
    wire = AsyncWire(loop, addresses)
    system = build_live_system(ns, cfg, runtime, wire)
    service = LiveService(system)
    service.attach(wire)
    await wire.start_listeners()
    system.start_maintenance()
    print(f"serving {args.servers} peers over {args.transport} "
          f"({len(ns)} nodes, preset={args.preset})")

    curve: Dict[str, Any] = {}
    try:
        if args.drive == "adaptive":
            if args.alpha > 0:
                spec = uzipf_stream(args.start_rate, max(args.duration, 1.0),
                                    args.alpha, seed=args.seed)
            else:
                spec = unif_stream(args.start_rate, max(args.duration, 1.0),
                                   seed=args.seed)
            client = AdaptiveLoadClient(
                loop, addresses, list(range(args.servers)), spec, len(ns),
                slo_p99=args.slo_p99,
                slo_drop_rate=args.slo_drop_rate,
                start_rate=args.start_rate,
                add_step=args.add_step,
                md_factor=args.md_factor,
                epoch=args.epoch,
                lookup_timeout=args.lookup_timeout,
            )
            try:
                curve = await client.run(args.duration or 10.0)
            finally:
                await client.close()
        elif args.duration > 0:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()  # until interrupted
    finally:
        await wire.close()
        if tmp is not None:
            tmp.cleanup()

    curve["service"] = {
        "n_lookups": service.n_lookups,
        "n_completed": service.n_completed,
        "n_deadline_failures": service.n_deadline_failures,
        "n_replicas": system.total_replicas(),
    }
    curve["wire"] = wire.counters()
    return curve


def _report(curve: Dict[str, Any]) -> None:
    points = curve.get("points", [])
    for p in points:
        flag = "ok " if p["met_slo"] else "SLO"
        print(f"  epoch {int(p['epoch']):3d}  target {p['target_qps']:7.1f} "
              f"q/s  achieved {p['achieved_qps']:7.1f}  "
              f"p99 {p['p99'] * 1e3:7.1f} ms  "
              f"drops {100 * p['drop_rate']:5.1f}%  [{flag}]")
    print(f"max sustainable: {curve.get('max_sustainable_qps', 0.0):.1f} q/s "
          f"({curve.get('n_completed', 0)} lookups completed, "
          f"{curve.get('n_dropped', 0)} dropped)")


def main(argv) -> int:
    args = _parse_args(argv)
    started = time.time()
    try:
        curve = asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    if not curve.get("points"):
        # host-only runs have no curve; nothing to persist
        print(f"served for {time.time() - started:.1f}s")
        return 0
    _report(curve)
    params = {
        "experiment": "serve_capacity",
        "servers": args.servers,
        "levels": args.levels,
        "preset": args.preset,
        "seed": args.seed,
        "transport": args.transport,
        "alpha": args.alpha,
        "slo_p99": args.slo_p99,
        "duration": args.duration,
    }
    record = {
        "fingerprint": _fingerprint(params),
        "status": "ok",
        "params": params,
        "started_at": started,
        "elapsed": time.time() - started,
        "result": curve,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"capacity curve written to {args.out}")
    if args.results:
        from repro.experiments.campaign import ResultStore

        ResultStore(args.results).put(record)
        print(f"artifact {record['fingerprint']} stored in {args.results}")
    # a capacity run that completed zero lookups is a failed run
    return 0 if curve.get("n_completed", 0) > 0 else 1
