"""Declarative simulation campaigns: specs, artifacts, resumable fan-out.

The paper's evaluation is a campaign of hundreds of independent
simulation runs (streams x presets x rates x seeds).  This module turns
every experiment's run list into *data* instead of ad-hoc loops:

* :class:`RunSpec` -- one picklable simulation run (experiment name,
  task label, task-function path, kwargs) with a stable
  content-addressed :attr:`~RunSpec.fingerprint`;
* :class:`ResultStore` -- a disk-backed artifact store holding one
  ``<fingerprint>.json`` per completed run (output plus metadata:
  scale, seed, code version, wall time, worker id);
* :class:`Campaign` -- the one executor: it skips fingerprint hits,
  fans the rest out through one
  :func:`repro.experiments.parallel.parallel_map` call, records per-task
  failures instead of aborting the pool, and reports
  ``done/cached/failed/total`` progress;
* the experiment registry (:data:`EXPERIMENT_NAMES`,
  :func:`get_experiment`) behind ``python -m repro`` and
  ``python -m repro run``.

Each experiment module is one :class:`Experiment` declaration: a
*point* function (one picklable run), a *grid* (parameters -> one
``(task, params)`` per run), an *assembler* (stored payloads -> the
figure's data structure), and a *renderer* (data structure -> printed
report).  :meth:`Experiment.run` is the one way to run it, in memory or
against a store; either way it runs a :class:`Campaign`.  Every payload
is JSON round-tripped before assembly, so a cold run, a partially
resumed run, and a fully cached re-run assemble bit-identical results.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import pathlib
import sys
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.parallel import env_count, parallel_map

FINGERPRINT_VERSION = 1
"""Bumped whenever the canonical spec encoding changes (invalidates
every cached artifact, which is the safe direction)."""


# ----------------------------------------------------------------------
# Canonical encoding and fingerprints
# ----------------------------------------------------------------------

def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-encodable structure.

    Dataclasses (``Scale``, ``WorkloadSpec``, ...) become tagged dicts
    of their fields, mappings are key-sorted, and sequences become
    lists.  Anything without an obvious stable encoding is rejected so
    a fingerprint can never silently depend on ``repr`` of an arbitrary
    object.

    Raises:
        TypeError: for values with no canonical form.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        return {
            str(k): canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for fingerprinting"
    )


def to_jsonable(obj: Any) -> Any:
    """Round-trip ``obj`` through JSON.

    Applied to every payload -- cold or cached -- before assembly, so
    results never depend on whether they came from memory or disk
    (tuples become lists, ints/floats/strings are exact).
    """
    return json.loads(json.dumps(obj))


def resolve_task(path: str) -> Callable[..., Any]:
    """Import the task function named by a ``module:qualname`` path."""
    mod_name, _, qual = path.partition(":")
    if not mod_name or not qual:
        raise ValueError(f"task path must be 'module:function', got {path!r}")
    obj: Any = importlib.import_module(mod_name)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One independent simulation run of a campaign.

    Attributes:
        experiment: registry name of the owning experiment (``fig3``..).
        task: label unique within the experiment (stream, preset cell,
            sweep point) -- used in reports and failure messages.
        fn: ``module:function`` path of the picklable task unit; the
            run executes ``fn(**params)``.
        params: keyword arguments; must be picklable and canonicalisable
            (plain values plus dataclasses such as ``Scale`` and
            ``WorkloadSpec``).
    """

    experiment: str
    task: str
    fn: str
    params: Mapping[str, Any]

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the spec (hex, 32 chars).

        Identical across processes and sessions for an identical spec;
        any change to the task function path or any parameter --
        including nested ``Scale``/``WorkloadSpec`` fields -- yields a
        different fingerprint, invalidating cached artifacts.
        """
        doc = {
            "v": FINGERPRINT_VERSION,
            "experiment": self.experiment,
            "task": self.task,
            "fn": self.fn,
            "params": canonical(self.params),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    def __repr__(self) -> str:  # params are huge; keep errors readable
        return (
            f"RunSpec({self.experiment}:{self.task}, fn={self.fn}, "
            f"fingerprint={self.fingerprint})"
        )


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """The git commit of the working tree, or the package version."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        ver = ""
        try:
            import subprocess

            root = pathlib.Path(__file__).resolve().parents[3]
            ver = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5,
            ).stdout.strip()
        except Exception:
            ver = ""
        if not ver:
            try:
                import repro

                ver = getattr(repro, "__version__", "unknown")
            except Exception:
                ver = "unknown"
        _CODE_VERSION = ver
    return _CODE_VERSION


class ResultStore:
    """Content-addressed result cache: one JSON file per fingerprint.

    Successful runs live at ``<root>/<fingerprint>.json``; failures at
    ``<root>/<fingerprint>.failed.json`` (kept out of the success path
    so a resumed campaign re-executes them).  Writes are atomic
    (temp file + ``os.replace``), so a killed campaign never leaves a
    half-written artifact that a resume would trust.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, fingerprint: str) -> pathlib.Path:
        """Artifact path for a successful run."""
        return self.root / f"{fingerprint}.json"

    def failed_path(self, fingerprint: str) -> pathlib.Path:
        """Artifact path recording the last failure of a run."""
        return self.root / f"{fingerprint}.failed.json"

    def _write(self, path: pathlib.Path, record: Mapping[str, Any]) -> None:
        # no sort_keys: dict order inside ``result`` is part of the
        # payload (assemblers and renderers iterate it), and JSON
        # round-trips preserve it
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1))
        os.replace(tmp, path)

    def fetch(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored success record, or None (missing/corrupt = miss)."""
        path = self.path(fingerprint)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("status") != "ok":
            return None
        return record

    def put(self, record: Mapping[str, Any]) -> None:
        """Persist a success record; clears any stale failure marker."""
        fp = record["fingerprint"]
        self._write(self.path(fp), record)
        try:
            self.failed_path(fp).unlink()
        except OSError:
            pass

    def record_failure(self, record: Mapping[str, Any]) -> None:
        """Persist a failure record (never consulted as a cache hit)."""
        self._write(self.failed_path(record["fingerprint"]), record)

    def fingerprints(self) -> List[str]:
        """Fingerprints of every stored *successful* artifact."""
        return sorted(
            p.stem for p in self.root.glob("*.json")
            if not p.name.endswith(".failed.json")
            and not p.name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.fingerprints())


# ----------------------------------------------------------------------
# Spec execution (module-level and picklable: runs inside pool workers)
# ----------------------------------------------------------------------

def _spec_meta(spec: RunSpec) -> Dict[str, Any]:
    scale = spec.params.get("scale")
    return {
        "scale": getattr(scale, "name", None),
        "seed": spec.params.get("seed"),
        "code_version": code_version(),
        "recorded_at": time.time(),
        "worker": f"pid-{os.getpid()}",
    }


def run_spec(spec: RunSpec, store_dir: Optional[str] = None) -> Dict[str, Any]:
    """Execute one spec, returning (and optionally persisting) a record.

    Never raises for task failures: errors are captured in the record
    so a single crashed run cannot abort a whole pool.  When
    ``store_dir`` is given the record is written *by the worker*, so
    completed runs survive even if the campaign process is killed
    before the pool drains.
    """
    meta = _spec_meta(spec)
    t0 = time.perf_counter()
    try:
        fn = resolve_task(spec.fn)
        result = to_jsonable(fn(**dict(spec.params)))
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        import traceback

        result = None
        status = "failed"
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }
    meta["wall_time_s"] = time.perf_counter() - t0
    record: Dict[str, Any] = {
        "fingerprint": spec.fingerprint,
        "experiment": spec.experiment,
        "task": spec.task,
        "fn": spec.fn,
        "status": status,
        "result": result,
        "error": error,
        "meta": meta,
    }
    if store_dir is not None:
        store = ResultStore(store_dir)
        if status == "ok":
            store.put(record)
        else:
            store.record_failure(record)
    return record


# ----------------------------------------------------------------------
# Campaign executor
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CampaignStats:
    """Progress counters for one :meth:`Campaign.run`."""

    total: int = 0
    cached: int = 0
    executed: int = 0
    failed: int = 0
    elapsed: float = 0.0

    @property
    def done(self) -> int:
        """Specs with a usable payload (cached or freshly executed)."""
        return self.total - self.failed

    @property
    def runs_per_sec(self) -> float:
        """Fresh executions per wall-clock second."""
        return self.executed / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        """The one-line progress/summary format (stable: CI greps it)."""
        return (
            f"done={self.done}/{self.total} cached={self.cached} "
            f"executed={self.executed} failed={self.failed} "
            f"({self.runs_per_sec:.2f} runs/s, {self.elapsed:.1f}s)"
        )


@dataclasses.dataclass
class CampaignResult:
    """Outcome of one :meth:`Campaign.run`.

    Attributes:
        specs: the input specs, in order.
        payloads: one JSON payload per spec (None where the run failed).
        stats: the final counters.
        failures: ``(spec, record)`` for every spec that failed.
    """

    specs: List[RunSpec]
    payloads: List[Any]
    stats: CampaignStats
    failures: List[Tuple[RunSpec, Dict[str, Any]]]

    def raise_on_failure(self) -> None:
        """Raise ``RuntimeError`` if any run failed.

        The message names each failed run as ``experiment:task`` with
        its error, then the first failure's traceback, so a caller sees
        where a run broke even when it broke in a pool worker.
        """
        if not self.failures:
            return
        lines = [f"{len(self.failures)} of {self.stats.total} runs failed:"]
        for spec, record in self.failures[:5]:
            err = record["error"]
            lines.append(
                f"  {spec.experiment}:{spec.task} -> "
                f"{err['type']}: {err['message']}"
            )
        lines.append(self.failures[0][1]["error"]["traceback"].rstrip())
        raise RuntimeError("\n".join(lines))


class Campaign:
    """Resumable fan-out executor over a list of :class:`RunSpec`.

    Args:
        store: artifact store; None runs fully in memory.
        workers: pool size (None consults ``REPRO_WORKERS``).
        use_cache: consult the store and skip fingerprint hits.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        use_cache: bool = True,
    ) -> None:
        self.store = store
        self.workers = workers
        self.use_cache = use_cache and store is not None

    def run(self, specs: Sequence[RunSpec]) -> CampaignResult:
        """Execute every spec, reusing cached artifacts where possible.

        Specs sharing a fingerprint execute once, and every spec to
        execute goes through one :func:`parallel_map` call (one pool).
        A failed run is recorded, not retried: task functions are
        deterministic, and the next run of the campaign re-executes
        exactly its failures.  Payloads come back in spec order
        regardless of completion order.  One ``[campaign]`` summary
        line goes to stderr when the run ends.
        """
        t0 = time.perf_counter()
        specs = list(specs)
        stats = CampaignStats(total=len(specs))
        payloads: List[Any] = [None] * len(specs)

        # fingerprint hits (and intra-campaign duplicates) run once
        by_fp: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            by_fp.setdefault(spec.fingerprint, []).append(i)
        pending: List[str] = []
        for fp, idxs in by_fp.items():
            record = self.store.fetch(fp) if self.use_cache else None
            if record is not None:
                stats.cached += len(idxs)
                for i in idxs:
                    payloads[i] = record["result"]
            else:
                pending.append(fp)

        store_dir = str(self.store.root) if self.store is not None else None
        records = parallel_map(
            functools.partial(run_spec, store_dir=store_dir),
            [specs[by_fp[fp][0]] for fp in pending],
            self.workers,
        )
        failures: List[Tuple[RunSpec, Dict[str, Any]]] = []
        for fp, record in zip(pending, records):
            idxs = by_fp[fp]
            if record["status"] == "ok":
                stats.executed += len(idxs)
                for i in idxs:
                    payloads[i] = record["result"]
            else:
                stats.failed += len(idxs)
                failures.extend((specs[i], record) for i in idxs)
        stats.elapsed = time.perf_counter() - t0
        print(f"[campaign] {stats.summary()}", file=sys.stderr, flush=True)
        return CampaignResult(specs, payloads, stats, failures)


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------

def pairs(specs: Sequence[RunSpec], payloads: Sequence[Any]) -> Dict[Any, Any]:
    """The default assembler: ``{key: value}`` from ``(key, value)`` payloads."""
    return dict(payloads)


def nested(
    specs: Sequence[RunSpec], payloads: Sequence[Any]
) -> Dict[Any, Dict[Any, Any]]:
    """``{outer: {inner: value}}`` from ``(outer, inner, value)`` payloads."""
    out: Dict[Any, Dict[Any, Any]] = {}
    for outer, inner, value in payloads:
        out.setdefault(outer, {})[inner] = value
    return out


def only(specs: Sequence[RunSpec], payloads: Sequence[Any]) -> Any:
    """The assembler of a single-run experiment: its one payload."""
    (payload,) = payloads
    return payload


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One experiment, declared once: its point, its grid, its report.

    Attributes:
        name: registry key (also the CLI argument).
        title: one-line description shown by the CLI.
        point: the picklable task unit; a run executes ``point(**params)``.
        grid: ``(scale, seed, **kw) -> [(task, params), ...]``, one entry
            per run, ``task`` unique within the experiment.
        render: prints the combined-report block for an assembled
            result (exactly what ``python -m repro <name>`` shows).
        assemble: ``(specs, payloads) -> result`` -- rebuilds the
            figure's data structure from stored payloads (in spec
            order); must only use spec params and payload contents.
    """

    name: str
    title: str
    point: Callable[..., Any]
    grid: Callable[..., Iterable[Tuple[str, Dict[str, Any]]]]
    render: Callable[[Any], None]
    assemble: Callable[[Sequence[RunSpec], Sequence[Any]], Any] = pairs

    def specs(self, scale, seed: int = 0, **kw: Any) -> List[RunSpec]:
        """The experiment's run list at ``scale``."""
        fn = f"{self.point.__module__}:{self.point.__qualname__}"
        return [
            RunSpec(self.name, task, fn, params)
            for task, params in self.grid(scale, seed, **kw)
        ]

    def run(
        self,
        scale=None,
        seed: Optional[int] = None,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        use_cache: bool = True,
        **kw: Any,
    ) -> Any:
        """Build, execute, and assemble the experiment as a
        :class:`Campaign`.

        ``scale`` and ``seed`` default to ``$REPRO_SCALE`` /
        ``$REPRO_SEED``; ``kw`` reaches :attr:`grid`.  With no
        ``store`` the runs execute in memory; with a store the campaign
        is cached and resumable.  If any run fails, this raises
        ``RuntimeError`` once every run has finished, naming each failed
        ``experiment:task`` and the first failure's traceback.
        """
        from repro.experiments.common import get_scale, get_seed

        specs = self.specs(scale or get_scale(), seed=get_seed(seed), **kw)
        result = Campaign(store, workers, use_cache).run(specs)
        result.raise_on_failure()
        return self.assemble(specs, result.payloads)


_MODULES: Dict[str, str] = {
    "table1": "repro.experiments.table1_state",
    "fig3": "repro.experiments.fig3_drops",
    "fig4": "repro.experiments.fig4_replicas",
    "fig5": "repro.experiments.fig5_ablation",
    "fig6": "repro.experiments.fig6_load",
    "fig7": "repro.experiments.fig7_levels",
    "fig8": "repro.experiments.fig8_stabilization",
    "fig9": "repro.experiments.fig9_scalability",
    "churn": "repro.experiments.churn_digests",
    "heterogeneity": "repro.experiments.heterogeneity",
    "resilience": "repro.experiments.resilience",
    "static": "repro.experiments.static_vs_adaptive",
}

EXPERIMENT_NAMES: Tuple[str, ...] = tuple(_MODULES)
"""All registered experiments, in combined-report order."""


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment (modules import lazily).

    Raises:
        ValueError: for names not in :data:`EXPERIMENT_NAMES`.
    """
    try:
        mod_name = _MODULES[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {list(_MODULES)}"
        ) from None
    return importlib.import_module(mod_name).EXPERIMENT


# ----------------------------------------------------------------------
# CLI: python -m repro [experiments...] and python -m repro run ...
# ----------------------------------------------------------------------

def _check_names(wanted: Sequence[str]) -> Optional[str]:
    """The error for requested names that are not experiments, if any."""
    unknown = [w for w in wanted if w not in _MODULES]
    if unknown:
        return f"unknown experiments {unknown}; choose from {list(_MODULES)}"
    return None


def _run_and_render(
    campaign: Campaign, wanted: Sequence[str], scale, seed: int
) -> CampaignResult:
    """Run every spec of the ``wanted`` experiments as one campaign, then
    print one block per experiment in order (a block whose runs failed
    says which were skipped)."""
    groups: List[Tuple[str, List[RunSpec]]] = [
        (name, get_experiment(name).specs(scale, seed=seed)) for name in wanted
    ]
    result = campaign.run([spec for _, specs in groups for spec in specs])
    offset = 0
    failed_by_spec = {id(s) for s, _ in result.failures}
    for name, specs in groups:
        payloads = result.payloads[offset:offset + len(specs)]
        offset += len(specs)
        print(f"\n=== {name} ===")
        bad = [s for s in specs if id(s) in failed_by_spec]
        if bad:
            print(f"  skipped: {len(bad)}/{len(specs)} runs failed "
                  f"({', '.join(s.task for s in bad)})")
            continue
        exp = get_experiment(name)
        exp.render(exp.assemble(specs, payloads))
    return result


def _print_failures(result: CampaignResult) -> int:
    """List the failed runs; the exit status (1 if any failed)."""
    for spec, record in result.failures:
        err = record["error"]
        print(f"  FAILED {spec.experiment}:{spec.task} -> "
              f"{err['type']}: {err['message']}")
    return 1 if result.failures else 0


def report(argv: List[str]) -> int:
    """``python -m repro [exp ...]`` -- print the combined report.

    Runs the requested experiments (default: all) in memory at
    ``$REPRO_SCALE`` under ``$REPRO_SEED`` as one campaign (one pool
    under ``$REPRO_WORKERS``), then prints one block per experiment and
    the campaign's wall time.  Returns 1 if any run failed.
    """
    from repro.experiments.common import get_scale, get_seed

    wanted = argv or list(EXPERIMENT_NAMES)
    error = _check_names(wanted)
    if error:
        raise SystemExit(error)
    scale = get_scale()
    print(f"scale={scale.name}  servers={scale.n_servers}  "
          f"N_S=2^{scale.ns_levels + 1}-1 nodes  N_C={scale.nc_nodes} nodes")
    t0 = time.perf_counter()
    result = _run_and_render(Campaign(), wanted, scale, get_seed())
    print(f"\n  [{time.perf_counter() - t0:.1f}s]")
    return _print_failures(result)


def main(argv: List[str]) -> int:
    """``python -m repro run [exp ...] [--jobs N] [--no-cache]
    [--out DIR]`` -- run experiments as a cached campaign.

    Scale and base seed come from ``REPRO_SCALE`` / ``REPRO_SEED``, the
    shard count of each run from ``REPRO_SHARDS``.
    Artifacts land in ``--out`` (default ``results/``); a re-run skips
    every fingerprint hit, so an interrupted campaign resumes where it
    stopped.  ``--no-cache`` forces re-execution (artifacts are still
    rewritten).  Exits non-zero if any run fails; a failed run is never
    a cache hit, so the next invocation re-executes exactly those.
    """
    import argparse

    from repro.experiments.common import get_scale, get_seed

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run experiment campaigns with cached, resumable runs.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help=f"subset to run (default: all of {', '.join(EXPERIMENT_NAMES)})",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_WORKERS, serial if unset)",
    )
    parser.add_argument(
        "--out", default="results", metavar="DIR",
        help="artifact directory (default: results/)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore existing artifacts and re-execute every run",
    )
    args = parser.parse_args(argv)

    wanted = list(args.experiments) or list(EXPERIMENT_NAMES)
    error = _check_names(wanted)
    if error:
        parser.error(error)

    scale = get_scale()
    seed = get_seed()
    shards = env_count("REPRO_SHARDS") or 1
    print(
        f"scale={scale.name}  seed={seed}  out={args.out}  "
        f"cache={'off' if args.no_cache else 'on'}  shards={shards}"
    )
    campaign = Campaign(
        store=ResultStore(args.out),
        workers=args.jobs,
        use_cache=not args.no_cache,
    )
    result = _run_and_render(campaign, wanted, scale, seed)
    print(f"\ncampaign: {result.stats.summary()}")
    return _print_failures(result)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
