"""``python -m repro`` -- run experiments, campaigns, and checks.

* ``python -m repro [fig ...]`` -- the experiment suite, run in memory
  and printed as one combined report
  (see :func:`repro.experiments.campaign.report`);
* ``python -m repro run [fig ...] [--jobs N] [--no-cache]
  [--out DIR]`` -- the same experiments as a cached, resumable campaign
  writing per-run artifacts (see :mod:`repro.experiments.campaign`);
* ``python -m repro mem-smoke [--nodes N] [--servers N] [--budget-mb MB]``
  -- the million-node namespace build smoke, or with ``--servers`` a
  whole fleet build, under an RSS budget
  (see :mod:`repro.experiments.mem_smoke`);
* ``python -m repro shard-check [--shards 1,4]`` -- verify sharded
  windowed runs are bit-identical to the serial engine and dispatch
  no more than 5 % more engine events (see :mod:`repro.sim.shard`);
* ``python -m repro lint [paths]`` -- determinism static analysis of
  protocol code (see :mod:`repro.tools.detlint`);
* ``python -m repro serve [--servers N] [--transport uds|tcp]
  [--drive adaptive]`` -- host a live cluster over real sockets and
  (optionally) discover its capacity with the closed-loop AIMD client
  (see :mod:`repro.runtime.async_serve`).
"""

import sys


def main(argv) -> int:
    if argv and argv[0] == "run":
        from repro.experiments.campaign import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "mem-smoke":
        from repro.experiments.mem_smoke import main as mem_main

        return mem_main(argv[1:])
    if argv and argv[0] == "shard-check":
        from repro.sim.shard import main as shard_main

        return shard_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.tools.detlint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.experiments.campaign import ResultStore
        from repro.runtime.async_serve import main as serve_main

        return serve_main(argv[1:], ResultStore)
    from repro.experiments.campaign import report

    return report(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
