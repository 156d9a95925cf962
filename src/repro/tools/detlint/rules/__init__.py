"""The rule catalog; every rule applies to protocol code only.

Each rule is kept because it caught a shipped bug:

* ``DET001 wall-clock-entropy`` -- ``ReplicaMap.add_preferred``
  evicting via module-level ``random.randrange``;
* ``DET002 sized-presence-truthiness`` -- ``build_system``'s
  ``engine or make_engine()`` dropping an empty-but-valid Engine;
* ``DET003 loop-closure-capture`` -- the sharded stats merge's
  generator expression reading the loop's ``shard_id`` late.

``DET000 bad-pragma`` is not a visitor: defective or stale waivers are
reported by the pragma parser itself (:mod:`repro.tools.detlint.pragmas`).
"""

from typing import Tuple

from repro.tools.detlint.model import Rule
from repro.tools.detlint.rules import closures, entropy, truthiness

RULES: Tuple[Rule, ...] = (entropy.RULE, truthiness.RULE, closures.RULE)
