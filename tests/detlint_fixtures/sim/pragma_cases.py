"""Pragma behavior fixtures: valid waiver, multi-line justification.

``pragma_bad_cases.py`` carries the defective ones (they must fail).
"""

import random


def waived_inline(servers):
    return servers[random.randrange(len(servers))]  # det: ok(wall-clock-entropy) -- fixture: justified inline waiver


def waived_standalone(servers):
    # det: ok(wall-clock-entropy) -- fixture: a justification may run
    # over several comment lines above the statement it waives
    return servers[random.randrange(len(servers))]


def waived_by_id(servers):
    return servers[random.randrange(len(servers))]  # det: ok(DET001) -- fixture: waiver by rule id
