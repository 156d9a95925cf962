"""Session fixtures: scenarios that more than one test reads, run once."""

import pytest

from repro.experiments.campaign import get_experiment
from tests.test_experiments import MICRO


@pytest.fixture(scope="session")
def fig9_micro():
    """fig9 at the experiment tests' ``MICRO`` scale (``duration=4.0``,
    ``seed=1``), computed once per session: ``TestFig9`` pins it and the
    fig9 printer test renders it.  Readers must not mutate it."""
    return get_experiment("fig9").run(MICRO, duration=4.0, seed=1)
