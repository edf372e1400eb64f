"""The paper's evaluation: every row of ``repro.harness.EXPERIMENTS``.

Each experiment runs once, on its own cold cluster, and writes its table
to ``benchmarks/results/<name>.txt``; each of its claims about the
paper's shapes is one test, ``test_claim[<name>-<claim>]``.
"""

import pytest

from repro.harness import EXPERIMENTS

CLAIMS = [(name, claim) for name, entry in EXPERIMENTS.items() for claim in entry.claims]


@pytest.fixture(scope="session")
def reports(config, save_report):
    """Each experiment's report, run and saved on first use."""
    done = {}

    def report_of(name):
        if name not in done:
            done[name] = EXPERIMENTS[name].run(config)
            save_report(name, done[name])
        return done[name]

    return report_of


@pytest.mark.parametrize(("name", "claim"), CLAIMS)
def test_claim(name, claim, reports, config):
    report = reports(name)
    assert EXPERIMENTS[name].claims[claim](report, config), f"{claim}\n{report}"
