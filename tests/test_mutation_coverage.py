"""Kill matrix: which laws each registered mutation makes fail.

The report digests cover only unmutated runs, so a mutation hook that a
refactor drops, or that starts breaking more than it should, would pass
them unseen.  These tests pin, at bound 3, the exact set of failing laws
per mutation, the laws that no mutation can make fail, and each mutated
report whole: a failing row's tested count, bound and witness.
"""

import hashlib
import json

import pytest

from symalg.harness import SuiteConfig, run_suite, strip_timing
from symalg.laws import MUTATIONS, MUTATION_TARGETS, registry

BOUND = 3

KILLED = {
    "leibniz-drop": {"D2"},
    "dbar-twist-skip": {"arrow.D2", "arrow.D4", "arrow.D5"},
    "mubar-mult-skip": {"arrow.monad.assoc", "arrow.monad.unit.l"},
    "m2-drop": {"boxmonoid.comm", "boxmonoid.squares", "boxmonoid.unit.r",
                "monoid.m2-redundancy"},
    "chi-split-swap": {"seely.iso.l", "seely.iso.r"},
}

#: Laws that no mutation makes fail.  A new mutation may remove names from
#: this list; a new law must not be added to it unseen.
UNCOVERED = [
    "D1", "D3", "D4", "D5",
    "monad.unit.l", "monad.unit.r", "monad.assoc",
    "monoid.assoc", "monoid.unit.l", "monoid.unit.r", "monoid.comm",
    "monoidmorph.mult", "monoidmorph.unit",
    "nat.eta", "nat.mu", "nat.m", "nat.u", "nat.d",
    "seely0.iso.l", "seely0.iso.r",
    "arrow.monad.unit.r",
    "arrow.monoid.assoc", "arrow.monoid.unit.l", "arrow.monoid.unit.r",
    "arrow.monoid.comm", "arrow.monoidmorph.mult", "arrow.monoidmorph.unit",
    "arrow.D1", "arrow.D3",
    "arrow.box.assoc", "arrow.box.unit.l", "arrow.box.unit.r", "arrow.box.sym.invol",
    "arrow.seely.iso.l", "arrow.seely.iso.r", "arrow.seely0",
    "deriv.chain-rule", "deriv.implies.leibniz",
    "deriv.roundtrip.alpha", "deriv.roundtrip.nu1",
    "sbar.aux.evaluated-unit", "sbar.aux.mult-action",
    "boxmonoid.assoc", "boxmonoid.unit.l", "monoid.dict.roundtrip",
    "tangent.algebra", "tangent.dual-table", "tangent.chain-rule",
    "kleisli.power-rule", "kleisli.additivity",
]


#: sha256 of the timing-stripped report at BOUND under each mutation.
MUTATED_DIGESTS = {
    "leibniz-drop": "cf9779e16f20a7681fe527e34564a210dbd2109f32e19c5e6ba70f327b1ab167",
    "dbar-twist-skip": "83de74995216fb58d925d613ac0921c81a9265d7fc6cd8bdf2294f67cdcbd510",
    "mubar-mult-skip": "18e15eecada1e348656152c835cd41817fd1f0415853daa6a8b9f278905eaad8",
    "m2-drop": "811b3e0d2404025d0144d6178eca9b3800b53cf16938f0fe523956e307cea8b2",
    "chi-split-swap": "47e60487b346ea86e5523bad881a13b363b2508056aa7f9fc3cde6d3da827b84",
}


@pytest.fixture(scope="module")
def reports():
    """{mutation: timing-stripped report} at BOUND."""
    return {m: strip_timing(run_suite(SuiteConfig(bound=BOUND, mutate=m))) for m in MUTATIONS}


@pytest.fixture(scope="module")
def failing(reports):
    """{mutation: set of laws with at least one failing row} at BOUND."""
    return {m: {r["law"] for r in report["results"] if r["status"] != "equal"}
            for m, report in reports.items()}


def test_every_mutation_is_recorded():
    assert set(MUTATIONS) == set(KILLED)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_failing_laws_are_exactly_the_recorded_set(failing, mutation):
    assert failing[mutation] == KILLED[mutation]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_targets_are_killed(failing, mutation):
    assert set(MUTATION_TARGETS[mutation]) <= failing[mutation]


def test_uncovered_laws_only_shrink(failing):
    killed = set().union(*failing.values())
    assert set(registry()) - killed <= set(UNCOVERED)


@pytest.mark.hash_order
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_report_digest(reports, mutation):
    report = json.dumps(reports[mutation], sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == MUTATED_DIGESTS[mutation]
