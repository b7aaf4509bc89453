"""Kill matrix: which laws each registered mutation makes fail.

The report digests cover only unmutated runs, so a mutation hook that a
refactor drops, or that starts breaking more than it should, would pass
them unseen.  These tests pin, at bound 3, the exact set of failing laws
per mutation, and the laws that no mutation can make fail.
"""

import pytest

from symalg.harness import SuiteConfig, run_suite
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


@pytest.fixture(scope="module")
def failing():
    """{mutation: set of laws with at least one failing row} at BOUND."""
    out = {}
    for m in MUTATIONS:
        report = run_suite(SuiteConfig(bound=BOUND, mutate=m))
        out[m] = {r["law"] for r in report["results"] if r["status"] != "equal"}
    return out


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
