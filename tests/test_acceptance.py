"""Top-level acceptance checks, one test per criterion.

Every check is exact (tolerance zero): verdicts come from basis-by-basis
comparison over exact rationals.  Each test prints a single pass/fail
line; pytest -v shows one line per criterion as well.
"""

import json

from symalg.spaces import base, sym, tensor, direct_sum, MonIx, GenIx, build_sum
from symalg.elements import singleton, elem_add, element
from symalg.morphisms import (
    Id, Add, SymF, UnitM, Chi, ChiInv, Chi0Inv, check_equal, compose,
    linear_map_from_matrix, apply, apply_basis,
)
from symalg.spaces import UNIT, ZERO
from symalg.derivations import (
    builtin_derivations, derivation_to_algebra, algebra_to_derivation, decide_all, derivation_map_axioms, sbar_map_axioms,
    derivation_to_monoid, monoid_to_derivation, monoid_axioms,
    formal_derivative,
)
from symalg.harness import SuiteConfig, run_suite, strip_timing
from symalg.laws import registry, MUTATIONS, MUTATION_TARGETS, LawContext
from symalg.tangent import tangent_derivation, kleisli_diff, monomial_power_map

B1 = base("a", 1)
B2 = base("b", 2)

REG = registry()


def run_families(prefixes, bound, mutation=None):
    ctx = LawContext(mutation=mutation)
    failures = []
    checks = 0
    for name, law in REG.items():
        if not any(name == p or name.startswith(p) for p in prefixes):
            continue
        for instance, v in law.run(bound, ctx):
            checks += 1
            if not v.ok:
                failures.append((name, instance, v))
    return checks, failures


def report_line(n, title, ok):
    print(f"criterion {n} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def test_criterion_1_base_modality_suite():
    checks, failures = run_families(
        ["D1", "D2", "D3", "D4", "D5", "monad.", "monoid.unit",
         "monoid.assoc", "monoid.comm", "monoidmorph.", "nat."], 3)
    assert checks >= 50
    report_line(1, "base modality suite, bound 3", not failures)


def test_criterion_2_seely_storage():
    ok = True
    for a in (B1, B2):
        for b in (B1, B2):
            ok &= check_equal(compose(Chi(a, b), ChiInv(a, b)),
                              Id(tensor(sym(a), sym(b))), 3).ok
            ok &= check_equal(compose(ChiInv(a, b), Chi(a, b)),
                              Id(sym(direct_sum(a, b))), 3).ok
    ok &= check_equal(compose(UnitM(ZERO), Chi0Inv()), Id(UNIT), 3).ok
    ok &= check_equal(compose(Chi0Inv(), UnitM(ZERO)), Id(sym(ZERO)), 3).ok
    report_line(2, "storage isomorphisms, bound 3", ok)


def test_criterion_3_arrow_monad():
    checks, failures = run_families(["arrow.monad."], 2)
    assert checks >= 3 * 4  # three laws on at least four sample arrows
    report_line(3, "lifted monad laws on sample arrows", not failures)


def test_criterion_4_algebra_dictionary_roundtrips():
    ok = True
    for d in builtin_derivations():
        sba = derivation_to_algebra(d)
        back = algebra_to_derivation(sba)
        ok &= check_equal(back.module.alpha, d.module.alpha, 2).ok
        ok &= check_equal(derivation_to_algebra(back).nu1, sba.nu1, 2).ok
    # the dictionary preserves morphism squares on constructed morphisms
    d = formal_derivative()
    sba = derivation_to_algebra(d)
    v = base("x", 1)
    sv = sym(v)
    double = linear_map_from_matrix(v, v, ((2,),))
    cases = [
        (Id(sv), Id(sv), True),
        (SymF(double), Add(SymF(double), SymF(double)), True),
        (SymF(double), SymF(double), False),
    ]
    for f0, f1, expect in cases:
        der = all(v.ok for _, v in decide_all(derivation_map_axioms(d, d, f0, f1), 2))
        alg = all(v.ok for _, v in decide_all(sbar_map_axioms(sba, sba, f0, f1), 2))
        ok &= (der == alg == expect)
    report_line(4, "derivation/algebra dictionary round trips", ok)


def test_criterion_5_monoid_dictionary():
    ok = True
    for d in builtin_derivations():
        mon = derivation_to_monoid(d)
        ok &= all(v.ok for _, v in decide_all(monoid_axioms(mon), 2))  # m2-redundancy last
        back = monoid_to_derivation(mon, d.algebra)
        ok &= check_equal(back.d, d.d, 2).ok
        ok &= check_equal(back.module.alpha, d.module.alpha, 2).ok
    report_line(5, "monoid/derivation dictionary", ok)


def test_criterion_6_arrow_differential_axioms():
    checks, failures = run_families(["arrow.D"], 2)
    assert checks >= 5 * 4
    report_line(6, "lifted differential axioms, bound 2", not failures)


def test_criterion_7_tangent_structure():
    checks, failures = run_families(
        ["tangent.", "kleisli.power-rule"], 3)
    ok = not failures
    # dual-component rule on an explicit sample
    d = formal_derivative()
    td = tangent_derivation(d)
    aa = td.algebra.carrier
    x1 = MonIx((GenIx(0),))
    x2 = MonIx((GenIx(0),) * 2)
    x3 = MonIx((GenIx(0),) * 3)
    sample = elem_add(singleton(aa, build_sum(aa, 0, x2)),
                      singleton(aa, build_sum(aa, 1, x3)))
    want = elem_add(singleton(aa, build_sum(aa, 0, x1), 2),
                    singleton(aa, build_sum(aa, 1, x2), 3))
    ok &= (apply(td.d, sample) == want)
    # generator coefficient of the differentiated power map is the exponent
    for k in range(1, 5):
        df = kleisli_diff(monomial_power_map(k))
        img = apply_basis(df, GenIx(0))
        bb = df.cod().inner
        mono = MonIx(tuple(sorted(
            [build_sum(bb, 0, GenIx(0))] * (k - 1)
            + [build_sum(bb, 1, GenIx(0))], key=lambda v: v.key())))
        ok &= dict(img.coeffs).get(mono, 0) == k
    report_line(7, "tangent and Kleisli differential structure", ok)


def test_criterion_8_mutation_sensitivity():
    assert len(MUTATIONS) >= 5
    ok = True
    for mutation in MUTATIONS:
        targets = MUTATION_TARGETS[mutation]
        _, failures = run_families(list(targets), 3, mutation=mutation)
        hit = {name for name, _, _ in failures}
        witnessed = all(v.witness is not None for _, _, v in failures)
        ok &= bool(failures) and witnessed
        ok &= any(t in hit for t in targets)
        # the same families pass without the mutation
        _, clean = run_families(list(targets), 3)
        ok &= not clean
    report_line(8, "every registered mutation is detected", ok)


def test_criterion_9_determinism():
    cfg = lambda: SuiteConfig(bound=2, laws="*", seed=11)
    a = json.dumps(strip_timing(run_suite(cfg())), sort_keys=True)
    b = json.dumps(strip_timing(run_suite(cfg())), sort_keys=True)
    report_line(9, "identical config and seed give identical reports", a == b)
