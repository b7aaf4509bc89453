"""Suite runner, configuration handling, reports, CLI."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from symalg.harness import (
    ConfigError, SuiteConfig, load_config, run_suite, select_laws,
    strip_timing, render_summary, write_report,
    CONFIG_SCHEMA, REPORT_SCHEMA,
)
from symalg.derivations import builtin_algebras
from symalg.laws import registry, list_laws, MUTATIONS, MUTATION_TARGETS, BUILTIN_DERIVATIONS
from symalg.cli import main
from symalg import laws


class TestRegistry:
    def test_at_least_forty_laws(self):
        assert len(registry()) >= 40

    def test_every_law_has_an_anchor(self):
        for name, anchor in list_laws():
            assert name and anchor

    def test_expected_names_present(self):
        names = {n for n, _ in list_laws()}
        for wanted in ["D1", "D2", "D3", "D4", "D5",
                       "monad.assoc", "monoid.comm", "nat.d",
                       "seely.iso.l", "arrow.monad.assoc", "arrow.D5",
                       "monoid.m2-redundancy", "kleisli.power-rule"]:
            assert wanted in names

    def test_duplicate_law_name_rejected(self, monkeypatch):
        monkeypatch.setattr(laws, "_LAWS", laws._LAWS + laws._LAWS[:1])
        with pytest.raises(ValueError, match="^duplicate law name D1$"):
            registry()

    def test_glob_selection(self):
        assert {n for n, _ in select_laws("D?")} == {"D1", "D2", "D3", "D4", "D5"}
        assert select_laws("nothing-matches-this") == []


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.bound == 3 and cfg.laws == "*" and cfg.mutate is None

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"bonud": 2}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_schema_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"mutate": "nope"})

    @pytest.mark.parametrize("setting, message", [
        ({"mutate": "leibniz-dropp"},
         f"unknown mutation 'leibniz-dropp'; known: {list(MUTATIONS)}"),
        ({"bound": True}, "bound must be an integer, got True"),
        ({"bound": 0}, "bound must be >= 1"),
        ({"laws": None}, "laws must be a string pattern, got None"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"budget": float("nan")}, "budget must be a finite positive number, got nan"),
    ], ids=["mutate-typo", "bound-bool", "bound-zero", "laws-null", "seed-float", "budget-nan"])
    def test_config_built_in_python_is_checked(self, setting, message):
        # Not only a config file: a mistyped mutation would otherwise run unmutated.
        with pytest.raises(ConfigError) as built:
            SuiteConfig(**setting)
        assert str(built.value) == message
        if None not in setting.values():  # load_config reads a null as the default
            with pytest.raises(ConfigError) as loaded:
                load_config(None, overrides=setting)
            assert str(loaded.value) == message

    def test_budget_is_held_as_a_float(self):
        budget = SuiteConfig(budget=2).budget
        assert budget == 2.0 and type(budget) is float

    def test_custom_algebra_loads_and_runs(self, tmp_path):
        cfg_json = {
            "bound": 2,
            "laws": "deriv.chain-rule",
            "algebras": [{
                "name": "user-dual",
                "rank": 2,
                "mult_table": [[["1", "0"], ["0", "1"]],
                               [["0", "1"], ["0", "0"]]],
                "unit": ["1", "0"],
            }],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_json))
        cfg = load_config(str(p))
        assert [a.name for a in cfg.extra_algebras] == ["user-dual"]
        report = run_suite(cfg)
        assert report["summary"]["failures"] == 0

    def test_invalid_custom_algebra_rejected(self, tmp_path):
        cfg_json = {
            "algebras": [{
                "name": "broken",
                "rank": 2,
                "mult_table": [[["0", "1"], ["0", "1"]],
                               [["0", "1"], ["0", "0"]]],
                "unit": ["1", "0"],
            }],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_json))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_custom_derivation_matrix(self, tmp_path):
        cfg_json = {
            "bound": 2,
            "laws": "deriv.chain-rule",
            "algebras": [{
                "name": "cdual",
                "rank": 2,
                "mult_table": [[["1", "0"], ["0", "1"]],
                               [["0", "1"], ["0", "0"]]],
                "unit": ["1", "0"],
            }],
            # d(1) = 0, d(eps) = 0: the zero derivation as a matrix
            "derivations": [{"name": "zero-on-cdual", "algebra": "cdual",
                             "matrix": [["0", "0"], ["0", "0"]]}],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_json))
        cfg = load_config(str(p))
        report = run_suite(cfg)
        instances = {r["instance"] for r in report["results"]}
        assert "zero-on-cdual" in instances
        assert report["summary"]["failures"] == 0

    @pytest.mark.parametrize("kind, extra, named", [
        ("algebras", {"comment": "x"}, "algebra 'q': unknown keys: ['comment']"),
        ("algebras", {"rnk": 1}, "algebra 'q': unknown keys: ['rnk']"),
        ("derivations", {"bound": 9}, "derivation 'dq': unknown keys: ['bound']"),
    ], ids=["algebra-comment", "algebra-rnk", "derivation-bound"])
    def test_unknown_entry_keys_rejected(self, tmp_path, kind, extra, named):
        alg = {"name": "q", "rank": 1, "mult_table": [[[1]]], "unit": [1]}
        der = {"name": "dq", "algebra": "q", "matrix": [[0]]}
        entries = {"algebras": [alg], "derivations": ["zero", der]}
        entries[kind][-1] = {**entries[kind][-1], **extra}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(entries))
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert str(err.value) == named
        assert main(["check", "--bound", "1", "--laws", "D1", "--config", str(p)]) == 2



#: sha256 of the timing-stripped default-suite report at each bound.
REPORT_DIGESTS = {
    2: "67b9a489c722c5d26364431f7684f38cb5a1e59cf08ab594ad8f1d8d3e37765e",
    3: "c3ee1df21d60d59792f2b419984841ec86e92c0d4e2af789d44fae2eaec0c5c9",
    4: "289e53293431acb1353778659c30b250560903fd603f8d96012c69e80716a71e",
    5: "84d5d2bc3394c1433fc8d0311d44b1dd354bd119536436c9f4b7bd326cab58bf",
}


SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _fresh_run(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter, with no cache warmed."""
    return subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=300)


def _fresh_process(code: str, *args: str) -> str:
    """Run code in a new interpreter, with no cache warmed; return its stdout."""
    run = _fresh_run(code, *args)
    assert run.returncode == 0, run.stderr
    return run.stdout


#: Counts the table_algebra calls of a default run at bound 3.
_COUNT_TABLE_ALGEBRAS = """
from symalg import derivations
from symalg.harness import load_config, run_suite

calls = []
table_algebra = derivations.table_algebra

def counted(*args, **kwargs):
    calls.append(args[0])
    return table_algebra(*args, **kwargs)

derivations.table_algebra = counted
run_suite(load_config(None, {"bound": 3}))
print(len(calls))
"""

#: Checks every Element the evaluator builds (elements._new) in a bound-2
#: run of the config in argv[1], unmutated and under every mutation, and
#: then every image in the apply_basis memo, shared ones included; prints
#: how many elements were built, how many distinct memo images were
#: checked, and the bad ones.
_CHECK_ELEMENTS = """
import json, sys
from fractions import Fraction
from functools import lru_cache
from symalg import elements, morphisms
from symalg.harness import load_config, run_suite
from symalg.laws import MUTATIONS
from symalg.spaces import order_key, is_basis_vector

built, bad = [0], []
new = elements._new
member = lru_cache(maxsize=None)(is_basis_vector)

def check(space, coeffs):
    keys = [order_key(bv) for bv, _ in coeffs]
    if (any(k >= k2 for k, k2 in zip(keys, keys[1:]))
            or not all(member(bv, space) for bv, _ in coeffs)
            or not all(type(c) is int and c != 0
                       or type(c) is Fraction and c.denominator > 1
                       for _, c in coeffs)):
        bad.append(repr(coeffs))

def checked(space, coeffs):
    built[0] += 1
    check(space, coeffs)
    return new(space, coeffs)

elements._new = checked
for mutate in (None, *MUTATIONS):
    run_suite(load_config(sys.argv[1], {"bound": 2, "mutate": mutate}))
images = {id(img): img for d in morphisms._MEMO.values() for img in d.values()}
for img in images.values():
    check(img.space, img.coeffs)
print(json.dumps({"built": built[0], "images": len(images), "bad": bad[:3]}))
"""

#: Runs the default suite at bound 3, then again under each mutation named
#: in argv; prints the check_equal calls and the verdicts check_equal kept.
_COUNT_CHECKS = """
import sys
from symalg import morphisms
from symalg.harness import load_config, run_suite

calls = [0]
check_equal = morphisms.check_equal

def counted(*args, **kwargs):
    calls[0] += 1
    return check_equal(*args, **kwargs)

for name, mod in list(sys.modules.items()):
    if name == "symalg" or name.startswith("symalg."):
        for attr, value in list(vars(mod).items()):
            if value is check_equal:
                setattr(mod, attr, counted)
for mutate in [None, *sys.argv[1:]]:
    run_suite(load_config(None, {"bound": 3, "mutate": mutate}))
print(calls[0], len(morphisms._VERDICTS))
"""

#: Runs the default suite at bound 2; prints the apply_basis memo's entries
#: and the intern table's nodes.
_COUNT_MEMO = """
from symalg import morphisms, spaces
from symalg.harness import load_config, run_suite

run_suite(load_config(None, {"bound": 2}))
print(sum(map(len, morphisms._MEMO.values())), len(spaces._TABLE))
"""

#: Runs the default suite at bound 2; prints the apply_basis memo's entries,
#: the distinct image objects it references, and its zero and one-term
#: coefficient-1 images that are not the shared object.
_COUNT_SHARED = """
import json
from symalg import morphisms
from symalg.elements import zero_element, singleton
from symalg.harness import load_config, run_suite

run_suite(load_config(None, {"bound": 2}))
images = [img for d in morphisms._MEMO.values() for img in d.values()]
unshared = [repr(img) for img in images
            if not img.coeffs and img is not zero_element(img.space)
            or len(img.coeffs) == 1 and img.coeffs[0][1] == 1
            and img is not singleton(img.space, img.coeffs[0][0])]
print(json.dumps({"entries": len(images), "distinct": len({id(img) for img in images}),
                  "unshared": unshared[:3]}))
"""

#: Runs the default suite at bound 2; prints, by class, the interned maps
#: other than ZeroM blocks that have no apply_basis memo entry: those built
#: and never evaluated.
_COUNT_UNEVALUATED = """
import json
from collections import Counter
from symalg import morphisms, spaces
from symalg.harness import load_config, run_suite

run_suite(load_config(None, {"bound": 2}))
print(json.dumps(Counter(type(n).__name__ for n in spaces._TABLE.values()
                         if isinstance(n, morphisms.MorExpr)
                         and type(n) is not morphisms.ZeroM and n not in morphisms._MEMO)))
"""

#: Runs the default suite at bound 2 twice; prints the entries each memo
#: gained on the second run and whether the stripped reports are equal.
_RERUN_MEMO = """
from symalg import morphisms
from symalg.harness import load_config, run_suite, strip_timing

def sizes():
    return sum(map(len, morphisms._MEMO.values())), len(morphisms._VERDICTS)

first = strip_timing(run_suite(load_config(None, {"bound": 2})))
before = sizes()
second = strip_timing(run_suite(load_config(None, {"bound": 2})))
after = sizes()
print(after[0] - before[0], after[1] - before[1], first == second)
"""

#: S(f) of x -> 2x on x^2000, with the memo cold; prints whether it was cold
#: and whether the image is 2^2000 x^2000.
_COLD_SYMF = """
from symalg import morphisms
from symalg.elements import singleton
from symalg.morphisms import SymF, apply_basis, linear_map_from_matrix
from symalg.spaces import GenIx, MonIx, base, sym

x = base("x", 1)
f = linear_map_from_matrix(x, x, [[2]])
x2000 = MonIx((GenIx(0),) * 2000)
print(SymF(f) not in morphisms._MEMO,
      apply_basis(SymF(f), x2000) == singleton(sym(x), x2000, 2 ** 2000))
"""

#: The work of two benchmark workloads (perfbench/sample.py): "suite" runs
#: the config in argv[2] at bound 4; "poly" loads the default registry and
#: decides the three naturality squares, each on its own dense map of B2, at
#: its bound.  Prints the memo's entries and the intern table's nodes.
_COUNT_WORKLOAD = """
import sys
from symalg import morphisms as M, spaces
from symalg.harness import load_config, run_suite

if sys.argv[1] == "suite":
    run_suite(load_config(sys.argv[2], {"bound": 4}))
else:
    load_config(None)
    x = spaces.base("b", 2)
    squares = (
        ([[2, 2], [1, 2]], 8, lambda f: (M.compose(M.Mult(x), M.SymF(f)),
                                         M.compose(M.TensorM(M.SymF(f), M.SymF(f)), M.Mult(x)))),
        ([[2, 2], [2, 2]], 10, lambda f: (M.compose(M.Deriv(x), M.TensorM(M.SymF(f), f)),
                                          M.compose(M.SymF(f), M.Deriv(x)))),
        ([[2, 1], [1, 2]], 10, lambda f: (M.compose(M.Mu(x), M.SymF(f)),
                                          M.compose(M.SymF(M.SymF(f)), M.Mu(x)))),
    )
    for matrix, bound, square in squares:
        assert M.check_equal(*square(M.linear_map_from_matrix(x, x, matrix)), bound).ok
print(sum(map(len, M._MEMO.values())), len(spaces._TABLE))
"""

#: The suite workload's user algebra, Q[x]/(x^3) on (1, x, x^2), and its
#: Euler derivation x d/dx.
_TRUNC3 = {
    "algebras": [{"name": "trunc3", "rank": 3,
                  "mult_table": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                 [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                                 [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
                  "unit": [1, 0, 0]}],
    "derivations": [{"name": "euler(trunc3)", "algebra": "trunc3",
                     "matrix": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]}],
}

#: Builds nodes whose fields equal valid ones under == but differ in type
#: (True and 1.0 for 1), then the valid ones; then, with the valid nodes in
#: the table, the public constructors' wrong types again.  Prints each
#: outcome of both passes.  Run in a fresh process, because a wrong node
#: would stay in the intern table.
_MIXED_FIELD_TYPES = """
import json
from symalg.spaces import GenIx, SumIx, UNIT_IX, _sum_ix, base, enumerate_basis

def outcomes(builds):
    out = {}
    for name, build in builds.items():
        try:
            out[name] = repr(build())
        except (TypeError, ValueError) as e:
            out[name] = type(e).__name__
    return out

wrong = {
    "GenIx(True)": lambda: GenIx(True),
    "GenIx(1.0)": lambda: GenIx(1.0),
    "GenIx('a')": lambda: GenIx("a"),
    "GenIx(-1)": lambda: GenIx(-1),
    "SumIx(True, UNIT_IX)": lambda: SumIx(True, UNIT_IX),
    "SumIx(1.0, UNIT_IX)": lambda: SumIx(1.0, UNIT_IX),
    "SumIx(-1, UNIT_IX)": lambda: SumIx(-1, UNIT_IX),
    "base('q', 1.0)": lambda: base("q", 1.0),
    "base('q', True)": lambda: base("q", True),
    "base('q', 0)": lambda: base("q", 0),
    "base(7, 1)": lambda: base(7, 1),
}
private = {
    "_sum_ix(True, UNIT_IX)": lambda: _sum_ix(True, UNIT_IX),
    "_sum_ix(1.0, UNIT_IX)": lambda: _sum_ix(1.0, UNIT_IX),
}
valid = {
    "GenIx(1)": lambda: GenIx(1),
    "SumIx(1, UNIT_IX)": lambda: SumIx(1, UNIT_IX),
    "basis of base('q', 1)": lambda: enumerate_basis(base("q", 1), 0),
}
print(json.dumps([outcomes({**wrong, **private, **valid}), outcomes({**valid, **wrong})]))
"""


#: The dual numbers on the basis (2, eps): the unit is 1/2 of the first
#: basis vector, so tensor products meet Fractions whose product is integral.
_SCALED_DUAL = {
    "algebras": [{"name": "dual2", "rank": 2,
                  "mult_table": [[[2, 0], [0, 2]], [[0, 2], [0, 0]]],
                  "unit": ["1/2", 0]}],
    "derivations": [{"name": "eps-scaling", "algebra": "dual2",
                     "matrix": [[0, 0], [0, 1]]}],
}


class TestRunner:
    def test_report_schema_fields(self):
        report = run_suite(SuiteConfig(bound=2, laws="D1"))
        assert report["schema"] == REPORT_SCHEMA
        assert report["config"]["schema"] == CONFIG_SCHEMA
        row = report["results"][0]
        for k in ["law", "anchor", "instance", "status", "tested",
                  "bound", "witness", "time_ms"]:
            assert k in row

    def test_empty_selection_is_exit_zero_shape(self):
        report = run_suite(SuiteConfig(bound=2, laws="no-such-law"))
        assert report["results"] == []
        assert report["summary"] == {"laws_run": 0, "checks": 0,
                                     "failures": 0, "aborted": False}

    def test_determinism_modulo_timing(self):
        cfg = lambda: SuiteConfig(bound=2, laws="nat.*", seed=7)
        a = strip_timing(run_suite(cfg()))
        b = strip_timing(run_suite(cfg()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_naturality_instances_not_results(self):
        a = run_suite(SuiteConfig(bound=2, laws="nat.*", seed=1))
        b = run_suite(SuiteConfig(bound=2, laws="nat.*", seed=2))
        assert a["summary"]["failures"] == b["summary"]["failures"] == 0

    def test_parallelism_key_is_accepted_and_runs_serially(self, tmp_path):
        reports = []
        for extra in ({}, {"parallelism": 4}):
            p = tmp_path / "c.json"
            p.write_text(json.dumps({"bound": 2, "laws": "monoid.*", **extra}))
            reports.append(strip_timing(run_suite(load_config(str(p)))))
        seq, par = reports
        assert seq["results"] == par["results"]
        assert seq["summary"] == par["summary"]
        assert seq["config"] == par["config"]
        assert par["config"]["parallelism"] == 1

    @pytest.mark.hash_order
    @pytest.mark.parametrize("bound", sorted(REPORT_DIGESTS))
    def test_report_digest_at_bound(self, bound):
        # The timing-stripped report of the default suite, as recorded from
        # the seed code; a speed-up must leave it byte-identical.
        report = strip_timing(run_suite(load_config(None, {"bound": bound})))
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[bound]

    def test_default_run_builds_each_family_once_per_bound(self, monkeypatch):
        # The derivation families are built once for the law bound and once
        # for the deep laws' bound - 1, not once per law.
        calls = [0]
        builtin_derivations = laws.builtin_derivations

        def counted(*args, **kwargs):
            calls[0] += 1
            return builtin_derivations(*args, **kwargs)

        monkeypatch.setattr(laws, "builtin_derivations", counted)
        report = run_suite(SuiteConfig(bound=3))
        assert report["summary"]["checks"] == 212
        assert calls[0] <= 2

    def test_default_run_check_equal_calls_in_a_fresh_process(self):
        # Each law decides only the equations it names, and no law decides
        # another's premise: 631 calls, of which 349 distinct equations are kept.
        assert _fresh_process(_COUNT_CHECKS).split() == ["631", "349"]

    def test_mutants_sequence_check_equal_calls_in_a_fresh_process(self):
        # The bound-3 run unmutated and then under each mutation.  A mutant
        # that is typed but built from other nodes keeps every report and
        # changes these counts.
        assert _fresh_process(_COUNT_CHECKS, *MUTATIONS).split() == ["3709", "402"]

    def test_builtin_table_algebras_are_built_once_per_process(self):
        # rationals, dual numbers and the square-zero extension, once each.
        assert int(_fresh_process(_COUNT_TABLE_ALGEBRAS)) <= 3

    def test_interning_keeps_int_fields_apart_from_bool_and_float(self):
        # Intern keys compare with ==, so a GenIx(True) or a base("q", 1.0)
        # built first would be returned for GenIx(1) or base("q", 1), and
        # GenIx(True) would return an existing GenIx(1).  Only the private
        # constructors skip the check on a hit.
        wrong = {
            "GenIx(True)": "TypeError",
            "GenIx(1.0)": "TypeError",
            "GenIx('a')": "TypeError",
            "GenIx(-1)": "ValueError",
            "SumIx(True, UNIT_IX)": "TypeError",
            "SumIx(1.0, UNIT_IX)": "TypeError",
            "SumIx(-1, UNIT_IX)": "ValueError",
            "base('q', 1.0)": "TypeError",
            "base('q', True)": "TypeError",
            "base('q', 0)": "ValueError",
            "base(7, 1)": "TypeError",
        }
        valid = {
            "GenIx(1)": "GenIx(index=1)",
            "SumIx(1, UNIT_IX)": "SumIx(branch=1, inner=UnitIx())",
            "basis of base('q', 1)": "[GenIx(index=0)]",
        }
        first, second = json.loads(_fresh_process(_MIXED_FIELD_TYPES))
        assert first == {**wrong, "_sum_ix(True, UNIT_IX)": "TypeError",
                         "_sum_ix(1.0, UNIT_IX)": "TypeError", **valid}
        assert second == {**valid, **wrong}

    @pytest.mark.hash_order
    def test_memo_and_intern_table_hold_the_same_work(self):
        # The counts the process-wide evaluation memo and intern table had
        # after this run; neither may depend on hash order.
        assert _fresh_process(_COUNT_MEMO).split() == ["13005", "3344"]

    @pytest.mark.hash_order
    def test_benchmark_workloads_do_the_same_work(self, tmp_path):
        # What the suite and poly workloads memoize and intern: a faster
        # evaluator must build the same images and nodes, no more.
        p = tmp_path / "trunc3.json"
        p.write_text(json.dumps(_TRUNC3))
        assert _fresh_process(_COUNT_WORKLOAD, "suite", str(p)).split() == ["67219", "12028"]
        assert _fresh_process(_COUNT_WORKLOAD, "poly").split() == ["7299", "1953"]

    @pytest.mark.hash_order
    def test_memo_shares_zero_and_basis_images(self):
        # Every zero image is its space's one zero element and every image
        # that is one basis vector with coefficient 1 is that vector's one
        # shared element, so the memo's entries reference far fewer objects.
        got = json.loads(_fresh_process(_COUNT_SHARED))
        assert got == {"entries": 13005, "distinct": 2964, "unshared": []}

    @pytest.mark.hash_order
    def test_maps_built_and_never_evaluated(self):
        # Matrix skips its ZeroM blocks by design, and boxtimes_mor builds a
        # ZeroM for a block over ZERO.  Of the rest, 12 Ids are the Id side
        # of a whiskering, which the whisker rule never evaluates.  8
        # Composes are second components over ZERO of arrow.D1 and
        # arrow.monoidmorph.unit, which check_equal decides on no basis
        # vector.  A lifted object built only to read its spaces, or a
        # diagram a factory builds and does not validate, would add to these.
        got = json.loads(_fresh_process(_COUNT_UNEVALUATED))
        assert got == {"Compose": 8, "Id": 12}

    def test_second_identical_run_adds_no_memo_entry(self):
        # Every image and every verdict of the second run is a hit.
        assert _fresh_process(_RERUN_MEMO).split() == ["0", "0", "True"]

    def test_cold_symf_on_a_degree_2000_monomial_stays_shallow(self):
        # Each monomial's image is its prefix's times f of the last factor; a
        # prefix walk one rule per factor deep would raise RecursionError.  A
        # fresh process keeps the memo cold and its 2,000 prefixes out of
        # this one.
        assert _fresh_process(_COLD_SYMF).split() == ["True", "True"]

    @pytest.mark.hash_order
    def test_element_invariant_holds_for_every_built_element(self, tmp_path):
        # Fast paths build elements without element(): their keys must still
        # be strictly sorted basis vectors of the element's own space, with no
        # zero and no integral Fraction.
        p = tmp_path / "scaled_dual.json"
        p.write_text(json.dumps(_SCALED_DUAL))
        out = json.loads(_fresh_process(_CHECK_ELEMENTS, str(p)))
        assert out["built"] > 3_000 and out["images"] > 3_000
        assert out["bad"] == []

    def test_basis_over_zero_is_walked_to_weight_0_only(self):
        # seely0.iso.r is decided on S(0), whose one basis vector, the empty
        # monomial, has weight 0: a huge bound must not walk one empty level
        # per weight up to it.
        start = time.perf_counter()
        report = run_suite(SuiteConfig(bound=10**6, laws="seely0.iso.r"))
        assert time.perf_counter() - start < 1
        assert [(row["status"], row["tested"]) for row in report["results"]] == [("equal", 1)]

    def test_budget_aborts_politely(self):
        cfg = SuiteConfig(bound=3, laws="*", budget=1e-9)
        report = run_suite(cfg)
        assert report["summary"]["aborted"]
        # the run stops early but still reports what it saw
        assert report["results"]

    def test_mutation_failures_carry_witnesses(self):
        report = run_suite(SuiteConfig(bound=3, laws="D2",
                                       mutate="leibniz-drop"))
        assert report["summary"]["failures"] > 0
        for row in report["results"]:
            if row["status"] != "equal":
                assert row["witness"]

    def test_render_summary_mentions_failures(self):
        report = run_suite(SuiteConfig(bound=3, laws="D2",
                                       mutate="leibniz-drop"))
        text = render_summary(report)
        assert "FAIL D2" in text and "failures=3" in text


class TestCLI:
    def test_check_pass_exit_zero(self, capsys):
        assert main(["check", "--laws", "D1", "--bound", "2"]) == 0
        assert "PASS D1" in capsys.readouterr().out

    def test_check_failure_exit_one(self, capsys):
        code = main(["check", "--laws", "D2", "--bound", "3",
                     "--mutate", "leibniz-drop"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", "--config", str(p)]) == 2

    @pytest.mark.parametrize("raw", [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
        pytest.param(b'{"seed": ' + b"7" * 5000 + b"}", id="int-over-digit-limit"),
    ])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, raw):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        assert main(["check", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("coefficient", ["1e3", "0.5", "1_0", "1e999999999"])
    def test_rational_is_an_integer_or_p_over_q(self, tmp_path, coefficient):
        # Fraction would parse each of these, and would not finish the last one.
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"algebras": [
            {"name": "q", "rank": 1, "mult_table": [[[1]]], "unit": [coefficient]}]}))
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="bad rational"):
            load_config(str(p))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("field, value", [
        *(pytest.param(f, "abc", id=f) for f in ("bound", "seed", "parallelism", "budget")),
        # Integers must be JSON integers: no truncation, no bools, no strings.
        ("bound", 2.9), ("bound", True), ("bound", "3"), ("seed", 7.5),
        ("seed", False), ("parallelism", 4.0),
        # A budget must be a finite positive number.
        ("budget", "nan"), ("budget", "30"), ("budget", True),
        pytest.param("budget", float("nan"), id="budget-NaN"),
        ("budget", float("inf")), ("budget", 0),
        # A law selection must be a glob string, not a list of names.
        pytest.param("laws", ["D1"], id="laws-list"),
    ])
    def test_non_numeric_setting_exit_two(self, tmp_path, capsys, field, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({field: value}))
        assert main(["check", "--config", str(p)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_bad_budget_flag_exit_two(self, capsys, budget):
        assert main(["check", "--laws", "D1", "--bound", "1", "--budget", budget]) == 2
        assert "budget" in capsys.readouterr().err

    def test_derivation_matrix_of_wrong_shape_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "algebras": [{"name": "q1", "rank": 1, "mult_table": [[[1]]], "unit": [1]}],
            "derivations": [{"name": "d", "algebra": "q1", "matrix": [[0, 0], [0, 0]]}],
        }))
        assert main(["check", "--config", str(p)]) == 2
        assert "matrix must be 1x1" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"algebras": [{"name": "z", "rank": 0, "mult_table": [], "unit": []}]},
        {"algebras": 5},
        {"derivations": 5},
        {"algebras": [{"name": "q", "rank": 1.5, "mult_table": [[[1]]], "unit": [1]}]},
        {"algebras": [{"name": "q", "rank": True, "mult_table": [[[1]]], "unit": [1]}]},
        {"algebras": [{"name": "q", "rank": "1", "mult_table": [[[1]]], "unit": [1]}]},
        # A JSON boolean is not a rational coefficient.
        {"algebras": [{"name": "q", "rank": 1, "mult_table": [[[1]]], "unit": [True]}]},
        {"algebras": [{"name": "q", "rank": 1, "mult_table": [[[True]]], "unit": [1]}]},
        {"derivations": [{"name": "d", "algebra": "rationals", "matrix": [[False]]}]},
    ])
    def test_malformed_algebra_section_exit_two(self, tmp_path, config):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        assert main(["check", "--config", str(p)]) == 2

    @pytest.mark.parametrize("config, message", [
        ([], "config must be a JSON object"),
        ("x", "config must be a JSON object"),
        ({"bound": 0}, "bound must be >= 1"),
        ({"algebras": [{"name": "rationals", "rank": 1, "mult_table": [[[1]]], "unit": [1]}]},
         "algebra name 'rationals' already taken"),
        ({"algebras": [{"name": "q", "rank": 1, "mult_table": [[[1]]], "unit": [1]}] * 2},
         "algebra name 'q' already taken"),
        ({"derivations": [5]}, "derivation entry malformed"),
        ({"derivations": [{"name": "d", "algebra": "rationals"}]}, "derivation entry malformed"),
        ({"derivations": [{"name": "d", "algebra": "nope", "matrix": [[0]]}]},
         "derivation entry malformed"),
        ({"derivations": [{"name": "d", "algebra": "rationals", "matrix": [[1]]}]},
         "derivation 'd' rejected: diagram 'derivation.constant'"),
        ({"algebras": [{"name": "q", "rank": 2, "mult_table": [[[1, 0]]], "unit": [1, 0]}]},
         "algebra 'q': mult_table must be 2x2"),
        ({"algebras": [5]}, "algebra entry malformed"),
        ({"algebras": [{"name": "q", "rank": 1, "unit": [1]}]}, "algebra entry malformed"),
    ])
    def test_config_error_message_exit_two(self, tmp_path, capsys, config, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        assert main(["check", "--config", str(p)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [
        ["list-laws"], ["demo"], ["check", "--laws", "D1", "--bound", "1", "--json"],
    ], ids=lambda c: c[0])
    def test_closed_stdout_is_not_an_error(self, tmp_path, command, unbuffered):
        # As in `symalg list-laws | true`: the reader is gone before the process writes.
        report = tmp_path / "r.json"
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        args = [*command, str(report)] if command[-1] == "--json" else command
        proc = subprocess.Popen([sys.executable, "-m", "symalg.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.communicate(timeout=300)[1].decode()
        assert "BrokenPipeError" not in err and "Traceback" not in err, err
        assert proc.returncode == 0
        if command[0] == "check":
            assert json.loads(report.read_text())["summary"]["checks"] > 0

    @pytest.mark.parametrize("names", [["e", "e"], *([n] for n in BUILTIN_DERIVATIONS)])
    def test_duplicate_derivation_name_exit_two(self, tmp_path, capsys, names):
        # Two rows with one law and instance name would make the report key ambiguous.
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"derivations": [
            {"name": n, "algebra": "rationals", "matrix": [[0]]} for n in names]}))
        assert main(["check", "--config", str(p), "--laws", "D1"]) == 2
        assert f"derivation name {names[-1]!r} already taken" in capsys.readouterr().err

    def test_distinct_derivation_names_load(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"derivations": [
            {"name": n, "algebra": "rationals", "matrix": [[0]]} for n in ("e", "f")]}))
        assert [n for n, _ in load_config(str(p)).extra_derivations] == ["e", "f"]

    @pytest.mark.parametrize("unit", [[1, 0], [], "1"])
    def test_unit_vector_not_of_rank_length_exit_two(self, tmp_path, capsys, unit):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "algebras": [{"name": "q1", "rank": 1, "mult_table": [[[1]]], "unit": unit}],
        }))
        assert main(["check", "--config", str(p)]) == 2
        assert "must list 1 coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"algebras": [{"name": [1], "rank": 1, "mult_table": [[[1]]], "unit": [1]}]},
        {"algebras": [{"name": 7, "rank": 1, "mult_table": [[[1]]], "unit": [1]}]},
        {"derivations": [{"name": {"d": 1}, "algebra": "rationals", "matrix": [[0]]}]},
    ])
    def test_non_string_name_exit_two(self, tmp_path, capsys, config):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        assert main(["check", "--config", str(p)]) == 2
        assert "name must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir", "empty"])
    def test_unwritable_report_path_exit_two(self, tmp_path, capsys, where):
        path = {"missing-dir": tmp_path / "nonexistent" / "r.json",
                "a-dir": tmp_path, "empty": ""}[where]
        assert main(["check", "--laws", "D1", "--bound", "1", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # it fails before the run
        assert err.startswith("config error: ") and str(path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_report_write_failing_after_the_run_exit_two(self, capsys):
        # /dev/full opens, so the path passes the check before the run; the
        # write itself fails with ENOSPC.
        assert main(["check", "--laws", "D1", "--bound", "1", "--json", "/dev/full"]) == 2
        out, err = capsys.readouterr()
        assert "PASS D1" in out
        assert err.startswith("config error: cannot write report /dev/full")
        assert err.count("\n") == 1

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "--laws", "D1", "--bound", "2",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == REPORT_SCHEMA

    def test_list_laws_prints_all(self, capsys):
        assert main(["list-laws"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 40
        assert "D4" in out

    def test_list_laws_prints_on_an_ascii_stdout(self, monkeypatch):
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        run = _fresh_run("import sys; from symalg.cli import main; sys.exit(main(['list-laws']))")
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
        assert len(run.stdout.splitlines()) == len(list_laws()) == 62

    def test_demo_prints_worked_examples(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "d(x^2)" in out
        assert "D[x^2]" in out
        assert "Seely round trip" in out
        assert "round trip identical: True" in out


#: Replaces the evaluation rule named in argv[1] by a broken one, then runs
#: `symalg check --bound 3 --json argv[2]` and `run_suite` at bound 3; prints
#: the suite's summary and instance names as the last line of stdout and
#: exits with the check's code.
_BROKEN_RULE = """
import json, sys
from symalg.cli import main
from symalg.elements import element, singleton
from symalg.harness import SuiteConfig, run_suite
from symalg.morphisms import RULES, Deriv, Mu, Mult
from symalg.spaces import monomial

deriv = RULES[Deriv]
BROKEN = {
    # A factor repeated k times counts 3k - 2 times, not k.
    "Deriv": (Deriv, lambda m, bv: element(m.cod(), {w: 3 * c - 2
                                                    for w, c in deriv(m, bv).coeffs})),
    # The last inner monomial is dropped.
    "Mu": (Mu, lambda m, bv: singleton(m.cod(), monomial(
        [g for inner in bv.parts[:-1] for g in inner.parts]))),
    # The second factor's last generator is dropped.
    "Mult": (Mult, lambda m, bv: singleton(m.cod(), monomial(
        bv.parts[0].parts + bv.parts[1].parts[:-1]))),
}
cls, rule = BROKEN[sys.argv[1]]
RULES[cls] = rule
code = main(["check", "--bound", "3", "--json", sys.argv[2]])
report = run_suite(SuiteConfig(bound=3))
print(json.dumps({"summary": report["summary"],
                  "instances": sorted({row["instance"] for row in report["results"]})}))
sys.exit(code)
"""


class TestBrokenRules:
    """An evaluator rule that breaks a built-in structure's defining diagram
    gives failing rows and exit 1, never a traceback."""

    # Deriv breaks the built-in derivations' Leibniz rule, Mu the free
    # algebras' diagrams and the lifted monad's squares, Mult the table
    # algebras that load_config validates.
    @pytest.mark.parametrize("rule,diagrams", [
        ("Deriv", {"<derivation.leibniz>"}),
        ("Mu", {"<algebra.assoc>", "<algebra.unit>", "<arrow.square>"}),
        ("Mult", {"<module.unit>", "<table.comm>"}),
    ])
    def test_check_fails_with_rows_in_a_fresh_process(self, tmp_path, rule, diagrams):
        path = tmp_path / "report.json"
        run = _fresh_run(_BROKEN_RULE, rule, str(path))
        assert run.returncode == 1, run.stderr
        assert "Traceback" not in run.stderr
        suite = json.loads(run.stdout.splitlines()[-1])
        assert suite["summary"]["failures"] > 0
        assert {i for i in suite["instances"] if i.startswith("<")} == diagrams
        if rule == "Deriv":  # the built-in algebras load, so the check runs and reports
            assert json.loads(path.read_text())["summary"]["failures"] > 0
        else:  # a built-in table algebra fails while the config loads
            assert run.stderr.startswith("check failed: built-in structure: diagram ")
            assert run.stderr.count("\n") == 1 and "witness" in run.stderr


#: Collects the cycles the import left, turns the cyclic collector off and
#: makes the runs named by argv[1]; prints what gc.collect() freed after each
#: and the diagram rows of the last.  "runs" is a default bound-3 run, one
#: under each mutation, and the config in argv[2] at bound 2; "broken" is a
#: bound-3 run under TestBrokenRules' broken Deriv rule, whose built-in
#: derivations fail their Leibniz diagram.
_CYCLIC_GARBAGE = """
import gc, json, sys
from symalg.elements import element
from symalg.harness import load_config, run_suite
from symalg.laws import MUTATIONS
from symalg.morphisms import RULES, Deriv

gc.collect()
gc.disable()
if sys.argv[1] == "runs":
    configs = [(None, {"bound": 3, "mutate": m}) for m in (None, *MUTATIONS)]
    configs.append((sys.argv[2], {"bound": 2}))
else:
    deriv = RULES[Deriv]
    RULES[Deriv] = lambda m, bv: element(m.cod(), {w: 3 * c - 2
                                                  for w, c in deriv(m, bv).coeffs})
    configs = [(None, {"bound": 3})]
freed = []
for path, overrides in configs:
    report = run_suite(load_config(path, overrides))
    freed.append(gc.collect())
print(json.dumps({"freed": freed, "diagrams": sorted(
    {row["instance"] for row in report["results"] if row["instance"].startswith("<")})}))
"""


class TestCollectorPause:
    """run_suite pauses the cyclic collector, which is safe only because runs
    make no cyclic garbage, and gives the caller back its collector state."""

    def test_runs_make_no_cyclic_garbage(self, tmp_path):
        p = tmp_path / "trunc3.json"
        p.write_text(json.dumps(_TRUNC3))
        out = json.loads(_fresh_process(_CYCLIC_GARBAGE, "runs", str(p)))
        assert out == {"freed": [0] * (len(MUTATIONS) + 2), "diagrams": []}

    def test_a_failed_structure_makes_no_cyclic_garbage(self):
        out = json.loads(_fresh_process(_CYCLIC_GARBAGE, "broken"))
        assert out == {"freed": [0], "diagrams": ["<derivation.leibniz>"]}

    @pytest.mark.parametrize("raised", [None, RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("collecting", [True, False])
    def test_caller_state_is_restored(self, monkeypatch, collecting, raised):
        seen = []

        def run(law, bound, ctx):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return []

        monkeypatch.setattr(laws.Law, "run", run)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if raised is None:
                run_suite(SuiteConfig(bound=1, laws="D1"))
            else:
                with pytest.raises(raised):
                    run_suite(SuiteConfig(bound=1, laws="D1"))
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
        assert after is collecting


# Any JSON value; NaN and infinities are not JSON.
_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _mostly(valid, other=_json):
    """Mostly `valid`, sometimes `other`, so that many examples get past the
    first check and reach the deeper ones."""
    return st.one_of([valid] * 3 + [other])


_junk_keys = _mostly(st.just({}), st.dictionaries(st.text(max_size=4), _json,
                                                  min_size=1, max_size=1))
_coefficient = (st.integers(-1, 2) | st.sampled_from(["1", "1/2", "-3", "1/0", "x"])
                | st.booleans())


def _lists_a_bool(x) -> bool:
    return isinstance(x, list) and any(isinstance(v, bool) or _lists_a_bool(v) for v in x)


def _bool_coefficient(config) -> bool:
    """Whether an algebra's unit or table, or a derivation's matrix, holds a
    JSON boolean where a coefficient goes: the loader must reject that."""
    return any(isinstance(entry, dict) and _lists_a_bool(entry.get(field))
               for key, field in (("algebras", "unit"), ("algebras", "mult_table"),
                                  ("derivations", "matrix"))
               if isinstance(config.get(key), list)
               for entry in config[key])


def _vectors(n):
    return st.lists(_coefficient, min_size=n, max_size=n)


@st.composite
def _algebra_entry(draw):
    r = draw(st.integers(0, 3))
    table = st.lists(st.lists(_vectors(r), min_size=r, max_size=r), min_size=r, max_size=r)
    entry = {"name": draw(_mostly(st.text(max_size=6))),
             "rank": draw(_mostly(st.just(r))),
             "mult_table": draw(_mostly(table)),
             "unit": draw(_mostly(_vectors(r)))}
    return {**entry, **draw(_junk_keys)}


@st.composite
def _derivation_entry(draw):
    n = draw(st.integers(1, 3))
    entry = {"name": draw(_mostly(st.text(max_size=6))),
             "algebra": draw(_mostly(st.sampled_from([a.name for a in builtin_algebras()]))),
             "matrix": draw(_mostly(st.lists(_vectors(n), min_size=n, max_size=n)))}
    return {**entry, **draw(_junk_keys)}


_config = st.builds(lambda known, junk: {**known, **junk}, st.fixed_dictionaries({}, optional={
    "schema": _mostly(st.just(CONFIG_SCHEMA)),
    "bound": _mostly(st.integers(1, 3)),
    "laws": _mostly(st.text(max_size=4)),
    "seed": _mostly(st.integers()),
    "budget": _mostly(st.floats(1e-3, 1e3) | st.integers(1)),
    "parallelism": _mostly(st.integers()),
    "mutate": _mostly(st.sampled_from(MUTATIONS)),
    "algebras": _mostly(st.lists(_mostly(_algebra_entry()), max_size=2)),
    "derivations": _mostly(st.lists(_mostly(_derivation_entry() | st.just("zero")),
                                    max_size=2)),
}), _junk_keys)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_config)
# Inputs that an earlier loader crashed on or misread, pinned so they always run:
@example(config={"algebras": [{"name": [1], "rank": 1, "mult_table": [[[1]]], "unit": [1]}]})
@example(config={"algebras": [{"name": "a", "rank": 1, "mult_table": [[[1]]], "unit": ["1/0"]}]})
@example(config={"budget": 10 ** 400})
@example(config={"laws": ["D1"]})
@example(config={"algebras": [{"name": "a", "rank": 1, "mult_table": [[[1]]], "unit": [True]}]})
@example(config={"derivations": [{"name": "e", "algebra": "rationals", "matrix": [[0]]}] * 2})
@example(config={"algebras": [{"name": "a", "rank": 1, "mult_table": [[[1]]], "unit": ["1e3"]}]})
@example(config={"mutate": []})
def test_fuzzed_config_exits_with_a_documented_code(tmp_path, capsys, config):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(config))
    # The config's own laws are loaded when it has them; a glob that matches
    # the whole registry is cheap at bound 1.
    args = ["check", "--config", str(p), "--bound", "1"]
    if "laws" not in config:
        args += ["--laws", "D1"]
    laws = config.get("laws")
    # A laws value that is neither null nor a string is a config error, and
    # so is a boolean coefficient.
    bad = (laws is not None and not isinstance(laws, str)) or _bool_coefficient(config)
    expected = (2,) if bad else (0, 1, 2)
    assert main(args) in expected
    capsys.readouterr()
