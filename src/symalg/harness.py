"""Suite runner: configuration, law selection, JSON reports.

The runner executes registered laws over their instances and produces a
report that is deterministic for a fixed (config, seed) apart from the
timing fields.  Configuration and reports are JSON with stable field
names; rationals serialize as "p/q" strings.

Report schema (``symalg-report/1``), a compatibility surface:

- ``schema``: the literal string above.
- ``config``: the effective configuration (bound, laws, mutate, seed,
  budget, parallelism).  Laws always run serially, so ``parallelism`` is
  1; a config may still set it.
- ``results``: one object per (law, instance) check with fields ``law``,
  ``anchor``, ``instance``, ``status`` ("equal" or "counterexample"),
  ``tested``, ``bound``, ``witness`` (string or null) and ``time_ms``.
  A law whose instances need a structure that fails a defining diagram has
  one ``counterexample`` row, ``<diagram>`` (say ``<derivation.leibniz>``),
  with that diagram's ``tested``, ``bound`` and ``witness``.
- ``summary``: ``laws_run``, ``checks``, ``failures``, ``aborted``.
"""

from __future__ import annotations

import fnmatch
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .spaces import base, rank, GenIx
from .elements import Element, element
from .derivations import SAlgebra, table_algebra, a_module, derivation, builtin_algebras
from .morphisms import InvalidStructureError, linear_map_from_matrix
from .laws import registry, LawContext, MUTATIONS, BUILTIN_DERIVATIONS

CONFIG_SCHEMA = "symalg-config/1"
REPORT_SCHEMA = "symalg-report/1"


class ConfigError(ValueError):
    pass


#: An integer or "p/q": with no exponent, int's digit limit bounds its size.
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _rational(x) -> int | Fraction:
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ConfigError(f"bad rational {x!r}: rationals are integers or 'p/q' strings")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad rational {x!r}") from e
    if type(x) is int:  # a JSON true/false is a bool, not a coefficient
        return x
    raise ConfigError(f"rationals must be integers or 'p/q' strings, got {x!r}")


@dataclass
class SuiteConfig:
    bound: int = 3
    laws: str = "*"
    mutate: str | None = None
    seed: int = 0
    budget: float | None = None
    extra_algebras: tuple = ()
    extra_derivations: tuple = ()

    def as_json(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "bound": self.bound,
            "laws": self.laws,
            "mutate": self.mutate,
            "seed": self.seed,
            "budget": self.budget,
            "parallelism": 1,
        }


def _is_square(table, n: int) -> bool:
    return (isinstance(table, list) and len(table) == n
            and all(isinstance(row, list) and len(row) == n for row in table))


def _vector_element(space, coeffs) -> Element:
    n = rank(space)
    if not isinstance(coeffs, list) or len(coeffs) != n:
        raise ConfigError(f"vector {coeffs!r} must list {n} coefficients")
    return element(space, {GenIx(i): _rational(c) for i, c in enumerate(coeffs)})


def _require_name(kind: str, name) -> None:
    if not isinstance(name, str):
        raise ConfigError(f"{kind} name must be a string, got {name!r}")


def _integer(what: str, x) -> int:
    """x itself, if it is a JSON integer; a bool or a float is not one."""
    if type(x) is not int:
        raise ConfigError(f"{what} must be an integer, got {x!r}")
    return x


def _budget(x) -> float:
    """x as seconds, if it is a JSON number that is positive and fits a float."""
    # NaN fails both comparisons; an integer above the float range fails the second.
    if type(x) not in (int, float) or not 0 < x <= sys.float_info.max:
        raise ConfigError(f"budget must be a finite positive number, got {x!r}")
    return float(x)


def _reject_unknown(entry: dict, known: set, what: str) -> None:
    unknown = set(entry) - known
    if unknown:
        raise ConfigError(f"{what}: {sorted(unknown)}")


def _load_algebra(entry: dict) -> SAlgebra:
    try:
        name = entry["name"]
        r = entry["rank"]
        table = entry["mult_table"]
        unit = entry["unit"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"algebra entry malformed: {entry!r}") from e
    _require_name("algebra", name)
    _reject_unknown(entry, {"name", "rank", "mult_table", "unit"},
                    f"algebra {name!r}: unknown keys")
    if _integer(f"algebra {name!r}: rank", r) < 1:
        raise ConfigError(f"algebra {name!r}: rank must be >= 1")
    space = base(name, r)
    if not _is_square(table, r):
        raise ConfigError(f"algebra {name!r}: mult_table must be {r}x{r}")
    elems = tuple(tuple(_vector_element(space, cell) for cell in row)
                  for row in table)
    try:
        return table_algebra(name, elems, _vector_element(space, unit))
    except InvalidStructureError as e:
        raise ConfigError(f"algebra {name!r} rejected: {e}") from e


def _load_derivation(entry, algebras: dict):
    """A derivation entry: {"name", "algebra", "matrix"} acting on the
    named table algebra as a module over itself."""
    try:
        name = entry["name"]
        alg = algebras[entry["algebra"]]
        matrix = entry["matrix"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"derivation entry malformed: {entry!r}") from e
    _require_name("derivation", name)
    _reject_unknown(entry, {"name", "algebra", "matrix"}, f"derivation {name!r}: unknown keys")
    a = alg.carrier
    n = rank(a)
    if not _is_square(matrix, n):
        raise ConfigError(f"derivation {name!r}: matrix must be {n}x{n}")
    d = linear_map_from_matrix(a, a, [[_rational(x) for x in row] for row in matrix])
    try:
        module = a_module(alg, alg.mult())
        return name, derivation(module, d)
    except InvalidStructureError as e:
        raise ConfigError(f"derivation {name!r} rejected: {e}") from e


def load_config(path: str | None = None, overrides: dict | None = None) -> SuiteConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        # ValueError: bad JSON, not UTF-8, or an int over the digit limit.
        except (OSError, ValueError, RecursionError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = raw.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r}")
    _reject_unknown(raw, {"schema", "bound", "laws", "mutate", "seed", "budget",
                          "parallelism", "algebras", "derivations"}, "unknown config keys")

    cfg = SuiteConfig()
    merged = dict(raw)
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})

    if "bound" in merged:
        cfg.bound = _integer("bound", merged["bound"])
        if cfg.bound < 1:
            raise ConfigError("bound must be >= 1")
    if "laws" in merged and merged["laws"] is not None:
        if not isinstance(merged["laws"], str):
            raise ConfigError(f"laws must be a string pattern, got {merged['laws']!r}")
        cfg.laws = merged["laws"]
    if "mutate" in merged and merged["mutate"] is not None:
        if merged["mutate"] not in MUTATIONS:
            raise ConfigError(
                f"unknown mutation {merged['mutate']!r}; known: {list(MUTATIONS)}")
        cfg.mutate = merged["mutate"]
    if "seed" in merged:
        cfg.seed = _integer("seed", merged["seed"])
    if "budget" in merged and merged["budget"] is not None:
        cfg.budget = _budget(merged["budget"])
    if "parallelism" in merged:
        _integer("parallelism", merged["parallelism"])  # accepted; laws run serially

    for key in ("algebras", "derivations"):
        if not isinstance(raw.get(key, []), list):
            raise ConfigError(f"{key} must be a list")
    algebras = {a.name: a for a in builtin_algebras()}
    extra_algs = []
    for entry in raw.get("algebras", []):
        alg = _load_algebra(entry)
        if alg.name in algebras:
            raise ConfigError(f"algebra name {alg.name!r} already taken")
        algebras[alg.name] = alg
        extra_algs.append(alg)
    extra_ders = []
    names = set(BUILTIN_DERIVATIONS)
    for entry in raw.get("derivations", []):
        if entry == "zero":
            continue  # the zero derivations of the built-ins always run
        name, der = _load_derivation(entry, algebras)
        if name in names:
            raise ConfigError(f"derivation name {name!r} already taken")
        names.add(name)
        extra_ders.append((name, der))
    cfg.extra_algebras = tuple(extra_algs)
    cfg.extra_derivations = tuple(extra_ders)
    return cfg


def select_laws(pattern: str):
    return [(n, law) for n, law in registry().items() if fnmatch.fnmatchcase(n, pattern)]


def run_suite(cfg: SuiteConfig) -> dict:
    ctx = LawContext(mutation=cfg.mutate, seed=cfg.seed,
                     extra_algebras=cfg.extra_algebras,
                     extra_derivations=cfg.extra_derivations)
    selected = select_laws(cfg.laws)

    results = []
    aborted = False
    for name, law in selected:
        t0 = time.perf_counter()
        try:
            checked = law.run(cfg.bound, ctx)
        except InvalidStructureError as e:
            checked = [(f"<{e.diagram}>", e.verdict)]
        rows = []
        for instance, v in checked:
            rows.append({
                "law": name,
                "anchor": law.anchor,
                "instance": instance,
                "status": v.status,
                "tested": v.tested_count,
                "bound": v.weight_bound,
                "witness": None if v.witness is None else repr(v.witness),
            })
        elapsed = (time.perf_counter() - t0) * 1000.0
        for row in rows:
            row["time_ms"] = round(elapsed / max(1, len(rows)), 3)
        results.extend(rows)
        if cfg.budget is not None and elapsed > cfg.budget * 1000.0:
            aborted = True
            break

    failures = sum(1 for r in results if r["status"] != "equal")
    return {
        "schema": REPORT_SCHEMA,
        "config": cfg.as_json(),
        "results": results,
        "summary": {
            "laws_run": len({r["law"] for r in results}),
            "checks": len(results),
            "failures": failures,
            "aborted": aborted,
        },
    }


def strip_timing(report: dict) -> dict:
    """The report with timing fields removed, for determinism comparisons."""
    out = json.loads(json.dumps(report))
    for row in out["results"]:
        row.pop("time_ms", None)
    return out


def render_summary(report: dict) -> str:
    lines = []
    for row in report["results"]:
        mark = "PASS" if row["status"] == "equal" else "FAIL"
        line = (f"{mark} {row['law']}[{row['instance']}] "
                f"tested={row['tested']} bound={row['bound']}")
        if row["witness"]:
            line += f" witness={row['witness']}"
        lines.append(line)
    s = report["summary"]
    lines.append(f"laws={s['laws_run']} checks={s['checks']} "
                 f"failures={s['failures']}"
                 + (" ABORTED (budget exceeded)" if s["aborted"] else ""))
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
