"""Command line interface: check, list-laws, demo.

Exit codes: 0 all selected laws pass, 1 any law or built-in structure fails
(or the budget was exceeded), 2 configuration or schema error, or a report
that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError, load_config, run_suite, render_summary, write_report,
)
from .laws import MUTATIONS, list_laws
from .morphisms import InvalidStructureError


def _cmd_check(args) -> int:
    try:
        cfg = load_config(args.config, overrides={
            "bound": args.bound,
            "laws": args.laws,
            "mutate": args.mutate,
            "budget": args.budget,
        })
        if args.json is not None:
            open(args.json, "a").close()  # an unwritable report path fails before the run
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InvalidStructureError as e:  # a built-in algebra, not the config
        print(f"check failed: built-in structure: {e}", file=sys.stderr)
        return 1
    report = run_suite(cfg)
    print(render_summary(report))
    if args.json is not None:
        try:
            write_report(report, args.json)
        except OSError as e:
            print(f"config error: cannot write report {args.json}: {e}", file=sys.stderr)
            return 2
    if report["summary"]["failures"] or report["summary"]["aborted"]:
        return 1
    return 0


def _cmd_list_laws(args) -> int:
    for name, anchor in list_laws():
        print(f"{name} -- {anchor}")  # ASCII: any stdout encoding can print it
    return 0


def _cmd_demo(args) -> int:
    from .spaces import base, sym, build_sum, MonIx, GenIx
    from .elements import singleton, elem_add, elem_tensor
    from .morphisms import Deriv, Chi, ChiInv, apply, apply_basis
    from .derivations import formal_derivative
    from .tangent import tangent_derivation, monomial_power_map, kleisli_diff

    a = base("x", 1)
    x2 = MonIx((GenIx(0), GenIx(0)))
    print("d(x^2) =", apply_basis(Deriv(a), x2))

    d = formal_derivative()
    td = tangent_derivation(d)
    print("tangent of d/dx on (x^2, x^3):")
    aa = td.algebra.carrier
    x3 = MonIx((GenIx(0),) * 3)
    sample = elem_add(singleton(aa, build_sum(aa, 0, x2)),
                      singleton(aa, build_sum(aa, 1, x3)))
    print("  D[eps](x^2 + x^3 eps) =", apply(td.d, sample))

    df = kleisli_diff(monomial_power_map(2))
    print("D[x^2] at the generator =", apply_basis(df, GenIx(0)))

    b = base("y", 1)
    p = MonIx((GenIx(0),))
    pq = elem_tensor(singleton(sym(a), x2), singleton(sym(b), p))
    merged = apply(Chi(a, b), pq)
    back = apply(ChiInv(a, b), merged)
    print("Seely round trip on x^2 (x) y:")
    print("  merged =", merged)
    print("  split  =", back)
    print("  round trip identical:", back == pq)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symalg",
        description="Exact law checker for the symmetric-algebra "
                    "differential calculus.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the law suite")
    c.add_argument("--config", default=None, help="JSON config path")
    c.add_argument("--laws", default=None, help="glob over law names")
    c.add_argument("--bound", type=int, default=None, help="weight bound")
    c.add_argument("--mutate", default=None, choices=list(MUTATIONS),
                   help="run with a deliberate defect")
    c.add_argument("--json", default=None, help="write the JSON report here")
    c.add_argument("--budget", type=float, default=None,
                   help="per-law time budget in seconds")
    c.set_defaults(func=_cmd_check)

    ll = sub.add_parser("list-laws", help="print every registered law")
    ll.set_defaults(func=_cmd_list_laws)

    d = sub.add_parser("demo", help="print the worked examples")
    d.set_defaults(func=_cmd_demo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
