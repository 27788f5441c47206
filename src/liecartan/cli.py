"""Command-line runner for the verification suites.

Deterministic: the same flags produce byte-identical JSON output up to the
wall_time field.  Exit status is 0 exactly when the report passes, 1 when a
checked identity fails, and 2 with a one-line error for bad input or an
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import REGISTRY, SuiteConfig, run_suite

DEFAULTS = {"backend": "rational", "seed": 42, "tol": 1e-9, "cases": 25}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecartan",
        description="Property-verification suites for Lie-algebra-valued "
                    "exterior calculus on coordinate charts.")
    parser.add_argument("--suite", required=True, choices=sorted(REGISTRY),
                        help="registered suite to run")
    parser.add_argument("--algebra", default=None,
                        help="catalog name (u1, su2, so(n), p_<k>(<n>)) or a "
                             "JSON algebra file path")
    parser.add_argument("--dim", type=int, default=3,
                        help="base dimension n (chart = base + fiber)")
    parser.add_argument("--kappa", default="standard",
                        help="standard, holst (gamma = 2) or holst:<gamma>")
    parser.add_argument("--backend", default=DEFAULTS["backend"],
                        help="rational, the only number backend")
    parser.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    parser.add_argument("--cases", type=int, default=DEFAULTS["cases"])
    parser.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--out", default=None, help="write the report here")
    return parser


def config_from_args(args) -> SuiteConfig:
    algebra = args.algebra
    algebra_path = None
    if algebra and (algebra.endswith(".json") or "/" in algebra):
        algebra_path = algebra
        algebra = None
    return SuiteConfig(
        suite=args.suite, n=args.dim, algebra=algebra, kappa=args.kappa,
        backend=args.backend, seed=args.seed, cases=args.cases, tol=args.tol,
        algebra_path=algebra_path)


def render_text(report: dict) -> str:
    lines = [f"suite: {report['suite']}   "
             f"backend={report['config']['backend']} "
             f"seed={report['config']['seed']} cases={len(report['cases'])}"]
    for case in report["cases"]:
        mark = "pass" if case["pass"] else "FAIL"
        lines.append(f"  case {case['id']:3d}  residual={case['residual']:.3e}"
                     f"  tol={case['tolerance']:.1e}  {mark}")
    lines.append(f"max residual: {report['max_residual']:.3e}")
    lines.append(f"result: {'PASS' if report['pass'] else 'FAIL'} "
                 f"({report['wall_time']:.2f}s)")
    return "\n".join(lines)


def _error_line(message: str) -> str:
    return "error: " + " ".join(message.split())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run_suite(config)
        if args.format == "json":
            payload = json.dumps(report, indent=1, sort_keys=True)
        else:
            payload = render_text(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
    except (ValueError, OSError) as exc:
        print(_error_line(str(exc)), file=sys.stderr)
        return 2
    except Exception as exc:  # an internal error is still one line, exit 2
        print(_error_line(f"{type(exc).__name__}: {exc}"), file=sys.stderr)
        return 2
    if not args.out:
        print(payload)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
