"""Suite registry coverage, cross-suite smoke checks and golden reports.

The QUICK runs compare their reports, apart from ``wall_time``, with the
committed ``golden/quick_reports.json``.  After a deliberate change to the
reports, rewrite that file with ``PYTHONPATH=src python tests/test_suites.py``.
"""

import json
from pathlib import Path

import pytest

from liecartan.suites import REGISTRY, SuiteConfig, run_suite

EXPECTED_SUITES = {
    "forms-identities", "lie-checks", "kappa", "gauge-lemmas",
    "ym-el", "ym-maxwell", "ym-decomp",
    "kk-el", "kk-lc", "kk-curvature", "kk-decomp",
    "grav-el", "grav-decomp", "grav-bianchi", "grav-commutators",
    "grav-conservation", "constants",
}

QUICK = {
    "forms-identities": dict(cases=2, n=3),
    "lie-checks": dict(cases=2),
    "kappa": dict(cases=1),
    "gauge-lemmas": dict(cases=2),
    "ym-el": dict(cases=2, n=2),
    "ym-maxwell": dict(cases=2),
    "ym-decomp": dict(cases=2, n=2),
    "kk-el": dict(cases=2, n=2),
    "kk-lc": dict(cases=2, n=2),
    "kk-curvature": dict(cases=2, n=2),
    "kk-decomp": dict(cases=2, n=2),
    "grav-el": dict(cases=1),
    "grav-decomp": dict(cases=1),
    "grav-bianchi": dict(cases=1),
    "grav-commutators": dict(cases=1),
    "grav-conservation": dict(cases=1),
    "constants": dict(cases=5),
}


FLOAT_SUITES = sorted(EXPECTED_SUITES)

GOLDEN = Path(__file__).parent / "golden" / "quick_reports.json"


def _quick_config(suite, backend):
    return SuiteConfig(suite=suite, backend=backend, **QUICK[suite])


def _canonical(report) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "wall_time"},
                      sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_registry_is_complete():
    assert set(REGISTRY) == EXPECTED_SUITES


@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_every_suite_passes_on_rational_backend(suite, golden):
    rep = run_suite(_quick_config(suite, "rational"))
    assert rep["pass"], rep
    assert rep["max_residual"] == 0 or rep["max_residual"] <= 1e-9
    assert _canonical(rep) == _canonical(golden[f"{suite}/rational"])


@pytest.mark.parametrize("suite", FLOAT_SUITES)
def test_float_backend_within_tolerance(suite, golden):
    rep = run_suite(_quick_config(suite, "float"))
    assert rep["pass"], rep
    assert _canonical(rep) == _canonical(golden[f"{suite}/float"])


def test_cases_sorted_and_counted():
    rep = run_suite(SuiteConfig(suite="constants", cases=7))
    assert [c["id"] for c in rep["cases"]] == list(range(7))
    assert rep["config"]["cases"] == 7


def test_constants_report_notes_lambda():
    rep = run_suite(SuiteConfig(suite="constants", cases=1))
    assert "lambda" in rep["cases"][0]["note"]
    assert "= 6" in rep["cases"][0]["note"]


if __name__ == "__main__":
    runs = [(s, "rational") for s in sorted(EXPECTED_SUITES)]
    runs += [(s, "float") for s in FLOAT_SUITES]
    reports = {}
    for suite, backend in runs:
        rep = run_suite(_quick_config(suite, backend))
        rep.pop("wall_time")
        reports[f"{suite}/{backend}"] = rep
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
