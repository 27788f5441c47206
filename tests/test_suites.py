"""Suite registry coverage, cross-suite smoke checks and golden reports.

The QUICK runs, plain and, for the suites that declare it, with the
``sign`` corruption, compare their reports, apart from ``wall_time``, with
the committed ``golden/quick_reports.json``, under ``<suite>/rational`` and
``<suite>/rational/sign``; they are pinned at a second master seed as
well, under ``<suite>/rational/seed<seed>`` and
``<suite>/rational/sign/seed<seed>``.  A run on the float backend, which
is retired, is refused with one line before any case.  After a deliberate
change to the reports, rewrite that file with
``PYTHONPATH=src python tests/test_suites.py``, which first prints each key
as unchanged, changed (old -> new ``max_residual``), added or removed.
"""

import gc
import json
from pathlib import Path

import pytest

from liecartan.cli import main
from liecartan.suites import REGISTRY, Suite, SuiteConfig, case_seed, run_suite

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

SIGN_SUITES = sorted(s for s, d in REGISTRY.items() if "sign" in d.corruptions)

# reports on charts that no QUICK run builds, under their golden key
PINNED = {
    "grav-decomp/p_1(4)": dict(suite="grav-decomp", algebra="p_1(4)", cases=1),
    # case 2 runs on a curved base, through ``base_curvature_blocks``
    "kk-curvature/curved": dict(suite="kk-curvature", n=2, cases=3),
    "grav-bianchi/p_1(4)": dict(suite="grav-bianchi", algebra="p_1(4)", cases=1),
}

GOLDEN = Path(__file__).parent / "golden" / "quick_reports.json"

# master seeds besides the default 42 at which the QUICK reports are pinned
SEEDS = (7,)

# the number backends by the name ``--backend`` takes: rational runs, and
# float, retired, is refused
BACKENDS = ["rational", "float"]
FLOAT_RETIRED = "--backend float: the float backend is retired; use rational"


def _quick_config(suite, corruption=None, seed=42):
    return SuiteConfig(suite=suite, corruption=corruption, seed=seed, **QUICK[suite])


def _seed_key(suite, corruption, seed):
    return f"{suite}/rational/{corruption + '/' if corruption else ''}seed{seed}"


def _refused(backend, **kwargs):
    """Whether ``backend`` is the retired float backend, after checking that
    a config on it is refused with its one-line message."""
    if backend == "rational":
        return False
    with pytest.raises(ValueError, match=f"^{FLOAT_RETIRED}$"):
        SuiteConfig(backend=backend, **kwargs)
    return True


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
    rep = run_suite(_quick_config(suite))
    assert rep["pass"], rep
    assert rep["max_residual"] == 0
    assert _canonical(rep) == _canonical(golden[f"{suite}/rational"])


@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_float_backend_within_tolerance(suite, capsys):
    """``--backend float`` with the tolerance its runs took is refused for
    every suite: exit 2 and one stderr line, before any case."""
    assert main(["--suite", suite, "--backend", "float", "--tol", "1e-9"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {FLOAT_RETIRED}\n")


def _matches_golden(config, key, golden):
    """A run matches its golden report; a sign run of a suite that does not
    declare ``sign`` is rejected, and has none."""
    if config.corruption == "sign" and config.suite not in SIGN_SUITES:
        assert key not in golden
        with pytest.raises(ValueError, match="^corruption sign: "):
            run_suite(config)
        return
    assert _canonical(run_suite(config)) == _canonical(golden[key])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_sign_corrupted_reports_match_golden(suite, backend, golden):
    if _refused(backend, suite=suite, corruption="sign", **QUICK[suite]):
        return
    _matches_golden(_quick_config(suite, "sign"), f"{suite}/rational/sign", golden)


@pytest.mark.parametrize("corruption", [None, "sign"], ids=["plain", "sign"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
def test_float_reports_match_golden_at_seed(suite, seed, corruption, golden):
    """The QUICK reports at another master seed.  These were the float
    backend's; with that backend retired, the rational ones are pinned."""
    _matches_golden(_quick_config(suite, corruption, seed),
                    _seed_key(suite, corruption, seed), golden)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_reports_match_golden(name, backend, golden):
    if _refused(backend, **PINNED[name]):
        return
    rep = run_suite(SuiteConfig(**PINNED[name]))
    assert rep["pass"], rep
    assert _canonical(rep) == _canonical(golden[f"{name}/rational"])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kwargs", [
    dict(suite="forms-identities", n=6),
    dict(suite="gauge-lemmas", algebra="p_0(3)"),
    dict(suite="grav-decomp", algebra="p_1(4)"),
], ids=["forms-identities-6", "gauge-lemmas-p_0(3)", "grav-decomp-p_1(4)"])
def test_a_case_leaves_no_cyclic_garbage(kwargs, backend):
    """A case's forms, minors and field graph hold no reference cycle, so
    refcounting frees them when the case returns.  The collector is
    paused while the case runs, so that it cannot hide a cycle."""
    if _refused(backend, cases=1, **kwargs):
        return
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = run_suite(SuiteConfig(cases=1, **kwargs))
        assert rep["pass"]
        del rep
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_cases_sorted_and_counted():
    rep = run_suite(SuiteConfig(suite="constants", cases=7))
    assert [c["id"] for c in rep["cases"]] == list(range(7))
    assert rep["config"]["cases"] == 7


def test_run_suite_is_the_case_loop(monkeypatch):
    calls = []

    def recording_case(config, cid, seed):
        calls.append((cid, seed))
        return cid / 10

    monkeypatch.setitem(REGISTRY, "recording", Suite(recording_case, frozenset()))
    config = SuiteConfig(suite="recording", seed=5, cases=4, tol=0.15)
    rep = run_suite(config)
    want = [(cid, case_seed(5, cid)) for cid in range(4)]
    assert calls == want
    assert [(c["id"], c["seed"]) for c in rep["cases"]] == want
    assert [c["pass"] for c in rep["cases"]] == [True, True, False, False]
    assert rep["max_residual"] == 0.3 and not rep["pass"]

    def failing_case(config, cid, seed):
        raise ArithmeticError(f"case {cid}")

    monkeypatch.setitem(REGISTRY, "recording", Suite(failing_case, frozenset()))
    with pytest.raises(ArithmeticError, match="case 0"):
        run_suite(config)


def test_constants_report_notes_lambda():
    rep = run_suite(SuiteConfig(suite="constants", cases=1))
    assert "lambda" in rep["cases"][0]["note"]
    assert "= 6" in rep["cases"][0]["note"]


def _golden_reports():
    """Every golden report by its key, without ``wall_time``."""
    reports = {}
    for suite in sorted(EXPECTED_SUITES):
        reports[f"{suite}/rational"] = run_suite(_quick_config(suite))
        if suite in SIGN_SUITES:
            reports[f"{suite}/rational/sign"] = run_suite(_quick_config(suite, "sign"))
        for seed in SEEDS:
            for corruption in (None, "sign") if suite in SIGN_SUITES else (None,):
                reports[_seed_key(suite, corruption, seed)] = run_suite(
                    _quick_config(suite, corruption, seed))
    for name, kwargs in sorted(PINNED.items()):
        reports[f"{name}/rational"] = run_suite(SuiteConfig(**kwargs))
    for rep in reports.values():
        rep.pop("wall_time")
    return reports


def golden_changes(old, new):
    """One line per golden key: unchanged, changed (with the old and new
    ``max_residual``), added or removed."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"removed   {key}")
        elif key not in old:
            lines.append(f"added     {key}")
        elif _canonical(old[key]) == _canonical(new[key]):
            lines.append(f"unchanged {key}")
        else:
            lines.append(f"changed   {key}: max_residual "
                         f"{old[key]['max_residual']!r} -> {new[key]['max_residual']!r}")
    return lines


def test_golden_changes_name_each_key():
    old = {"a": {"max_residual": 0}, "b": {"max_residual": 1e-15},
           "c": {"max_residual": 0}}
    new = {"a": {"max_residual": 0, "wall_time": 1.0},
           "b": {"max_residual": 2e-16}, "d": {"max_residual": 0}}
    assert golden_changes(old, new) == [
        "unchanged a", "changed   b: max_residual 1e-15 -> 2e-16",
        "removed   c", "added     d"]


if __name__ == "__main__":
    # print how each golden report moves, then rewrite the file
    reports = _golden_reports()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(golden_changes(old, reports)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
