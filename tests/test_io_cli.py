"""Algebra file round-trips, report determinism, and CLI behavior."""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from liecartan.algebra import build_algebra, central_extension
from liecartan.algebra_io import (AlgebraFileError, algebra_from_dict,
                                  algebra_to_dict, load_algebra, save_algebra)
from liecartan.suites import REGISTRY, SuiteConfig, case_seed, run_suite


def test_round_trip_p14(tmp_path):
    sp = build_algebra("p_1(4)")
    path = tmp_path / "p14.json"
    save_algebra(sp, str(path))
    sp2 = load_algebra(str(path))
    assert algebra_to_dict(sp) == algebra_to_dict(sp2)
    # canonical form is byte-identical across a save/load cycle
    path2 = tmp_path / "p14b.json"
    save_algebra(sp2, str(path2))
    assert path.read_text() == path2.read_text()


def test_empty_constants_is_abelian():
    alg = algebra_from_dict({"name": "ab", "dim": 2, "basis": ["a", "b"],
                             "constants": []})
    assert alg.dim == 2 and not alg.table


def test_zero_denominator_rejected():
    with pytest.raises(AlgebraFileError):
        algebra_from_dict({"name": "x", "dim": 2, "basis": ["a", "b"],
                           "constants": [[0, 1, 0, "1/0"]]})


def test_error_paths_are_reported():
    with pytest.raises(AlgebraFileError) as err:
        algebra_from_dict({"name": "x", "dim": 2, "basis": ["a", "b"],
                           "constants": [[0, 5, 0, "1"]]})
    assert "constants[0]" in str(err.value)
    with pytest.raises(AlgebraFileError):
        algebra_from_dict({"name": "x", "dim": 2, "basis": ["a"],
                           "constants": []})


def test_split_partition_validated():
    doc = algebra_to_dict(build_algebra("p_0(3)"))
    doc["split"]["s"] = [0, 1]
    with pytest.raises(AlgebraFileError):
        algebra_from_dict(doc)


def test_loaded_split_flags_are_verified():
    doc = algebra_to_dict(build_algebra("p_0(3)"))
    doc["split"]["flags"] = {"reductive": False}
    sp = algebra_from_dict(doc)
    assert sp.flags["reductive"]       # recomputed, not trusted


def test_per_case_seeds_are_stable():
    assert case_seed(42, 0) == case_seed(42, 0)
    assert case_seed(42, 0) != case_seed(42, 1)
    assert case_seed(42, 0) != case_seed(43, 0)


def test_report_determinism_modulo_wall_time():
    config = SuiteConfig(suite="constants", cases=4)
    a = run_suite(config)
    b = run_suite(SuiteConfig(suite="constants", cases=4))
    a.pop("wall_time")
    b.pop("wall_time")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_exit_code_reflects_pass():
    config = SuiteConfig(suite="constants", cases=2)
    assert run_suite(config)["pass"]
    bad = SuiteConfig(suite="constants", cases=2, corruption="sign")
    assert not run_suite(bad)["pass"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="nope"))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="constants", tol=0)
    with pytest.raises(ValueError):
        SuiteConfig(suite="constants", cases=0)
    with pytest.raises(ValueError):
        SuiteConfig(suite="constants", backend="decimal")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "liecartan.cli", *args],
                          capture_output=True, text=True)


def test_cli_text_and_exit_zero():
    out = _run_cli("--suite", "constants", "--cases", "3")
    assert out.returncode == 0
    assert "result: PASS" in out.stdout


def test_cli_json_report(tmp_path):
    path = tmp_path / "report.json"
    out = _run_cli("--suite", "lie-checks", "--cases", "2", "--format", "json",
                   "--out", str(path))
    assert out.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["suite"] == "lie-checks"
    assert doc["pass"] is True
    assert len(doc["cases"]) == 2


def test_cli_algebra_file(tmp_path):
    path = tmp_path / "alg.json"
    save_algebra(build_algebra("p_1(4)"), str(path))
    out = _run_cli("--suite", "lie-checks", "--algebra", str(path),
                   "--cases", "2")
    assert out.returncode == 0


def test_cli_algebra_file_reaches_every_algebra_suite(tmp_path):
    # a gravity suite must read the file: u1 is no split, so it is rejected
    u1 = tmp_path / "u1.json"
    save_algebra(build_algebra("u1"), str(u1))
    out = _run_cli("--suite", "grav-decomp", "--algebra", str(u1),
                   "--cases", "1")
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --algebra "), \
        out.stderr
    su2 = tmp_path / "su2.json"
    save_algebra(build_algebra("su2"), str(su2))
    out = _run_cli("--suite", "kk-decomp", "--dim", "2", "--algebra", str(su2),
                   "--cases", "1")
    assert out.returncode == 0, out.stderr


def test_cli_split_less_algebra_file(tmp_path):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"name": "ab2", "dim": 2, "basis": ["x", "y"],
                                "constants": []}))
    out = _run_cli("--suite", "lie-checks", "--algebra", str(path),
                   "--cases", "2")
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


def test_cli_unknown_suite_is_an_error():
    out = _run_cli("--suite", "bogus")
    assert out.returncode == 2


def test_cli_malformed_algebra_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "dim": 1, "basis": ["a"],
                                "constants": [[0, 0, 0, "1/0"]]}))
    out = _run_cli("--suite", "lie-checks", "--algebra", str(path),
                   "--cases", "1")
    assert out.returncode == 2


def _one_error_line(out, start):
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), out.stderr


def test_cli_float_backend():
    out = _run_cli("--suite", "forms-identities", "--cases", "2",
                   "--backend", "float", "--dim", "3", "--tol", "1e-9")
    assert out.stderr == ("error: --backend float: the float backend is "
                          "retired; use rational\n")
    _one_error_line(out, "error: --backend float: ")


def test_cli_unwritable_out_is_one_line(tmp_path):
    path = tmp_path / "missing" / "report.json"
    out = _run_cli("--suite", "forms-identities", "--cases", "1", "--out", str(path))
    _one_error_line(out, "error: ")
    assert str(path) in out.stderr and not path.exists()


@pytest.mark.parametrize("suite,spec", [("gauge-lemmas", "so(1)"),
                                        ("ym-decomp", "so(1)"), ("kk-el", "so(0)"),
                                        ("lie-checks", "so(-1)"),
                                        ("lie-checks", "so(1,0)")])
def test_cli_rejects_a_zero_dimensional_so(suite, spec):
    out = _run_cli("--suite", suite, "--algebra", spec, "--cases", "1")
    _one_error_line(out, f"error: {spec}: so(n) needs n >= 2")


@pytest.mark.parametrize("args,flag", [
    (("--suite", "grav-decomp", "--algebra", "su2"), "--algebra"),
    (("--suite", "kk-decomp", "--algebra", "p_0(3)"), "--algebra"),
    (("--suite", "ym-el", "--dim", "1"), "--dim"),
    (("--suite", "forms-identities", "--dim", "1"), "--dim"),
    (("--suite", "ym-decomp", "--dim", "1"), "--dim"),
    (("--suite", "ym-decomp", "--dim", "-1"), "--dim"),
    (("--suite", "kk-lc", "--dim", "0"), "--dim"),
    (("--suite", "kk-lc", "--dim", "1"), "--dim"),
    (("--suite", "kk-curvature", "--dim", "0"), "--dim"),
    (("--suite", "kk-curvature", "--dim", "1"), "--dim"),
    (("--suite", "grav-el", "--kappa", "holst:0"), "--kappa holst:0:"),
    (("--suite", "kk-el", "--kappa", "holst:0"), "--kappa holst:0:"),
    (("--suite", "lie-checks", "--kappa", "holst:0"), "--kappa holst:0:"),
    (("--suite", "constants", "--algebra", "su2"), "--algebra su2:"),
    (("--suite", "forms-identities", "--algebra", "u1"), "--algebra u1:"),
    (("--suite", "kk-el", "--dim", "-2"), "--dim -2:"),
    (("--suite", "kk-decomp", "--dim", "-1"), "--dim -1:"),
    (("--suite", "kappa", "--kappa", "holster"), "--kappa holster:"),
    (("--suite", "kappa", "--kappa", "holst:abc"), "--kappa holst:abc:"),
    (("--suite", "kappa", "--kappa", "holst:"), "--kappa holst::"),
    (("--suite", "kappa", "--kappa", "holst:1/0"), "--kappa holst:1/0:"),
    (("--suite", "kappa", "--tol", "nan"), "--tol nan:"),
    (("--suite", "kappa", "--tol", "inf"), "--tol inf:"),
], ids=["grav-su2", "kk-p03", "ym-el-dim1", "forms-dim1", "ym-decomp-dim1",
        "ym-decomp-dim-1", "kk-lc-dim0", "kk-lc-dim1", "kk-curvature-dim0",
        "kk-curvature-dim1", "grav-el-holst0", "kk-el-holst0",
        "lie-checks-holst0", "constants-su2", "forms-u1", "kk-el-dim-2",
        "kk-decomp-dim-1", "kappa-holster", "kappa-holst-abc",
        "kappa-holst-empty", "kappa-holst-1-0", "kappa-tol-nan",
        "kappa-tol-inf"])
def test_cli_rejects_inapplicable_flag_values(args, flag):
    out = _run_cli(*args, "--cases", "1")
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), out.stderr


@pytest.mark.parametrize("args", [("--suite", "gauge-lemmas"),
                                  ("--suite", "ym-decomp", "--dim", "2"),
                                  ("--suite", "ym-el", "--dim", "2"),
                                  ("--suite", "kk-el")],
                         ids=["gauge-lemmas", "ym-decomp", "ym-el", "kk-el"])
def test_cli_rejects_non_unimodular_algebra(tmp_path, args):
    _rejects_aff1xR(tmp_path, args, "unimodular")


@pytest.mark.parametrize("suite", ["kk-lc", "kk-curvature", "kk-decomp"])
def test_cli_rejects_algebra_without_ad_invariant_metric(tmp_path, suite):
    # aff(1) x R has no ad-invariant metric
    _rejects_aff1xR(tmp_path, ("--suite", suite), "ad-invariant")


@pytest.mark.parametrize("suite", ["grav-el", "grav-decomp", "grav-bianchi",
                                   "grav-commutators", "grav-conservation"])
def test_cli_rejects_split_outside_the_gravity_hypotheses(tmp_path, suite):
    # [t0, t2] = t2 with s = (t0, t1) and l = (t2): [l, s] leaves s, so
    # the split is not reductive
    _rejects_algebra_file(tmp_path, ("--suite", suite), "reductive, symmetric",
                          constants=[[0, 2, 2, "1"]], split={"s": [0, 1], "l": [2]})


def _rejects_aff1xR(tmp_path, args, word):
    # aff(1) x R: [t0, t1] = t1, so tr ad_t0 = 1
    _rejects_algebra_file(tmp_path, args, word, constants=[[0, 1, 1, "1"]])


def _rejects_algebra_file(tmp_path, args, word, **doc):
    """A 3-dimensional algebra file with the fields ``doc`` is rejected
    with one ``--algebra`` line naming ``word`` and exit 2."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"name": "bad", "dim": 3,
                                "basis": ["t0", "t1", "t2"], **doc}))
    out = _run_cli(*args, "--algebra", str(path), "--cases", "1")
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --algebra {path}: ") \
        and word in lines[0], out.stderr


def _corruptible(suite, kind, tmp_path):
    """Config fields on which ``kind`` can corrupt the suite's inputs."""
    declared = REGISTRY[suite]
    if not declared.reads_algebra or (kind == "sign" and declared.reads_kappa):
        return {}
    if declared.reads_kappa:
        # a corrupted p_0(3) fails chart certification (residual 1e9)
        # before it reaches an identity; a corrupted p_1(4) passes it
        return dict(algebra="p_1(4)")
    if suite in ("ym-el", "kk-el"):
        # the flat vacuum needs an abelian algebra, and u1 has no bracket
        # to break; on R^2 the corruption adds one
        if kind == "sign":
            return dict(n=2)
        path = tmp_path / "r2.json"
        path.write_text(json.dumps({"name": "r2", "dim": 2, "basis": ["a", "b"],
                                    "constants": []}))
        return dict(n=2, algebra_path=str(path))
    return dict(n=2, algebra="su2")


@pytest.mark.parametrize("kind", ["sign", "structure", "bogus"])
@pytest.mark.parametrize("suite", sorted(REGISTRY))
def test_corruption_reaches_the_identities_or_is_rejected(tmp_path, monkeypatch,
                                                           suite, kind):
    # the hypothesis checks read the algebra before it is corrupted, so a
    # declared kind must fail the identities themselves: above the
    # tolerance and below the 1e9 of a failed chart certification
    config = SuiteConfig(suite=suite, cases=1, corruption=kind,
                         **_corruptible(suite, kind, tmp_path))
    if kind in REGISTRY[suite].corruptions:
        if kind == "structure" and suite in ("ym-el", "kk-el"):
            assert run_suite(replace(config, corruption=None))["pass"]
        report = run_suite(config)
        assert not report["pass"] and 1e-3 <= report["max_residual"] < 1e9, report
        return

    def no_case(config, cid, seed):
        raise AssertionError("a case ran")

    monkeypatch.setitem(REGISTRY, suite, replace(REGISTRY[suite], case=no_case))
    with pytest.raises(ValueError) as err:
        run_suite(config)
    message = str(err.value)
    assert message.startswith(f"corruption {kind}: ") and "\n" not in message


def test_structure_corruption_of_u1_is_rejected():
    # u1 has no bracket to break, so the flat vacuum suites cannot corrupt it
    with pytest.raises(ValueError, match="1-dimensional"):
        run_suite(SuiteConfig(suite="ym-el", n=2, cases=1, corruption="structure"))


@pytest.mark.parametrize("suite", ["lie-checks", "ym-decomp", "kk-lc",
                                   "kk-curvature", "kk-decomp"])
def test_structure_without_algebra_is_rejected_before_any_case(monkeypatch,
                                                               suite):
    # one case of each default cycle runs on u1, which has no bracket to break
    def no_case(config, cid, seed):
        raise AssertionError("a case ran")

    monkeypatch.setitem(REGISTRY, suite, replace(REGISTRY[suite], case=no_case))
    with pytest.raises(ValueError) as err:
        run_suite(SuiteConfig(suite=suite, cases=6, corruption="structure"))
    message = str(err.value)
    assert message.startswith("corruption structure: ") and "\n" not in message
    assert message.endswith("pass --algebra")


@pytest.mark.parametrize("suite", ["ym-el", "kk-el"])
@pytest.mark.parametrize("split_file", [False, True], ids=["su2", "su2-split-file"])
def test_cli_rejects_non_abelian_algebra_for_the_vacuum_suites(tmp_path, suite,
                                                               split_file):
    # both suites build a flat abelian vacuum, which su2 cannot carry
    algebra = "su2"
    if split_file:
        algebra = str(tmp_path / "su2-split.json")
        save_algebra(central_extension(build_algebra("su2"), 2), algebra)
    out = _run_cli("--suite", suite, "--dim", "2", "--algebra", algebra,
                   "--cases", "1")
    assert out.returncode == 2, out.stderr
    assert out.stderr == (f"error: --algebra {algebra}: the {suite} suite "
                          f"needs an abelian algebra\n")


def test_cli_internal_error_is_one_line(monkeypatch, capsys):
    from liecartan import cli

    def broken(config):
        raise ArithmeticError("series did not\nconverge")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert cli.main(["--suite", "constants", "--cases", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: ArithmeticError: series did not converge\n"
