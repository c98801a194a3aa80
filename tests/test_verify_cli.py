import argparse
import cmath
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qultra
from qultra import ConfigError
from qultra.cli import build_parser, main, read_config_file, render_report
from qultra.verify import (SUITE_VERSION, VerificationReport, identity_names,
                           render_json, run_identity, run_suite)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def default_report():
    return run_suite({})


def test_suite_has_enough_entries(default_report):
    assert len(default_report.entries) >= 14


def test_suite_passes_at_defaults(default_report):
    failed = [e.identity_name for e in default_report.entries
              if not e.passed and not e.skipped]
    assert default_report.overall_passed, f"failing entries: {failed}"


def test_suite_entries_report_terms_and_nodes(default_report):
    entries = {e.identity_name: e for e in default_report.entries}
    for name in ("kernel_integral", "classical_orthogonality_diagonal",
                 "classical_orthogonality_offdiagonal", "bilateral_delta_integral",
                 "shifted_orthogonality_diagonal",
                 "shifted_orthogonality_offdiagonal"):
        assert entries[name].nodes_used >= 63, name
    for name in ("bilateral_cn_recurrence", "bilateral_cn_symmetry",
                 "bilateral_cn_constant_terms", "bilateral_cn_gamma_one_reduction",
                 "generating_function_product", "generating_function_coefficients",
                 "ramanujan_1psi1", "dq_action_bilateral"):
        assert entries[name].terms_used > 0, name


def test_suite_entries_sorted(default_report):
    names = [e.identity_name for e in default_report.entries]
    assert names == sorted(names)


def test_suite_residuals_finite_nonnegative(default_report):
    for e in default_report.entries:
        assert e.residual >= 0.0 and e.tolerance >= 0.0
        assert e.residual == e.residual  # not NaN


def test_suite_overall_is_conjunction(default_report):
    assert default_report.overall_passed == all(
        e.passed for e in default_report.entries)


def test_reports_byte_identical():
    a = render_json(run_suite({}))
    b = render_json(run_suite({}))
    assert a == b
    assert a.encode() == b.encode()


def test_report_is_valid_json_with_17_digits():
    text = render_json(run_suite({"quad_tol": 1e-7}))
    data = json.loads(text)
    assert data["suite_version"] == "1"
    assert isinstance(data["overall_passed"], bool)
    assert {"identity_name", "params", "residual", "tolerance", "passed",
            "terms_used", "nodes_used", "skipped", "note"} <= set(data["entries"][0])
    # 0.3 at 17 significant digits
    assert "0.29999999999999999" in text
    assert "\r" not in text


def test_pole_lattice_config_skips_bilateral_entries():
    rep = run_suite({"gamma": 0.3 ** -2})
    skipped = {e.identity_name for e in rep.entries if e.skipped}
    assert any(name.startswith("bilateral_cn") for name in skipped)
    assert all("PoleError" in e.note for e in rep.entries
               if e.skipped and e.identity_name.startswith("bilateral_cn"))
    assert rep.overall_passed  # skips do not fail the suite


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_internal_error_fails_its_entry_not_the_suite(error, monkeypatch):
    # an exception that is not a QSeriesError is a fault of the library,
    # not an unmet hypothesis: the entry fails, naming it, and the rest run
    import qultra.verify as verify

    def broken(ctx, **fixed):
        raise error("injected")

    row = verify._REGISTRY["kernel_integral"]
    monkeypatch.setitem(verify._REGISTRY, "kernel_integral", row._replace(run=broken))
    rep = run_suite({})
    entry = next(e for e in rep.entries if e.identity_name == "kernel_integral")
    assert not entry.passed and not entry.skipped
    assert entry.note == f"internal error {error.__name__}: injected"
    assert not rep.overall_passed
    others = [e for e in rep.entries if e.identity_name != "kernel_integral"]
    assert len(others) == len(identity_names()) - 1
    assert all(e.passed for e in others)
    assert run_identity("kernel_integral").note == entry.note
    json.loads(render_json(rep))


def test_zero_tolerance_config_error():
    with pytest.raises(ConfigError):
        run_suite({"rel_tol": 0.0})


def test_unknown_config_key_error():
    # shifted_tol and seed are constants of verify, not config keys
    for key in ("bogus", "tail_window", "shifted_tol", "seed"):
        with pytest.raises(ConfigError):
            run_suite({key: 1.0})


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_theta_is_config_error(theta):
    with pytest.raises(ConfigError, match="thetas"):
        run_suite({"thetas": (0.4, theta)})
    with pytest.raises(ConfigError, match="thetas"):
        run_identity("kernel_integral", {"thetas": str(theta)})


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_t_is_config_error(t, tmp_path, capsys):
    # a skipped generating-function entry reports t, which JSON cannot hold
    for value in (t, str(t)):
        with pytest.raises(ConfigError, match="t must be finite"):
            run_suite({"t": value})
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"t = {t}\n")
    assert main(["suite", "--config", str(cfg)]) == 2
    assert "t must be finite" in capsys.readouterr().err


def test_a_note_with_a_control_character_is_valid_json(monkeypatch, capsys):
    import qultra.verify as verify

    def broken(ctx, **fixed):
        raise RuntimeError("first line\nsecond line")

    row = verify._REGISTRY["kernel_integral"]
    monkeypatch.setitem(verify._REGISTRY, "kernel_integral", row._replace(run=broken))
    assert main(["identity", "--name", "kernel_integral", "--format", "json"]) == 1
    entry, = json.loads(capsys.readouterr().out)["entries"]
    assert entry["note"] == "internal error RuntimeError: first line\nsecond line"


@pytest.mark.parametrize("thetas", [(0.0, 1.0), (math.pi,)])
def test_dq_entries_skip_where_the_operator_is_singular(thetas, tmp_path, capsys):
    # z = +-1: the divided difference's denominator vanishes; only the two
    # D_q entries need it, so only they skip, naming SingularPoint
    rep = run_suite({"thetas": thetas})
    skipped = {e.identity_name: e.note for e in rep.entries if e.skipped}
    assert set(skipped) == {"dq_action_bilateral", "dq_action_classical"}
    assert all(note.startswith("SingularPoint: ") for note in skipped.values())
    assert len(rep.entries) == len(identity_names()) == 22
    assert rep.overall_passed
    json.loads(render_json(rep))
    cfg = tmp_path / "singular.cfg"
    cfg.write_text("thetas = " + ", ".join(map(repr, thetas)) + "\n")
    assert main(["identity", "--name", "dq_action_classical", "--config", str(cfg)]) == 0
    assert "SingularPoint" in capsys.readouterr().out


def test_generating_function_overflow_is_nonconvergence():
    # the shells decay slowly at t = 0.11 > q/beta, and t^{-n} overflows
    # a float near n = 308, before the sum settles
    entry = run_identity("generating_function_product",
                         {"q": 0.1, "beta": 0.95, "t": 0.11})
    assert not entry.passed and "overflowed" in entry.note


def test_coefficient_extraction_that_does_not_settle_fails_its_entry():
    # |q/beta| = 0.75 < t = 0.866 < 1: the Laurent coefficients n = -4..4
    # from 2048 and 4096 samples of the circle |t| = r still differ by 1e-9
    entry = run_identity("generating_function_coefficients",
                         {"q": 0.9, "beta": 1.2, "gamma": 0.3, "t": 0.866})
    assert not entry.passed and not entry.skipped
    assert entry.note == "NonConvergence: coefficient extraction failed to settle"


def test_run_identity_unknown_name():
    with pytest.raises(ConfigError):
        run_identity("unheard_of")


def test_delta_entry_passes_above_one():
    # beta > 1: the measure has a mass pair the entry must integrate
    entry = run_identity("bilateral_delta_integral",
                         {"q": 0.5, "beta": 1.5})
    assert entry.passed and not entry.skipped


@pytest.mark.parametrize("cfg", [
    {"q": 0.5, "beta": 0.4},
    {"q": 0.7, "beta": 0.4, "gamma": 1.5},
    {"q": 0.3, "beta": 0.8, "gamma": 0.3},
    {"q": 0.7},
])
def test_crosscheck_skips_where_a_route_does_not_apply(cfg):
    entry = run_identity("bilateral_cn_continuation_crosscheck", cfg)
    # the well-poised 2psi2 form of the direct sum does not apply on the
    # unit circle here: its argument |q/beta| is over 1 at beta = 0.4, and
    # an upper parameter q^{-n}/gamma is on the q^k lattice at the others
    assert entry.skipped and entry.passed
    assert ("2psi2 requires |z| < 1" in entry.note
            or "hits the q^k lattice" in entry.note)


@pytest.mark.parametrize("cfg", [
    {"q": 0.5},
    {"q": 0.1, "beta": 0.95, "gamma": 0.3},
    {"q": 0.5, "beta": 0.9, "gamma": 0.4},
    {"q": 0.3, "beta": -0.5, "gamma": 0.7},
])
def test_crosscheck_compares_the_continuation_with_the_direct_sum(cfg):
    # Bailey's 2psi2 route was out of region at q^{1/2} e^{0.4i} here; the
    # continuation, pole expansion and recurrence, meets the direct sum on
    # the unit circle
    entry = run_identity("bilateral_cn_continuation_crosscheck", cfg)
    assert entry.passed and not entry.skipped
    assert entry.residual <= 1e-12


def test_shifted_entry_fails_where_shells_grow():
    entry = run_identity("shifted_orthogonality_diagonal", {"q": 0.7, "gamma": 1.5})
    assert not entry.passed and not entry.skipped
    assert entry.note.startswith("NonConvergence")


def test_shifted_entries_name_their_hypothesis_where_it_fails():
    # |q/(beta^2 gamma)| = 10.4 at (0.5, 0.4, 0.3)
    for name in ("shifted_orthogonality_offdiagonal", "shifted_orthogonality_scaling"):
        entry = run_identity(name, {"q": 0.5, "beta": 0.4, "gamma": 0.3})
        assert entry.skipped
        assert entry.note == ("RegionError: shifted orthogonality needs "
                              "|q/(beta^2 gamma)| < 1")


def test_verify_imports_no_private_name():
    import ast
    import qultra.verify
    tree = ast.parse(Path(qultra.verify.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert "bilateral_cn_continued" in names
    assert not [n for n in names if n.startswith("_")]


def test_shifted_scaling_entry_is_exact():
    entry = run_identity("shifted_orthogonality_scaling")
    assert entry.passed and entry.residual == 0.0


def test_identity_names_nonempty():
    assert "ramanujan_1psi1" in identity_names()


def test_suite_integrals_reach_the_public_names(monkeypatch):
    # the names a profiler hooks must be the ones the suite's entries call
    import qultra.quadrature as quad
    import qultra.verify as verify
    calls = []
    for module, name in ((verify, "shifted_orthogonality_pair"),
                         (verify, "bilateral_delta_integral"),
                         (quad, "integrate")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    for entry, name in (("shifted_orthogonality_diagonal", "shifted_orthogonality_pair"),
                        ("shifted_orthogonality_offdiagonal", "shifted_orthogonality_pair"),
                        ("bilateral_delta_integral", "bilateral_delta_integral"),
                        ("classical_orthogonality_diagonal", "integrate"),
                        ("classical_orthogonality_offdiagonal", "integrate"),
                        ("kernel_integral", "integrate")):
        calls.clear()
        assert run_identity(entry).passed, entry
        assert name in calls, entry


def test_linearization_entry_evaluates_each_degree_once_per_point(monkeypatch):
    # degrees 0..8 serve the 25 pairs (m, n) of 0..4 at each of 3 points
    import qultra.ultraspherical as us
    calls = []

    def spy(n, p, beta, q, _real=us.classical_cn):
        calls.append(n)
        return _real(n, p, beta, q)

    monkeypatch.setattr(us, "classical_cn", spy)
    entry = run_identity("linearization")
    assert entry.passed
    assert len(calls) <= 9 * 3 and sorted(set(calls)) == list(range(9))


# ---- registry rows, residual rules and the count collector ----

# the gate of every row when the registry took its row shape; a row may
# tighten its gate, but loosening one has to change this table as well
GATES = {
    "bailey_2psi2_iterated": 1e-9, "bailey_2psi2_single": 1e-9,
    "bilateral_cn_constant_terms": 1e-9,
    "bilateral_cn_continuation_crosscheck": 1e-10,
    "bilateral_cn_gamma_one_reduction": 1e-10,
    "bilateral_cn_recurrence": 1e-10, "bilateral_cn_special_value_c0": 1e-10,
    "bilateral_cn_symmetry": 1e-10, "bilateral_delta_integral": 1e-7,
    "classical_orthogonality_diagonal": 1e-8,
    "classical_orthogonality_offdiagonal": 1e-9,
    "dq_action_bilateral": 1e-8, "dq_action_classical": 1e-10,
    "generating_function_coefficients": 1e-7,
    "generating_function_product": 1e-8, "kernel_integral": 1e-8,
    "linearization": 1e-10, "ramanujan_1psi1": 1e-9,
    "shifted_orthogonality_diagonal": 1e-6,
    "shifted_orthogonality_offdiagonal": 1e-6,
    "shifted_orthogonality_scaling": 1e-15, "wellpoised_6psi8": 1e-9,
}


def test_no_row_loosens_its_gate():
    from qultra.verify import _REGISTRY, CONFIG_DEFAULTS, RULES
    assert sorted(_REGISTRY) == sorted(GATES)
    for name, row in _REGISTRY.items():
        assert 0 < row.gate <= GATES[name], name
        assert row.rule in RULES, name
        assert set(row.keys) <= set(CONFIG_DEFAULTS), name


def test_entries_report_the_row_keys_and_fixed_values(default_report):
    entries = {e.identity_name: e for e in default_report.entries}
    assert entries["kernel_integral"].params == {"q": 0.3, "beta": 0.8,
                                                 "t1": 0.4, "t2": -0.25}
    assert entries["bilateral_cn_gamma_one_reduction"].params == {
        "q": 0.3, "beta": 0.8, "gamma": 1.0}
    assert entries["generating_function_product"].params["t"] == 0.6
    assert entries["ramanujan_1psi1"].params == {"q": 0.3, "beta": 0.8, "gamma": 0.7}
    # a skipped and a failed entry report the same keys and their row's gate
    cfg = {"q": 0.5, "beta": 0.4, "gamma": 0.7}
    skipped = run_identity("bilateral_cn_continuation_crosscheck", cfg)
    assert skipped.skipped and skipped.passed and skipped.residual == 0.0
    assert (skipped.params, skipped.tolerance) == (cfg, 1e-10)
    failed = run_identity("shifted_orthogonality_diagonal", {"q": 0.7, "gamma": 1.5})
    assert not failed.passed and not failed.skipped and failed.residual == 0.0
    assert (failed.params, failed.tolerance) == ({"q": 0.7, "beta": 0.8, "gamma": 1.5},
                                                 1e-6)


@pytest.mark.parametrize("rule, lhs, rhs, scale, want", [
    ("given", [1e-3, 2e-3, 5e-4], None, None, 2e-3),
    ("absolute", [1 + 1j, 2.0], [1.0, 2.5], None, 1.0),
    ("relative", [3.0, 1.0], [1.0, 1.0], [4.0, 8.0], 0.5),
    ("unit", [0.5, 10.0], [0.25, 9.0], None, 0.25),      # |l| < 1 divides by 1
    ("unit", [4.0], [2.0], None, 0.5),                   # |l| > 1 divides by |l|
    ("ratio", [2.0, 0.1], [1.0, 0.0], [2.0, 2.0], 0.05),
])
def test_residual_rules_on_hand_made_triples(rule, lhs, rhs, scale, want):
    from qultra.verify import _worst
    got = _worst(rule, lhs, rhs, scale)
    assert type(got) is float and got == pytest.approx(want, rel=1e-15)


def test_residual_rules_broadcast_a_scalar_and_read_0_on_no_items():
    from qultra.verify import RULES, _worst
    assert _worst("relative", [1.0, 3.0], 0.0, 2.0) == 1.5
    assert _worst("ratio", [2.0, 6.0], 1.0, [2.0, 3.0]) == 1.0
    assert _worst("relative", 3.0, 1.0, 4.0) == 0.5       # one scalar lhs
    for rule in RULES:
        assert _worst(rule, [], 1.0, 1.0) == 0.0
        assert math.isnan(_worst(rule, [5.0, float("nan")], 1.0, 1.0)), rule
    with pytest.raises(ValueError):                     # lists of two lengths
        _worst("absolute", [1.0, 2.0], [1.0])


def test_a_nan_residual_fails_its_entry(monkeypatch):
    # every rule keeps a nan item, so no entry passes on one
    import qultra.verify as verify
    monkeypatch.setattr(verify, "constant_term", lambda n, params, policy: complex("nan"))
    entry = run_identity("bilateral_cn_constant_terms")
    assert not entry.passed and not entry.skipped and math.isnan(entry.residual)
    assert entry.note == "residual is nan, not finite"


@pytest.mark.parametrize("argv", [
    ["identity", "--name", "bilateral_cn_constant_terms", "--format", "json"],
    ["suite", "--format", "json"],
])
def test_a_nan_residual_is_a_failed_json_entry_not_a_traceback(argv, monkeypatch, capsys):
    import qultra.verify as verify
    monkeypatch.setattr(verify, "constant_term", lambda n, params, policy: complex("nan"))
    assert main(argv) == 1
    entries = {e["identity_name"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    entry = entries["bilateral_cn_constant_terms"]
    assert entry["residual"] is None and entry["passed"] is False
    assert entry["note"] == "residual is nan, not finite"
    # every other entry keeps a number
    assert all(isinstance(e["residual"], (int, float)) for name, e in entries.items()
               if name != "bilateral_cn_constant_terms")


def test_collector_reads_each_evaluated_object():
    import numpy as np
    from qultra import SpectralPoint, UltraParams, bilateral_cn, bilateral_cn_range
    from qultra.awoperator import DqResiduals
    from qultra.quadrature import QuadratureResult
    from qultra.verify import _counts
    params, p = UltraParams(0.8, 0.7, 0.3), SpectralPoint.from_theta(1.0)
    rows = bilateral_cn_range(-3, 3, p, params)
    value = bilateral_cn(5, p, params)
    assert _counts([rows]) == (int(rows.truncation_terms.max()), 0)
    assert _counts([value]) == (value.truncation_terms, 0)
    assert _counts([DqResiduals(np.zeros(3), 42)]) == (42, 0)
    assert _counts([QuadratureResult(1.0, 127, 0.0)]) == (0, 127)
    assert _counts([17, 5]) == (17, 0)                   # sum_psi term counts
    assert _counts([]) == (0, 0)
    both = _counts([QuadratureResult(1.0, 63, 0.0), QuadratureResult(1.0, 255, 0.0),
                    DqResiduals(np.zeros(1), 9), 12])
    assert both == (12, 255) and all(type(c) is int for c in both)


# ---- CLI ----

def test_cli_eval_exit_codes(capsys):
    assert main(["eval", "--n", "1", "--theta", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "C_1" in out

    # exactly one point spec required
    assert main(["eval", "--n", "1", "--theta", "0.4", "--x", "0.2"]) == 2
    assert main(["eval", "--n", "1"]) == 2


def test_cli_eval_pole_is_numerical_error(capsys):
    code = main(["eval", "--n", "0", "--theta", "0.4",
                 "--gamma", str(0.3 ** -2)])
    assert code == 3


def test_cli_eval_overflow_is_numerical_error(capsys):
    # far negative n: z^n leaves the double range in the pole expansion's
    # row, and in every row the recurrence could start from
    z = 2.2 * cmath.exp(-1.1j)
    for args in (["--n", "2000", "--z-re", "0.4", "--z-im", "0.3"],
                 ["--n", "-2000", "--z-re", "0.4", "--z-im", "0.3",
                  "--q", "0.9", "--beta", "0.4", "--gamma", "0.5"],
                 ["--n", "-2000", "--z-re", repr(z.real), "--z-im", repr(z.imag),
                  "--q", "0.7", "--beta", "0.5", "--gamma", "1.5"],
                 ["--kind", "classical", "--n", "700", "--z-re", "3",
                  "--format", "json"],
                 ["--kind", "classical", "--n", "1", "--z-re", "1.5e308",
                  "--z-im", "1.5e308"]):
        assert main(["eval"] + args) == 3, args
        assert "overflowed" in capsys.readouterr().err


def test_cli_eval_where_z_squared_overflows_is_a_typed_error(capsys):
    # a bare OverflowError from the lattice test gave a traceback and exit 1
    for args in (["--z-re", "1e200"], ["--z-re", "0", "--z-im", "1e160"]):
        assert main(["eval", "--n", "0"] + args) in (2, 3), args
        assert capsys.readouterr().err.startswith(("error:", "numerical error:"))


def test_cli_eval_at_a_lattice_point(capsys):
    # z^2 = q at (0.7, 0.5, 1.5), where the pole expansion degenerates:
    # the circle mean gives C_0, within 1e-13 of its checked reference
    assert main(["eval", "--n", "0", "--z-re", repr(0.7 ** 0.5), "--q", "0.7",
                 "--beta", "0.5", "--gamma", "1.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["re"] == pytest.approx(-22521.632615325365, rel=1e-13)


def test_cli_eval_non_finite_is_numerical_error(capsys, monkeypatch):
    # with the pole expansion failing, no row ends the recurrence, and the
    # row has no other route off the lattice
    import qultra.ultraspherical as us

    def unusable(*args):
        raise us._RouteUnusable("route disabled")

    monkeypatch.setattr(us._PoleRings, "value", unusable)
    code = main(["eval", "--n", "40", "--z-re", "0.4", "--z-im", "0.3",
                 "--format", "json"])
    assert code == 3
    assert "no route gives C_40" in capsys.readouterr().err


def test_cli_eval_json(capsys):
    assert main(["eval", "--n", "0", "--theta", "1.0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"re", "im", "terms"}


def test_cli_identity_pass_and_fail(capsys):
    assert main(["identity", "--name", "kernel_integral"]) == 0
    assert main(["identity", "--name", "who_knows"]) == 2


def test_cli_table_csv(capsys):
    assert main(["table", "--kind", "classical", "--n-min", "0", "--n-max", "2",
                 "--theta-min", "0.4", "--theta-max", "2.2",
                 "--theta-steps", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.split("\n")
    assert lines[0] == "n,theta,re,im,terms"
    assert len(lines) == 1 + 3 * 2 + 1  # header + rows + trailing newline
    assert not out.endswith("\r\n")
    row = lines[1].split(",")
    assert len(row) == 5 and row[0] == "0"


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0.35\nbeta = 0.75   # inline comment\n\n# full comment\n")
    assert main(["eval", "--n", "0", "--theta", "0.4",
                 "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert "q = 0.35" in out1
    # flags override the file
    assert main(["eval", "--n", "0", "--theta", "0.4", "--config", str(cfg),
                 "--q", "0.3"]) == 0
    assert "q = 0.3" in capsys.readouterr().out


def test_cli_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert main(["eval", "--n", "0", "--theta", "0.4",
                 "--config", str(bad)]) == 2
    assert main(["eval", "--n", "0", "--theta", "0.4",
                 "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("command,line", [
    (["suite"], "q = abc"),
    (["identity", "--name", "kernel_integral"], "thetas = 0.4,x"),
    (["eval", "--n", "0", "--theta", "0.4"], "max_terms = 1e4"),
    (["eval", "--n", "0", "--theta", "0.4"], "thetas = 0.4,x"),
    (["table", "--n-min", "0", "--n-max", "0"], "bogus = 1"),
    (["eval", "--n", "0", "--theta", "0.4"], "max_terms = 2"),  # < TAIL_WINDOW
    (["eval", "--n", "0", "--theta", "0.4"], "abs_tol = 1e-300"),  # retired
    (["suite"], "thetas ="),  # no point: 8 entries had nothing to check
])
def test_cli_malformed_or_unknown_config_value_is_config_error(
        tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(command + ["--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--theta", "1", "--beta", "nan"],
    ["eval", "--n", "2", "--theta", "1.0", "--rel-tol", "inf"],
    ["suite", "--gamma", "nan"],
    ["identity", "--name", "kernel_integral", "--quad-tol", "nan"],
], ids=" ".join)
def test_cli_nan_parameter_or_tolerance_is_config_error(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--m", "--t-re", "--t-im", "--abs-tol"])
def test_cli_rejects_removed_flags(flag):
    assert main(["eval", "--theta", "1", flag, "5"]) == 2


@pytest.mark.parametrize("argv", [
    ["suite", "--theta", "1.0"],
    ["identity", "--name", "linearization", "--n", "3"],
    ["table", "--z-re", "5"],
    ["table", "--format", "json"],
    ["table", "--n", "3"],
    ["eval", "--theta", "1", "--quad-tol", "1e-9"],
    ["eval", "--theta", "1", "--z-im", "0.3"],
], ids=" ".join)
def test_cli_rejects_flags_a_command_does_not_read(argv):
    assert main(argv) == 2


def _accepted_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sp._actions
                   if not isinstance(action, argparse._HelpAction)
                   for flag in action.option_strings}
            for name, sp in sub.choices.items()}


_BASE = {"eval": ["eval", "--z-re", "0.6"],
         "identity": ["identity", "--name", "ramanujan_1psi1"],
         "suite": ["suite"],
         "table": ["table"]}

# per command and flag, an argv that differs from the command's base by
# that flag and must change the output or the exit code
_PROBES = {
    "eval": {"--kind": ["--kind", "classical"], "--format": ["--format", "json"],
             "--n": ["--n", "1"], "--z-im": ["--z-im", "0.3"]},
    "identity": {"--quad-tol": ["--quad-tol", "0"],
                 "--format": ["--format", "csv"],
                 "--name": ["--name", "bailey_2psi2_single"]},
    "suite": {"--quad-tol": ["--quad-tol", "0"], "--format": ["--format", "csv"]},
    "table": {"--kind": ["--kind", "classical"], "--n-min": ["--n-min", "-1"],
              "--n-max": ["--n-max", "1"], "--theta-min": ["--theta-min", "1.0"],
              "--theta-max": ["--theta-max", "1.0"],
              "--theta-steps": ["--theta-steps", "2"]},
}
# a malformed configuration value is the program's error, not argparse's
_CONFIG_PROBES = {flag: [flag, "abc"] for flag in (
    "--q", "--beta", "--gamma", "--rel-tol", "--max-terms")}
_CONFIG_PROBES["--config"] = ["--config", "missing.cfg"]
_POINT_PROBES = {"--x": ["eval", "--x", "0.3"], "--theta": ["eval", "--theta", "1.0"],
                 "--z-re": ["eval", "--z-re", "1.6"]}


def _probe_argvs(command):
    argvs = {flag: _BASE[command] + extra for flag, extra in
             {**_CONFIG_PROBES, **_PROBES[command]}.items()}
    return {**argvs, **(_POINT_PROBES if command == "eval" else {})}


def test_every_accepted_flag_has_a_probe():
    assert {c: set(_probe_argvs(c)) for c in _BASE} == _accepted_flags()


def _fast_suite(cfg):
    # the suite's configuration path and report, on one cheap entry
    entry = run_identity("ramanujan_1psi1", cfg)
    return VerificationReport(SUITE_VERSION, (entry,), entry.passed)


@pytest.mark.parametrize("command", sorted(_BASE))
def test_every_accepted_flag_changes_output_or_exit_code(
        command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("qultra.cli.run_suite", _fast_suite)
    monkeypatch.chdir(tmp_path)

    def outcome(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert "usage:" not in err, (argv, err)
        return code, out

    base = outcome(_BASE[command])
    assert base[0] == 0
    for flag, argv in _probe_argvs(command).items():
        assert outcome(argv) != base, flag


def test_cli_identity_uses_the_suite_renderer(default_report, capsys):
    suite_text = render_report(default_report, "text").splitlines()
    suite_csv = render_report(default_report, "csv").splitlines()
    assert main(["identity", "--name", "kernel_integral"]) == 0
    line = next(s for s in suite_text if " kernel_integral " in s)
    assert capsys.readouterr().out == line + "\noverall: PASS\n"
    assert main(["identity", "--name", "kernel_integral", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == suite_csv[0] == ("identity_name,residual,tolerance,passed,"
                                       "terms_used,nodes_used,skipped,note")
    assert rows[1:] == [r for r in suite_csv if r.startswith("kernel_integral,")]


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("qultra ")]


def test_readme_shows_every_command():
    assert {argv[0] for argv in _readme_commands()} == set(_BASE)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines_run(argv, capsys):
    assert main(argv) == 0


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 1.5\n# note\nbeta= 2 # tail\n")
    assert read_config_file(str(cfg)) == {"alpha": "1.5", "beta": "2"}


def _child_env():
    # the child imports the qultra this process imported, however it got on
    # the path (PYTHONPATH, an install, or pytest's pythonpath setting)
    src = str(Path(qultra.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}


def test_cli_suite_subprocess_deterministic():
    env = _child_env()
    cmd = [sys.executable, "-m", "qultra.cli", "suite", "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    json.loads(r1.stdout)


def test_cli_parser_rejects_unknown_command():
    assert main(["frobnicate"]) == 2



def test_cli_table_flag_errors(capsys):
    for args, message in ((["--n-min", "2", "--n-max", "1"], "--n-max must be >= --n-min"),
                          (["--kind", "classical", "--n-min", "-1"],
                           "classical polynomials need n >= 0"),
                          (["--theta-steps", "0"], "--theta-steps must be >= 1")):
        assert main(["table"] + args) == 2, args
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_eval_csv(capsys):
    assert main(["eval", "--n", "0", "--theta", "1.0", "--format", "csv"]) == 0
    header, row, end = capsys.readouterr().out.split("\n")
    assert (header, end) == ("re,im,terms", "")
    re_, im, terms = row.split(",")
    assert float(re_) and int(terms) > 0 and math.isfinite(float(im))
