import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qultra
from qultra import ConfigError
from qultra.cli import main, read_config_file, build_parser
from qultra.verify import (identity_names, render_json, run_identity,
                           run_suite)


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
                 "ramanujan_1psi1"):
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


def test_zero_tolerance_config_error():
    with pytest.raises(ConfigError):
        run_suite({"rel_tol": 0.0})


def test_unknown_config_key_error():
    with pytest.raises(ConfigError):
        run_suite({"bogus": 1.0})


def test_run_identity_unknown_name():
    with pytest.raises(ConfigError):
        run_identity("unheard_of")


def test_delta_entry_passes_above_one():
    # beta > 1: the measure has a mass pair the entry must integrate
    entry = run_identity("bilateral_delta_integral",
                         {"delta_q": 0.5, "delta_beta": 1.5})
    assert entry.passed and not entry.skipped


@pytest.mark.parametrize("cfg", [
    {"q": 0.5},
    {"q": 0.1, "beta": 0.95, "gamma": 0.3},
    {"q": 0.5, "beta": 0.9, "gamma": 0.4},
    {"q": 0.3, "beta": -0.5, "gamma": 0.7},
])
def test_crosscheck_skips_where_a_route_does_not_apply(cfg):
    entry = run_identity("bilateral_cn_continuation_crosscheck", cfg)
    # the 2psi2 route is out of region at z = q^{1/2} e^{0.4i} here
    assert entry.skipped and entry.passed
    assert "transformed series out of region" in entry.note


def test_shifted_entry_fails_where_shells_grow():
    entry = run_identity("shifted_orthogonality_diagonal", {"q": 0.7, "gamma": 1.5})
    assert not entry.passed and not entry.skipped
    assert entry.note.startswith("NonConvergence")


def test_shifted_scaling_entry_is_exact():
    entry = run_identity("shifted_orthogonality_scaling")
    assert entry.passed and entry.residual == 0.0


def test_identity_names_nonempty():
    assert "ramanujan_1psi1" in identity_names()


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


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 1.5\n# note\nbeta= 2 # tail\n")
    assert read_config_file(str(cfg)) == {"alpha": "1.5", "beta": "2"}


def test_cli_suite_subprocess_deterministic():
    # the child imports the qultra this process imported, however it got on
    # the path (PYTHONPATH, an install, or pytest's pythonpath setting)
    src = str(Path(qultra.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}
    cmd = [sys.executable, "-m", "qultra.cli", "suite", "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    json.loads(r1.stdout)


def test_cli_parser_rejects_unknown_command():
    assert main(["frobnicate"]) == 2
