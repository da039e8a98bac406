"""Command line harness: golden checks, outputs, determinism."""

import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from acclab.cli import _PARSERS, DEFAULT_CONFIG, main, read_config


def run(argv):
    return main(argv)


def test_verify_tables_all_green(capsys):
    assert run(["verify-tables"]) == 0
    out = capsys.readouterr().out
    assert "lift table            ok" in out


def test_faces_golden_exit_codes(capsys):
    assert run(["faces", "b_heat"]) == 0
    out = capsys.readouterr().out
    assert out.count("F_") == 5
    assert run(["faces", "acc_triple_heat"]) == 0
    out = capsys.readouterr().out
    assert out.count("S_") == 12
    assert run(["faces", "sc_heat"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("F_") for line in out.splitlines()) == 6
    assert run(["faces", "acc_heat"]) == 0
    out = capsys.readouterr().out
    assert out.count("C_") == 4


def test_faces_json_artifact(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "faces", "acc_double"]) == 0
    payload = json.loads((tmp_path / "faces_acc_double.json").read_text())
    assert [f["name"] for f in payload["faces"]] \
        == ["F_1010", "F_1001", "F_0110", "F_0101"]
    assert len(payload["corners"]) == 5


def test_lift_golden_rows(capsys):
    assert run(["lift", "beta_R", "rho_d2"]) == 0
    out = capsys.readouterr().out
    assert "rho_d02*rho_d3" in out and "[mechanical]" in out
    assert run(["lift", "beta_L", "rho_100"]) == 0
    out = capsys.readouterr().out
    assert "published: rho_10000*rho_10100" in out
    assert "diverges" in out
    assert run(["lift", "beta_C", "1"]) == 0
    assert "= 1" in capsys.readouterr().out
    assert run(["lift", "beta_L", "rho_110^2*rho_001"]) == 0
    out = capsys.readouterr().out
    assert "rho_11000^2" in out and "rho_11100^2" in out


def test_lift_unknown_face(capsys):
    assert run(["lift", "beta_L", "rho_nope"]) == 2
    assert run(["lift", "beta_Q", "rho_110"]) == 2


@pytest.mark.parametrize("monomial, message", [
    ("foo", "cannot parse monomial factor 'foo'"),
    ("rho_d2^x", "Invalid literal for Fraction: 'x'"),
    ("rho_d2^1/0", "Fraction\\(1, 0\\)"),
])
def test_lift_malformed_monomial_exits_2(capsys, monomial, message):
    assert run(["lift", "beta_C", monomial]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match("error: " + message, captured.err)


def test_compose_sc_cli(tmp_path, capsys):
    a = {"calculus": "sc", "k": "-2",
         "faces": {"110": {"terms": [[0, 1, 0]], "step": 1},
                   "220": {"terms": [[0, 1, 0]], "step": 1}}}
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(a))
    assert run(["compose", "--calculus", "sc", str(pa), str(pa)]) == 0
    out = capsys.readouterr().out
    assert '"k": "-4"' in out
    assert run(["compose", "--calculus", "sc", "--pipeline",
                str(pa), str(pa)]) == 0
    out = capsys.readouterr().out
    assert '"k": "-4"' in out


def test_compose_pipeline_is_sc_only(tmp_path, capsys):
    el = {"calculus": "b", "k": "-2",
          "faces": {"110": {"terms": [[0, 1, 0]], "step": 1}}}
    p = tmp_path / "b.json"
    p.write_text(json.dumps(el))
    assert run(["compose", "--calculus", "b", str(p), str(p)]) == 0
    capsys.readouterr()
    assert run(["compose", "--calculus", "b", "--pipeline", str(p), str(p)]) == 2
    captured = capsys.readouterr()
    assert "--pipeline applies to the sc calculus only" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", [
    '{"calculus": "sc", "faces": {}}',                        # no "k"
    '{"calculus": "sc", "k": 1.5, "faces": {}}',              # float order
    '{"calculus": "sc", "k": "-2", "faces": [1, 2]}',         # faces a list
    '{"calculus": "sc", "k": "-2", "faces": {"110": [[0, 1]]}}',  # short term
    '{"calculus": "sc", "k": "-2", "faces": {"110": [[0, 0, 0]]}}',  # 0/0
    '{"calculus": "sc", "k": "-2", "faces": {"110": [[0, 1, 0]]}}',  # no F_220
    '{"calculus": "sc", "k": "-2",',                          # no JSON
])
def test_compose_malformed_element_exits_2(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert run(["compose", "--calculus", "sc", str(p), str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("malformed element: ")
    assert captured.out == ""


def test_compose_conic_named_precondition(tmp_path, capsys):
    el = {"calculus": "conic", "k": "0",
          "faces": {"100": {"terms": [[1, 1, 0]], "step": 1},
                    "010": {"terms": [[1, 1, 0]], "step": 1},
                    "112": {"terms": [[2, 1, 0]], "step": 1}}}
    p = tmp_path / "el.json"
    p.write_text(json.dumps(el))
    assert run(["compose", "--calculus", "conic", str(p), str(p)]) == 3
    err = capsys.readouterr().err
    assert "-k_a > 0 violated" in err


def test_compose_acc_conjectural_flag(tmp_path, capsys):
    el = {"calculus": "acc", "k": "-2",
          "faces": {f: {"terms": [[2, 1, 0]], "step": 1}
                    for f in ("1010", "0101", "1001", "0110")}}
    p = tmp_path / "acc.json"
    p.write_text(json.dumps(el))
    assert run(["compose", "--calculus", "acc", str(p), str(p)]) == 0
    assert "conjectural" in capsys.readouterr().out


def test_config_validation(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[schedule]\neps = 0.1,0.2\n")
    with pytest.raises(SystemExit, match="decreasing"):
        run(["--config", str(bad), "spectrum"])


@pytest.mark.parametrize("text, message", [
    ("[solver]\ngird_n = 256\n", "unknown key 'gird_n' in \\[solver\\]"),
    ("[solver]\ngrid_kind = graded\n", "unknown key 'grid_kind'"),
    ("[probes]\ncount = 3\n", "unknown key 'count' in \\[probes\\]"),
    ("[sovler]\ngrid_n = 256\n", "unknown section \\[sovler\\]"),
    ("[model]\nouter_bc = neumann\n", "unknown key 'outer_bc' in \\[model\\]"),
])
def test_config_rejects_unknown_sections_and_keys(tmp_path, text, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(SystemExit, match="config error: " + message):
        run(["--config", str(bad), "spectrum"])


@pytest.mark.parametrize("text, message", [
    ("[model]\nn = three\n", "\\[model\\] n = three: invalid literal"),
    ("[probes]\ntimes = 0.1,abc\n",
     "\\[probes\\] times = 0.1,abc: could not convert"),
    ("[model]\nc = -1\n", "\\[model\\] cone slope c must be positive"),
    ("[model]\nprofile = neck\nc = -1\n",
     "\\[model\\] cone slope c must be positive"),
    ("[model]\nn = 2\n", "\\[model\\] dimension n >= 3 required"),
    ("[model]\nc = nan\n", "\\[model\\] c = nan: need a finite value"),
    ("[model]\nc = inf\n", "\\[model\\] c = inf: need a finite value"),
    ("[schedule]\neps = inf,0.1,0.05,0.025\n",
     "\\[schedule\\] eps = inf,0.1,0.05,0.025: need a finite value"),
    ("[solver]\nrel_tol = nan\n",
     "\\[solver\\] rel_tol = nan: need a finite value"),
    ("[probes]\ntimes = 0.1,inf\n",
     "\\[probes\\] times = 0.1,inf: need a finite value"),
    ("[probes]\ntau = inf\n", "\\[probes\\] tau = inf: need a finite value"),
    ("n = 3\n", "cannot read .*no section headers"),
    (None, "cannot read .*No such file"),                 # no file at all
])
def test_config_rejects_bad_values(tmp_path, text, message):
    bad = tmp_path / "bad.ini"
    if text is not None:
        bad.write_text(text)
    for command in (["spectrum"], ["heat", "--regime", "interior"]):
        with pytest.raises(SystemExit, match="config error: " + message):
            run(["--config", str(bad), "--out", str(tmp_path)] + command)


@pytest.mark.parametrize("command, text, message", [
    ("spectrum", "[solver]\ngrid_n = 8\n",
     "\\[solver\\] grid_n = 8: grid too coarse"),
    ("spectrum", "[solver]\ngrid_n = -4\n",
     "\\[solver\\] grid_n = -4: grid too coarse"),
    ("spectrum", "[solver]\ncount = 0\n", "\\[solver\\] count = 0: "),
    ("spectrum", "[solver]\nell_max = 40\n",
     "\\[solver\\] ell_max = 40: need 0 <= ell_max <= mode_count - 1 = 11"),
    ("heat --regime interior", "[probes]\nell_max = 40\n",
     "\\[probes\\] ell_max = 40: need 0 <= ell_max <= mode_count - 1 = 11"),
    ("heat --regime interior", "[probes]\ntimes =\n",
     "\\[probes\\] times = : need a non-empty list of positive values"),
    ("heat --regime scaled", "[probes]\nscaled_eps =\n",
     "\\[probes\\] scaled_eps = : need a non-empty list"),
    ("heat --regime scaled", "[probes]\nscaled_eps = 0.4,0.5\n",
     "\\[probes\\] scaled_eps = 0.4,0.5: need a strictly decreasing list "
     "of positive values"),
    ("spectrum", "[schedule]\neps = 0.2,-0.1\n",
     "\\[schedule\\] eps = 0.2,-0.1: need a strictly decreasing list of "
     "positive values"),
    ("heat --regime interior", "[schedule]\neps = 0.2,0\n",
     "\\[schedule\\] eps = 0.2,0: need a strictly decreasing list"),
    ("flow", "[schedule]\neps = 0.2,0.1,0.05\n",
     "\\[schedule\\] eps = 0.2,0.1,0.05: flow needs at least 4 values"),
    ("heat --regime interior", "[probes]\nx = 50\n",
     "\\[probes\\] x = 50: outside the radial domain \\[0.0, 1.0\\] of the "
     "interior probe"),
    ("heat --regime interior", "[probes]\nxprime = -0.25\n",
     "\\[probes\\] xprime = -0.25: outside the radial domain \\[0.0, 1.0\\]"),
    ("heat --regime interior", "[model]\nprofile = neck\n[probes]\nx = 1.5\n",
     "\\[probes\\] x = 1.5: outside the radial domain \\[-1.0, 1.0\\]"),
    ("heat --regime interior", "[probes]\nx = 0\n",
     "\\[probes\\] x = 0: need a positive value"),
    ("heat --regime interior", "[model]\nc = 0.8\n[probes]\nx = 1.0\n",
     "\\[probes\\] x = 1.0: on the outer Dirichlet end 1.0 of the interior "
     "probe, where both kernels vanish"),
    ("heat --regime interior",
     "[model]\nprofile = neck\n[probes]\nxprime = 1.0\n",
     "\\[probes\\] xprime = 1.0: on the outer Dirichlet end 1.0"),
    ("heat --regime interior",
     "[model]\nprofile = neck\nc = 0.8\n[probes]\nx = -0.5\nxprime = -0.5\n",
     "\\[probes\\] x = -0.5: need a positive value"),
    ("heat --regime scaled", "[probes]\nh = 0\n",
     "\\[probes\\] h = 0: need a positive value"),
    ("heat --regime scaled", "[probes]\ntau = -1\n",
     "\\[probes\\] tau = -1: need a positive value"),
    ("heat --regime scaled", "[probes]\nrho = 0\n",
     "\\[probes\\] rho = 0: need a positive value"),
    ("heat --regime scaled", "[probes]\nrhop = -2\n",
     "\\[probes\\] rhop = -2: need a positive value"),
    ("heat --regime scaled", "[probes]\nref_radius = 0\n",
     "\\[probes\\] ref_radius = 0: need a positive value"),
])
def test_config_rejects_out_of_range_values(tmp_path, command, text, message):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(SystemExit, match="config error: " + message):
        run(["--config", str(bad), "--out", str(tmp_path)] + command.split())


_positive = st.floats(1e-3, 1e3)
_positive_lists = st.lists(_positive, min_size=1, max_size=5)


@st.composite
def _configs(draw):
    """Every key of DEFAULT_CONFIG, with a value in the range that both
    `read_config(..., "solver")` and `read_config(..., "probes")` accept."""
    mode_count = draw(st.integers(1, 20))
    ell_max = st.integers(0, mode_count - 1)
    return {
        "model": {"n": draw(st.integers(3, 8)), "c": draw(_positive),
                  "profile": draw(st.sampled_from(["capped", "neck"])),
                  "mode_count": mode_count},
        "schedule": {"eps": sorted(set(draw(_positive_lists)), reverse=True)},
        "solver": {"grid_n": draw(st.integers(16, 8192)),
                   "count": draw(st.integers(1, 100)),
                   "ell_max": draw(ell_max), "rel_tol": draw(_positive)},
        "probes": {"x": draw(_positive), "xprime": draw(_positive),
                   "times": draw(_positive_lists), "rho": draw(_positive),
                   "rhop": draw(_positive), "tau": draw(_positive),
                   "scaled_eps": sorted(set(draw(_positive_lists)),
                                        reverse=True),
                   "ell_max": draw(ell_max), "h": draw(_positive),
                   "ref_radius": draw(_positive)},
    }


def _ini_text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_configs())
def test_read_config_round_trip(tmp_path_factory, config):
    assert {s: set(keys) for s, keys in config.items()} \
        == {s: set(keys) for s, keys in DEFAULT_CONFIG.items()}
    path = tmp_path_factory.mktemp("cfg") / "cfg.ini"
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {_ini_text(value)}\n"
                                   for key, value in values.items())
        for section, values in config.items()))
    for reads in ("solver", "probes"):
        cp = read_config(str(path), reads)
        assert {s: {k: _PARSERS.get(k, str)(v) for k, v in cp[s].items()}
                for s in cp.sections()} == config


# config -> what its refusal must say: which [probes] value and radius
_REFUSALS = {
    "[probes]\nh = 0.3\n":
        "grid step h = 0.3 on the truncation radius 12.0: count > N/4",
    "[probes]\nrho = 5\n": "truncation-domain influence detected",
    "[probes]\nrho = 3.0\n":
        "probe point rho = 3.0 lies beyond the truncation radius 2.0",
    "[probes]\nrhop = 10.0\n":
        "probe point rhop = 10.0 lies beyond the truncation radius 6.0",
    "[probes]\nscaled_eps = 0.5,0.3\n":
        "grid step h = 0.0078125 does not divide the truncation radius "
        "3.3333333333333335",
}


@pytest.mark.parametrize("text", list(_REFUSALS))
def test_solver_refusal_exits_3_with_message(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "--out", str(tmp_path),
                "heat", "--regime", "scaled"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert _REFUSALS[text] in err


def test_spectrum_and_flow_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("\n".join([
        "[model]", "n = 3", "c = 1.0", "profile = capped", "mode_count = 8",
        "[schedule]", "eps = 0.2,0.1,0.05,0.025",
        "[solver]", "grid_n = 256", "count = 3", "ell_max = 2",
    ]) + "\n")
    assert run(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 0
    csv = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "eps,mode_mu,mode_mult,k,lambda,err_est"
    assert any(line.startswith("0,") for line in csv[1:])

    assert run(["--config", str(cfg), "--out", str(tmp_path), "flow"]) == 0
    out = capsys.readouterr().out
    assert "both inclusions hold" in out and "match" in out
    summary = json.loads((tmp_path / "clusters.json").read_text())
    assert summary["verdict"]["multiplicities_match"] is True

    # byte-identical rerun
    first = (tmp_path / "flow.csv").read_bytes()
    assert run(["--config", str(cfg), "--out", str(tmp_path), "flow"]) == 0
    assert (tmp_path / "flow.csv").read_bytes() == first


def test_heat_flat_ball_regime(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "heat", "--regime", "flat_ball"]) == 0
    payload = json.loads((tmp_path / "heat_flat_ball.json").read_text())
    assert payload["identity_defect"] < 1e-8


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "acclab.cli", "faces",
                           "conic_heat"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "F_112" in proc.stdout


def test_data_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ACCLAB_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        run(["verify-tables"])


def test_verify_tables_flag_and_bare_invocation():
    assert run([]) == 2


# Runs one command in a fresh interpreter, then prints which of the numerical
# packages it loaded on its last stdout line.
_IMPORT_PROBE = """
import json, sys
import acclab.cli
code = acclab.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted({"numpy", "scipy"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv", [
    [],                                       # import acclab, acclab.cli
    ["faces", "sc_heat"],
    ["lift", "beta_C", "rho_d2"],
    ["compose", "--calculus", "sc", "sc.json", "sc.json"],
    ["compose", "--calculus", "sc", "--pipeline", "sc.json", "sc.json"],
    ["compose", "--calculus", "acc", "acc.json", "acc.json"],
    ["verify-tables"],
])
def test_exact_subcommands_load_no_numpy_or_scipy(tmp_path, argv):
    (tmp_path / "sc.json").write_text(json.dumps(
        {"calculus": "sc", "k": "-2",
         "faces": {"110": {"terms": [[0, 1, 0]], "step": 1},
                   "220": {"terms": [[0, 1, 0]], "step": 1}}}))
    (tmp_path / "acc.json").write_text(json.dumps(
        {"calculus": "acc", "k": "-2",
         "faces": {f: {"terms": [[2, 1, 0]], "step": 1}
                   for f in ("1010", "0101", "1001", "0110")}}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
