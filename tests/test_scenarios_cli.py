import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

from conftest import three_block_cycle

import metamap
from metamap import metastability
from metamap.cli import main
from metamap.families import DEFAULT_EPS_LIST, family_a
from metamap.map_model import validate_hypotheses
from metamap.metastability import SweepRow, markov_stationary
from metamap.runner import _cell, run_scenario
from metamap.scenarios import (ScenarioError, critical_denominator_lcm,
                               grid_warnings, load_scenario, suggested_grid_n)

FAMILY_A_JSON = {
    "name": "family-a-from-file",
    "boundary": "1/2",
    "branches": [
        {"domain": ["0", "1/6"], "slope": 3, "intercept": 0},
        {"domain": ["1/6", "1/3"], "slope": 3, "intercept": "-1/2", "intercept_eps": 3},
        {"domain": ["1/3", "1/2"], "slope": -3, "intercept": "3/2"},
        {"domain": ["1/2", "2/3"], "slope": -3, "intercept": "5/2"},
        {"domain": ["2/3", "5/6"], "slope": 3, "intercept": "-3/2", "intercept_eps": -1},
        {"domain": ["5/6", "1"], "slope": 3, "intercept": -2},
    ],
    "eps_list": [0.02, 0.01],
    "grid_n": 384,
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_builtin_family_a_defaults():
    scn = load_scenario("builtin:family_a")
    assert scn.kind == "family"
    assert scn.grid_n == 3840
    assert scn.eps_list == DEFAULT_EPS_LIST
    assert scn.family.first_order_holes() == pytest.approx(
        [(1 / 3, -1, 1.0, True), (2 / 3, 1, 1 / 3, False)])


def test_builtin_markov_routes_to_markov_kind():
    scn = load_scenario("builtin:markov2")
    assert scn.kind == "markov"
    assert scn.markov_pairs == ((0.01, 0.03),)


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError):
        load_scenario("builtin:nope")


def test_load_scenario_file_round_trip(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, FAMILY_A_JSON))
    fam = scn.family
    assert scn.name == "family-a-from-file"
    assert len(fam.base.branches) == 6
    assert fam.base.branches[1].intercept == pytest.approx(-0.5)
    assert fam.intercept_eps == (0, 3, 0, 0, -1, 0)
    # (c, side, width rate, left): 1/3- at rate 1 and 2/3+ at rate 1/3
    assert fam.first_order_holes() == pytest.approx(
        [(1 / 3, -1, 1.0, True), (2 / 3, 1, 1 / 3, False)])
    assert scn.eps_list == (0.02, 0.01)
    assert scn.grid_n == 384


def test_dropped_scenario_keys_are_ignored(tmp_path):
    # hole coefficients, Lebesgue halves and the (I2) depth are derived or
    # fixed now; a file that still sets them loads as one that does not
    old = dict(FAMILY_A_JSON, lebesgue_halves=True, hypothesis_depth=3,
               holes=[{"location": "1/3", "a": 5, "b": 0}])
    got = load_scenario(write_scenario(tmp_path, old, "old.json"))
    want = load_scenario(write_scenario(tmp_path, FAMILY_A_JSON))
    assert got.family == want.family
    assert (got.eps_list, got.grid_n) == (want.eps_list, want.grid_n)


def test_grid_rule_warnings(tmp_path):
    data = dict(FAMILY_A_JSON, grid_n=100)
    scn = load_scenario(write_scenario(tmp_path, data))
    assert any("multiple" in w for w in grid_warnings(scn))
    data = dict(FAMILY_A_JSON, grid_n=384)
    scn = load_scenario(write_scenario(tmp_path, data))
    assert any("12/min(eps)" in w for w in grid_warnings(scn))


def test_missing_file():
    with pytest.raises(ScenarioError) as err:
        load_scenario("/nonexistent/path.json")
    assert "not found" in str(err.value)


def test_invalid_json_cites_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  bad\n}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "line 3" in str(err.value)


def test_overlapping_branch_domains_cite_branches(tmp_path):
    data = dict(FAMILY_A_JSON)
    data["branches"] = [
        {"domain": ["0", "0.6"], "slope": 1.5, "intercept": 0},
        {"domain": ["0.5", "1"], "slope": 2, "intercept": -1},
    ]
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, data))
    assert "tile" in str(err.value)


def test_bad_rational_cites_field(tmp_path):
    data = dict(FAMILY_A_JSON)
    data["boundary"] = "1/0"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, data))
    assert "boundary" in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    # json reads NaN; validate passed it and run failed on a missing hole
    (("branches", 1, "intercept_eps"), math.nan,
     "branches[1].intercept_eps: expected a finite number, got nan"),
    (("branches", 4, "slope_eps"), -math.inf,
     "branches[4].slope_eps: expected a finite number, got -inf"),
    (("boundary",), math.inf, "boundary: expected a finite number, got inf"),
    # these raised OverflowError out of float()
    (("branches", 2, "slope"), "-3e400",
     "branches[2].slope: expected a finite number, got '-3e400'"),
    (("branches", 0, "intercept"), -10 ** 400,
     "branches[0].intercept: expected a finite number, got -1000"),
    (("eps_list", 0), 10 ** 400, "eps_list: values must be finite, got one that overflows"),
], ids=["nan", "-inf", "inf", "string-overflow", "int-overflow", "eps-int-overflow"])
def test_non_finite_or_overflowing_numbers_cite_field(tmp_path, capsys, field, value,
                                                      message):
    data = json.loads(json.dumps(FAMILY_A_JSON))
    target = data
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert message in str(err.value)
    out = tmp_path / "out"
    for command in (["validate"], ["run", "--out", str(out)]):
        assert main([*command, "--scenario", path]) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_fields(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, {"name": "x"}))
    msg = str(err.value)
    assert "branches" in msg and "boundary" in msg


def test_suggested_grid_rule(fam_a):
    assert critical_denominator_lcm(fam_a.base) == 6
    assert suggested_grid_n(fam_a, [0.02, 0.01]) == 1200
    assert suggested_grid_n(fam_a, [0.0025]) == 4800


def test_cli_markov(capsys):
    assert main(["markov", "--eps-lr", "0.01", "--eps-rl", "0.03"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.75" in out
    assert "rho = 0.96" in out


def test_cli_markov_domain_error(capsys):
    assert main(["markov", "--eps-lr", "-1", "--eps-rl", "0.03"]) == 1


@pytest.mark.parametrize("lr, rl, message", [
    # NaN used to pass every check and print alpha = nan with exit 0
    ("nan", "0.1", "--eps-lr: expected a finite number, got nan"),
    ("0.1", "inf", "--eps-rl: expected a finite number, got inf"),
])
def test_cli_markov_rejects_non_finite_eps(capsys, lr, rl, message):
    assert main(["markov", "--eps-lr", lr, "--eps-rl", rl]) == 1
    printed = capsys.readouterr()
    assert message in printed.err
    assert "alpha" not in printed.out


def test_cli_validate_family_b(capsys):
    assert main(["validate", "--scenario", "builtin:family_b"]) == 0
    out = capsys.readouterr().out
    assert "P2: FAIL" in out
    assert "I4a: pass" in out


def p2a_scenario(lift_outer=True, **middle):
    """Seven slope-4 branches with b = 1/2 an interior fixed point of the
    middle branch [3/8, 5/8]; ``lift_outer`` opens the holes with
    intercept_eps 60 on [1/4, 3/8] and -20 on [5/8, 3/4], which push the
    image of [1/4, 3/8] out of [0, 1] at eps = 0.01."""
    cuts = ["0", "1/8", "1/4", "3/8", "5/8", "3/4", "7/8", "1"]
    branches = [{"domain": [lo, hi], "slope": 4, "intercept": -k / 2}
                for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    if lift_outer:
        branches[2]["intercept_eps"] = 60
        branches[4]["intercept_eps"] = -20
    branches[3].update(middle)
    return {"name": "p2a", "boundary": "1/2", "branches": branches,
            "eps_list": [0.002, 0.001], "grid_n": 12000}


def test_cli_p2a_probe_outside_admissible_range_is_skipped(tmp_path, capsys):
    # (P2a) is probed at the scenario's eps; the map at eps = 0.01 raises
    # "branch image [0.6, 1.1] escapes [0,1]", which used to abort both
    # commands.  Now the probe is skipped and only that eps's row fails.
    data = p2a_scenario()
    data["eps_list"] = [0.01, 0.002, 0.001]
    path = write_scenario(tmp_path, data)
    skipped = "(P2a) not checked at eps=0.01: branch image [0.6, 1.1] escapes [0,1]"
    assert main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "P2: pass" in out and skipped in out
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert payload["hypotheses"]["P2"] is True
    assert skipped in payload["hypotheses"]["diagnostics"]
    errors = [r["error"] for r in payload["rows"]]
    assert errors == ["branch image [0.6, 1.1] escapes [0,1]", None, None]


def test_cli_p2a_probes_the_scenario_eps(tmp_path, capsys):
    # admissible only for eps <= 1/1200: probes fixed at eps 0.01 and 0.001
    # were both skipped, and P2 read FAIL with no failure diagnostic
    data = p2a_scenario()
    data["branches"][2]["intercept_eps"] = 600
    data["branches"][4]["intercept_eps"] = -200
    data.update(eps_list=[0.0002, 0.0001], grid_n=120000)
    assert main(["validate", "--scenario", write_scenario(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert "P2: pass" in out and "(P2a)" not in out


@pytest.mark.parametrize("lift_outer, eps", [(False, 0.01), (True, 0.001)])
def test_validate_p2a_fails_when_perturbation_moves_b(tmp_path, lift_outer, eps):
    # T_eps(1/2) = 1/2 - eps/4 on the middle branch
    data = p2a_scenario(lift_outer, slope_eps=-4, intercept_eps=1.75)
    data["eps_list"] = [0.01, 0.001]
    scn = load_scenario(write_scenario(tmp_path, data))
    report = validate_hypotheses(scn.family, scn.eps_list)
    assert not report.P2
    assert f"(P2a) fails: T_eps(b) != b at eps={eps}" in report.diagnostics
    assert ("(P2a) not checked at eps=0.01: branch image [0.6, 1.1] escapes [0,1]"
            in report.diagnostics) == lift_outer


def test_cli_validate_markov_scenario(capsys):
    assert main(["validate", "--scenario", "builtin:markov2"]) == 0
    assert "markov scenarios have no map hypotheses to validate" in capsys.readouterr().out


def test_cli_run_markov_scenario(tmp_path):
    out = tmp_path / "markov"
    assert main(["run", "--scenario", "builtin:markov2", "--out", str(out)]) == 0
    alpha, rho = markov_stationary(0.01, 0.03)
    assert (out / "markov.csv").read_text().splitlines() == [
        "eps_lr,eps_rl,alpha,rho", f"0.01,0.03,{alpha!r},{rho!r}"]


@pytest.mark.parametrize("source", ["builtin:family_a", "builtin:family_b",
                                    "builtin:markov2", "demos/scenario_family_a.json"])
def test_run_reports_are_written_from_their_records(tmp_path, capsys, source):
    # hypotheses.txt is its scenario line and what validate prints, the
    # sweep.json block is the report's asdict, and the sweep.csv columns are
    # the SweepRow fields but warnings
    if not source.startswith("builtin:"):
        source = str(Path(__file__).resolve().parents[1] / source)
    scn = load_scenario(source)
    assert main(["validate", "--scenario", source]) == 0
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["run", "--scenario", source, "--out", str(out)]) == 0
    if scn.kind == "markov":
        assert printed == ["markov scenarios have no map hypotheses to validate"]
        assert sorted(p.name for p in out.iterdir()) == ["markov.csv"]
        return
    assert (out / "hypotheses.txt").read_text().splitlines() == \
        [f"scenario: {scn.name}", *printed]
    # family A and its scenario file hold, family B fails (I2) and P2
    verdict = "FAIL" if scn.name == "family_b" else "pass"
    assert printed[2:6] == [f"I2 (depth 8): {verdict}", "I3: not checked",
                            "I4a: pass", f"P2: {verdict}"]
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["hypotheses"] == dataclasses.asdict(
        validate_hypotheses(scn.family, scn.eps_list))
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == ("eps,lhr_emp,alpha_pred,l1_phi_vs_mixture,l1_psi_vs_half_diff,rho,"
                      "flux_gap,escape_ratio_l,escape_ratio_r,mu_Il,leading_simple,error")
    assert header.split(",") == [f.name for f in dataclasses.fields(SweepRow)
                                 if f.name != "warnings"]


def test_cli_run_skips_saltus_only_at_eps_below_expansion_two(tmp_path, capsys):
    # the first branch's slope 3 - 60 eps is 1.8 at eps = 0.02 and 2.4 at
    # 0.01: the variation bounds exist at 0.01 only, and both rows succeed
    branches = [dict(b) for b in FAMILY_A_JSON["branches"]]
    branches[0]["slope_eps"] = -60
    path = write_scenario(tmp_path, dict(FAMILY_A_JSON, branches=branches,
                                         eps_list=[0.02, 0.01], grid_n=1200))
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    assert "saltus analysis skipped at eps=0.02: min expansion 1.8" in capsys.readouterr().out
    assert len((out / "sweep.csv").read_text().splitlines()) == 3
    payload = json.loads((out / "sweep.json").read_text())
    assert [r["error"] for r in payload["rows"]] == [None, None]
    assert list(payload["saltus"]) == ["0.01"]
    assert (out / "saltus_0.01.csv").exists()
    assert not (out / "saltus_0.02.csv").exists()


def test_cli_run_small_scenario_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv = ["run", "--scenario", "builtin:family_a", "--eps", "0.02,0.01",
            "--grid", "192", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "sweep.csv" in names and "sweep.json" in names
    assert "density_0.02.csv" in names and "density_0.01.csv" in names
    assert "saltus_0.01.csv" in names
    assert "hypotheses.txt" in names
    assert {"densities.svg", "l1_vs_eps.svg", "rho_vs_eps.svg"} <= set(names)
    sweep = (out1 / "sweep.csv").read_text()
    assert len(sweep.splitlines()) == 3      # header + one row per eps
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_run_family_b_reports_boundary_warning(tmp_path):
    out = tmp_path / "famb"
    code = main(["run", "--scenario", "builtin:family_b", "--eps", "0.01",
                 "--grid", "192", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    row_warnings = payload["rows"][0]["warnings"]
    assert any("touches the boundary" in w for w in row_warnings)
    assert payload["hypotheses"]["P2"] is False


def test_cli_run_failed_rows_exit_2(tmp_path):
    # eps = 0.2 breaks the branch-image invariant, so its row fails
    code = main(["run", "--scenario", "builtin:family_a", "--eps", "0.2",
                 "--grid", "192", "--out", str(tmp_path / "bad")])
    assert code == 2
    sweep = (tmp_path / "bad" / "sweep.csv").read_text().splitlines()
    assert "escapes" in sweep[1]


def test_sweep_csv_quotes_an_error_that_holds_commas(tmp_path):
    # the eps = 0.2 row's error names an image [lo, hi] and [0,1]
    out = tmp_path / "bad"
    assert main(["run", "--scenario", "builtin:family_a", "--eps", "0.2",
                 "--grid", "192", "--out", str(out)]) == 2
    with open(out / "sweep.csv", newline="") as fh:
        head, *rows = list(csv.reader(fh))
    assert len(head) == 12 and [len(r) for r in rows] == [12]
    error = json.loads((out / "sweep.json").read_text())["rows"][0]["error"]
    assert "," in error and rows[0][head.index("error")] == error


def test_csv_cell_quotes_only_text_that_needs_it():
    assert _cell("plain text") == "plain text"
    assert _cell('say "a, b"') == '"say ""a, b"""'
    assert _cell("two\nlines") == '"two\nlines"'
    assert _cell(0.5) == "0.5" and _cell(True) == "true" and _cell(None) == ""


def test_cli_run_row_with_complex_second_eigenvalue_fails_alone(tmp_path, monkeypatch):
    # a sweep row whose matrix has a complex second pair, at a grid size no
    # dense eigensolve reaches: that row names the pair, and the other row
    # and its artifacts are intact
    n = 12288
    bad_map = family_a().instantiate(0.005)
    build = metastability.build_ulam
    monkeypatch.setattr(metastability, "build_ulam",
                        lambda m, n: three_block_cycle(n) if m == bad_map else build(m, n))
    out = tmp_path / "out"
    code = main(["run", "--scenario", "builtin:family_a", "--grid", str(n),
                 "--eps", "0.01,0.005", "--out", str(out)])
    assert code == 2
    payload = json.loads((out / "sweep.json").read_text())
    assert [r["eps"] for r in payload["rows"]] == [0.01, 0.005]
    assert payload["rows"][0]["error"] is None
    assert (out / "density_0.01.csv").exists()
    assert not (out / "density_0.005.csv").exists()
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert "complex" in sweep[2] and "complex" not in sweep[1]


def test_cli_run_on_grid_beyond_former_assembly_limit(tmp_path):
    # n = 30720 used to fail with "Ulam rows do not sum to 1"
    code = main(["run", "--scenario", "builtin:family_a", "--grid", "30720",
                 "--eps", "0.002", "--out", str(tmp_path / "fine")])
    assert code == 0


def test_cli_run_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["run", "--scenario", "builtin:family_a", "--eps", "0.02",
                 "--grid", "192", "--out", str(blocker / "sub")])
    assert code == 1


def test_cli_unknown_builtin_exit_1(capsys):
    assert main(["run", "--scenario", "builtin:zzz", "--out", "/tmp/x"]) == 1
    assert "unknown builtin" in capsys.readouterr().err


def test_cli_import_skips_scipy_optimize():
    # only smooth branches need brentq; the CLI must not pay for its import
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    code = "import sys, metamap.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0


def test_cli_run_skips_numpy_random(tmp_path):
    # the deflated start drew its generic component from numpy.random, whose
    # import took 12-16 ms of every run process
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    code = ("import sys\n"
            "from metamap.cli import main\n"
            f"assert main(['run', '--scenario', 'builtin:family_a', '--out', {str(tmp_path)!r}]) == 0\n"
            "sys.exit('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_only_the_sparse_kernel(tmp_path):
    # importing scipy.sparse costs about 0.2 s per process; the CLI loads only
    # the module of its compiled kernels, which a later import of the package
    # reuses.  A fresh process: this test session has imported scipy.sparse
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    code = (
        "import importlib, sys\n"
        "import numpy as np\n"
        "import metamap.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert scipy_modules() == ['scipy.sparse._sparsetools'], scipy_modules()\n"
        f"assert metamap.cli.main(['run', '--scenario', 'builtin:family_a', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert scipy_modules() == ['scipy.sparse._sparsetools'], scipy_modules()\n"
        # np.unique imports numpy.ma, 13-18 ms of a fresh process
        "assert 'numpy.ma' not in sys.modules\n"
        "kernel = sys.modules['scipy.sparse._sparsetools']\n"
        "from scipy import sparse\n"
        "assert importlib.import_module('scipy.sparse._sparsetools') is kernel\n"
        "from metamap.families import family_a\n"
        "from metamap.transfer_operator import build_ulam\n"
        "P = build_ulam(family_a().instantiate(0.01), 768)\n"
        "m = P.matrix\n"
        "x = np.random.default_rng(3).standard_normal(P.n)\n"
        "y = sparse.csc_matrix((m.data, m.indices, m.indptr), shape=(P.n, P.n)).T @ x\n"
        "assert y.tobytes() == P.apply(x).tobytes()\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_eps_values_sharing_a_file_label_rejected(tmp_path, capsys):
    # 0.02000001 and 0.02000002 both label their files "0.02"
    data = dict(FAMILY_A_JSON, eps_list=[0.02000001, 0.01, 0.02000002])
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, data))
    assert "0.02000002 and 0.02000001" in str(err.value)
    out = tmp_path / "clash"
    code = main(["run", "--scenario", "builtin:family_a", "--eps", "0.02000001,0.02000002",
                 "--grid", "192", "--out", str(out)])
    assert code == 1
    assert "--eps: 0.02000002 and 0.02000001" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_well_formed_svg_for_markup_in_scenario_name(tmp_path):
    path = write_scenario(tmp_path, dict(FAMILY_A_JSON, name="A&B <test>"))
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    for name in ("densities.svg", "l1_vs_eps.svg", "rho_vs_eps.svg"):
        title = minidom.parse(str(out / name)).getElementsByTagName("text")[0]
        assert title.firstChild.data.startswith("A&B <test>: "), name


@pytest.mark.parametrize("grid", ["0", "-6"])
def test_cli_grid_below_two_rejected_before_writing(tmp_path, capsys, grid):
    # 0 used to fall back to the scenario's own grid, and -6 wrote
    # hypotheses.txt before the assembly failed
    out = tmp_path / "out"
    code = main(["run", "--scenario", "builtin:family_a", "--eps", "0.02",
                 "--grid", grid, "--out", str(out)])
    assert code == 1
    assert f"--grid: expected an integer >= 2, got {grid}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps, message", [
    ("0.01,abc", "--eps: cannot parse '0.01,abc'"),
    ("0.01,-0.001", "--eps: values must be positive, got '0.01,-0.001'"),
    ("0.01,-inf", "--eps: values must be positive, got '0.01,-inf'"),
    # NaN and infinity pass `e <= 0`; they used to write the artifacts and
    # fail their row with "cannot convert float NaN to integer"
    ("nan", "--eps: values must be finite, got nan"),
    ("0.01,inf", "--eps: values must be finite, got inf"),
    # an empty --eps used to run the scenario's own eps list
    ("", "--eps: empty value in ''"),
    ("0.01,,0.02", "--eps: empty value in '0.01,,0.02'"),
])
def test_cli_eps_rejected_before_writing(tmp_path, capsys, eps, message):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "builtin:family_a", "--eps", eps,
                 "--grid", "192", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_out_rejected_before_writing(tmp_path, capsys, monkeypatch):
    # an empty --out used to fall back to the scenario's out_dir
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--scenario", "builtin:family_a", "--eps", "0.02",
                 "--grid", "192", "--out", ""])
    assert code == 1
    assert "--out: expected a directory, got ''" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out_dir", [None, 7, ""])
def test_file_out_dir_not_a_directory_rejected(tmp_path, capsys, monkeypatch, out_dir):
    # null used to run into ./None and 7 into ./7
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, dict(FAMILY_A_JSON, out_dir=out_dir))
    message = f"out_dir: expected a directory, got {out_dir!r}"
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.errors == [message]
    assert main(["validate", "--scenario", path]) == 1
    assert main(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err.count(message) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("field, value, message", [
    ("eps_list", [0.02, -0.01], "eps_list: values must be positive, got [0.02, -0.01]"),
    ("grid_n", 1, "grid_n: expected an integer >= 2, got 1"),
    ("grid_n", 384.0, "grid_n: expected an integer >= 2, got 384.0"),
])
def test_file_run_inputs_checked_as_the_flags(tmp_path, field, value, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, dict(FAMILY_A_JSON, **{field: value})))
    assert err.value.errors == [message]


def test_file_run_input_errors_reported_together(tmp_path):
    data = dict(FAMILY_A_JSON, eps_list=[], grid_n=0, out_dir=None)
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, data))
    assert err.value.errors == ["eps_list: expected at least one value",
                                "grid_n: expected an integer >= 2, got 0",
                                "out_dir: expected a directory, got None"]


def test_cli_usage_error_exits_1_and_help_exits_0(tmp_path, capsys):
    # argparse exits 2, the code of a run with failed sweep rows
    out = tmp_path / "out"
    assert main(["run", "--scenario", "builtin:family_a", "--grid", "abc",
                 "--out", str(out)]) == 1
    assert "argument --grid: invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main(["run", "--help"]) == 0
    assert "--scenario SCENARIO" in capsys.readouterr().out
    assert not out.exists()


def test_refused_sweep_writes_no_file(tmp_path, capsys):
    # at n = 769 cell 384 straddles b = 1/2, which prepare_sweep refuses;
    # the run used to write hypotheses.txt first and leave it behind
    out = tmp_path / "out"
    code = main(["run", "--scenario", "builtin:family_a", "--grid", "769",
                 "--eps", "0.02,0.01", "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr()
    assert "fatal: block [0, 385) of 769 cells is not invariant" in printed.err
    assert "hypotheses:" not in printed.out
    assert not out.exists()


def test_eps_list_of_booleans_rejected(tmp_path):
    # JSON true is a Python bool, which is an int
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, dict(FAMILY_A_JSON, eps_list=[True])))
    assert "eps_list: expected a list of numbers" in str(err.value)


def test_run_second_eigenpair_key_is_ignored(tmp_path):
    # every run computes the second pair, the escape ratios and the saltus
    # analysis, so a file whose run block still turns them off gets them
    # reported like any other
    run = {"second_eigenpair": False, "escape_rates": False, "saltus": False}
    path = write_scenario(tmp_path, dict(FAMILY_A_JSON, run=run))
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    rows = payload["rows"]
    assert all(0.0 < r["rho"] < 1.0 and r["leading_simple"] for r in rows)
    for r in rows:
        for side in ("escape_ratio_l", "escape_ratio_r"):
            assert 0.0 < r[side] < math.inf, (r["eps"], side)
    assert list(payload["saltus"]) == ["0.01", "0.02"]
    assert (out / "saltus_0.02.csv").exists() and (out / "saltus_0.01.csv").exists()


@pytest.mark.parametrize("grid_n", [None, 384])
def test_empty_eps_list_rejected_before_writing(tmp_path, capsys, grid_n):
    # without a grid_n, the grid rule used to fail on min() of the empty
    # list; with one, the empty sweep ran and exited 0
    data = dict(FAMILY_A_JSON, eps_list=[])
    if grid_n is None:
        del data["grid_n"]
    else:
        data["grid_n"] = grid_n
    path = write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.errors == ["eps_list: expected at least one value"]
    out = tmp_path / "out"
    assert main(["validate", "--scenario", path]) == 1
    assert main(["run", "--scenario", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("eps_list: expected at least one value") == 2
    assert not out.exists()


@pytest.mark.parametrize("grid_n", [None, 384])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_eps_list_rejected_before_writing(tmp_path, capsys, bad, grid_n):
    # without a grid_n, NaN used to fail the grid rule with "fatal: cannot
    # convert float NaN to integer"; infinity ran and failed its row
    data = dict(FAMILY_A_JSON, eps_list=[0.02, bad])
    if grid_n is None:
        del data["grid_n"]
    path = write_scenario(tmp_path, data)
    message = f"eps_list: values must be finite, got {bad!r}"
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.errors == [message]
    out = tmp_path / "out"
    assert main(["validate", "--scenario", path]) == 1
    assert main(["run", "--scenario", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


def test_builtin_unknown_name_message():
    with pytest.raises(ScenarioError) as err:
        load_scenario("builtin:nope")
    assert str(err.value) == ("scenario invalid:\n  - scenario: unknown builtin 'nope'; "
                              "known: ('family_a', 'family_b', 'markov2')")


def test_scenario_is_frozen():
    scn = load_scenario("builtin:family_a")
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.grid_n = 768


def _run_logged(scn):
    lines = []
    assert run_scenario(scn, log=lines.append) == 0
    payload = json.loads((Path(scn.out_dir) / "sweep.json").read_text())
    return payload["grid_warnings"], [ln for ln in lines if ln.startswith("warning: grid")]


def test_grid_warnings_follow_a_replaced_grid(tmp_path):
    scn = load_scenario("builtin:family_a")
    assert grid_warnings(scn) == ["grid n=3840 is below 12/min(eps) = 4800; the narrowest "
                                  "hole spans fewer than ~4 cells"]
    scn = dataclasses.replace(scn, grid_n=4800, out_dir=str(tmp_path / "out"))
    assert _run_logged(scn) == ([], [])


def test_grid_warnings_follow_a_replaced_eps_list(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "scenario_family_a.json"
    scn = dataclasses.replace(load_scenario(str(demo)), eps_list=(0.02, 0.01), grid_n=768,
                              out_dir=str(tmp_path / "out"))
    want = ("grid n=768 is below 12/min(eps) = 1200; the narrowest hole spans fewer "
            "than ~4 cells")
    assert _run_logged(scn) == ([want], [f"warning: {want}"])
