import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.cli import main


def _write_two_node(tmp_path: Path) -> Path:
    path = tmp_path / "two_node.csv"
    path.write_text(sw.serialize(sw.two_node_chain(), "csv"))
    return path


def _write_hub(tmp_path: Path) -> Path:
    path = tmp_path / "hub.csv"
    path.write_text(sw.serialize(sw.symmetric_hub(), "csv"))
    return path


def _dir_bytes(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_cycle_subcommand_reports_expected_counts(tmp_path):
    out = tmp_path / "out"
    code = main(["cycle", "--n", "6", "--tq-max", "12", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "cycle.json").read_text())
    assert report["measured"] == {"distinct_count": 4, "family_period": 6, "unitary_period": 6}
    assert report["match"] is True
    assert report["closed_form_max_deviation"] <= 1e-12


def test_evolve_two_node_time_series(tmp_path):
    graph = _write_two_node(tmp_path)
    out = tmp_path / "out"
    code = main([
        "evolve", "--input", str(graph), "--tq", "1",
        "--p0", "0.8,0.2", "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "evolve.csv").read_text().splitlines()
    assert lines[0] == "t,node0,node1"
    node1 = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert abs(node1[0] - 0.2) <= 1e-12
    assert abs(node1[1] - 0.88) <= 1e-12
    assert abs(node1[2] - 0.812) <= 1e-12


def test_rank_hub_ordering(tmp_path):
    graph = _write_hub(tmp_path)
    out = tmp_path / "out"
    assert main(["rank", "--input", str(graph), "--tq-max", "6", "--out", str(out)]) == 0
    report = json.loads((out / "rank.json").read_text())
    assert report["ordering"][:2] == [3, 4]
    assert len(report["residuals"]) == 6 and max(report["residuals"]) <= 1e-8
    assert report["asymmetries"][0] <= 1e-12
    assert min(report["asymmetries"][1:]) > 1e-6


def test_sample_is_deterministic(tmp_path):
    graph = _write_hub(tmp_path)
    args = ["sample", "--input", str(graph), "--tq", "2", "--steps", "10",
            "--count", "5", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _dir_bytes(out_a) == _dir_bytes(out_b)
    header = (out_a / "trajectories.csv").read_text().splitlines()[0]
    assert header.startswith("trajectory,x0,")


def test_circuit_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["circuit", "--tq", "2", "--tc", "2", "--p0", "0.8,0.2", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["ok"] is True
    assert report["block_deviation"] < 1e-9
    assert report["channel_deviation"] < 1e-10
    qasm = (out / "circuit.qasm").read_text()
    assert qasm.startswith("OPENQASM 2.0;")
    gates = json.loads((out / "gates.json").read_text())
    assert gates["t_q"] == 2 and gates["t_c"] == 2


def test_verify_subcommand_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--count", "7", "--seed", "0", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    report = json.loads((out / "verify_report.json").read_text())
    assert report["ok"] is True
    assert len(report["checks"]) >= 15


def test_presets_emit_artifacts(tmp_path):
    out3 = tmp_path / "fig3"
    assert main(["preset", "fig3", "--out", str(out3)]) == 0
    assert (out3 / "member_3.dot").exists()
    assert json.loads((out3 / "components.json").read_text())["3"] == [[0, 3], [1, 4], [2, 5]]

    out10 = tmp_path / "fig10"
    assert main(["preset", "fig10", "--out", str(out10)]) == 0
    for name in ("family.json", "member_1.dot", "evolve_tq3.csv", "manifest.json"):
        assert (out10 / name).exists()

    out4 = tmp_path / "fig4"
    assert main(["preset", "fig4", "--out", str(out4)]) == 0
    rows = json.loads((out4 / "periodicity.json").read_text())
    by_t = {r["t_q"]: r for r in rows}
    assert by_t[4]["matrix_first_equal"] == 2
    assert by_t[4]["unitary_first_equal"] == 4
    assert by_t[6]["matrix_first_equal"] == 0
    assert by_t[6]["unitary_first_equal"] == 0

    out7 = tmp_path / "fig7"
    assert main(["preset", "fig7", "--out", str(out7)]) == 0
    assert json.loads((out7 / "rank.json").read_text())["ordering"][0] == 3


def test_manifest_checksums_match(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "fig9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_rank_runs_are_byte_identical(tmp_path):
    graph = _write_hub(tmp_path)
    args = ["rank", "--input", str(graph), "--tq-max", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _dir_bytes(out_a) == _dir_bytes(out_b)


def test_cycle_check_failure_exits_1(tmp_path):
    # a tolerance below float accumulation makes period detection miss,
    # so measured != predicted and the run must signal check failure
    out = tmp_path / "out"
    code = main(["cycle", "--n", "6", "--tq-max", "12", "--tol", "1e-16", "--out", str(out)])
    assert code == 1
    assert json.loads((out / "cycle.json").read_text())["match"] is False


def test_module_entry_point_runs(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "semiwalk.cli", "cycle", "--n", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS cycle n=3" in proc.stdout


def test_bad_input_gives_json_error_and_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a matrix\n")
    code = main(["family", "--input", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_nan_input_gives_exit_2(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("n=2;orientation=column-stochastic\nnan,0.5\n0.5,0.5\n")
    out = tmp_path / "out"
    assert main(["family", "--input", str(bad), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NotStochasticError"
    assert not (out / "family.json").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, fmt):
    # read as text, this ended in UnicodeDecodeError, outside SemiwalkError
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"n=2;orientation=column-stochastic\n\xff,1\n")
    out = tmp_path / "out"
    assert main(["family", "--input", str(bad), "--format", fmt, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "not UTF-8" in err["message"] and "byte 34" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rank", "--input", "{two_csv}", "--tq-max", "2", "--tol", "nan"],
    ["cycle", "--n", "6", "--tol", "nan"],
], ids=lambda argv: argv[0])
def test_nan_tol_gives_exit_2(tmp_path, capsys, argv):
    # rank used to iterate to max_iter and report "did not settle"; cycle a mismatch
    argv = [arg.format(two_csv=_write_two_node(tmp_path)) for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "tol must be positive" in err["message"]
    assert not out.exists()


def test_rank_max_iter_flag_is_gone(tmp_path, capsys):
    # the exact solver has no iteration budget, so the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", str(_write_two_node(tmp_path)), "--max-iter", "5",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--max-iter" in capsys.readouterr().err


def test_missing_input_gives_exit_2(tmp_path, capsys):
    assert main(["rank", "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "input" in err["message"]


def test_config_file_with_flag_override(tmp_path):
    graph = _write_two_node(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"input": str(graph), "tq_max": 4}))
    out_a = tmp_path / "a"
    assert main(["family", "--config", str(config), "--out", str(out_a)]) == 0
    fam = json.loads((out_a / "family.json").read_text())
    assert [e["t_q"] for e in fam] == [1, 2, 3, 4]
    out_b = tmp_path / "b"
    assert main(["family", "--config", str(config), "--tq-max", "2", "--out", str(out_b)]) == 0
    fam = json.loads((out_b / "family.json").read_text())
    assert [e["t_q"] for e in fam] == [1, 2]
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["config"]["tq_max"] == 2


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMIWALK_OUT", str(tmp_path / "envout"))
    assert main(["preset", "fig5"]) == 0
    assert (tmp_path / "envout" / "classification.json").exists()
    doc = json.loads((tmp_path / "envout" / "classification.json").read_text())
    assert doc["asymmetric_homogeneous_ring"] == {"symmetric": False, "homogeneous": True}
    assert doc["symmetric_inhomogeneous_hub"] == {"symmetric": True, "homogeneous": False}


_PRESET_RUNS = [["preset", name] for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10")]
_INPUT_RUNS = [
    ["family", "--input", "{hub}", "--class", "2", "--tq-max", "6"],
    ["rank", "--input", "{hub}", "--class", "2", "--tq-max", "6"],
    ["sample", "--input", "{hub}", "--class", "2", "--tq", "2", "--steps", "10",
     "--count", "4", "--seed", "7"],
    ["evolve", "--input", "{two_csv}", "--tq", "2", "--p0", "0.8,0.2", "--steps", "5"],
    ["circuit", "--input", "{two_json}", "--format", "json", "--tq", "2", "--tc", "3",
     "--p0", "0.7,0.3", "--classical-control"],
    ["cycle", "--n", "6"],
    ["verify", "--count", "3", "--seed", "1"],
]


@pytest.mark.parametrize("argv", _PRESET_RUNS + _INPUT_RUNS,
                         ids=lambda argv: argv[-1] if argv[0] == "preset" else argv[0])
def test_manifest_config_replays_run(tmp_path, argv):
    graphs = {
        "hub": _write_hub(tmp_path),
        "two_csv": _write_two_node(tmp_path),
        "two_json": tmp_path / "two_node.json",
    }
    graphs["two_json"].write_text(sw.serialize(sw.two_node_chain(), "json"))
    argv = [arg.format(**graphs) for arg in argv]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(json.loads((out_a / "manifest.json").read_text())["config"]))
    assert main([argv[0], "--config", str(config), "--out", str(out_b)]) == 0
    assert _dir_bytes(out_a) == _dir_bytes(out_b)


@pytest.mark.parametrize("subcommand, config", [
    pytest.param("cycle", {"n": 6, "tqmax": 4}, id="unknown-key"),
    pytest.param("cycle", {"n": 6, "tq_max": "4"}, id="string-for-int"),
    pytest.param("cycle", {"n": 6.0}, id="float-for-int"),
    pytest.param("family", {"input": "{two_csv}", "class": 3}, id="outside-choices"),
    pytest.param("family", {"input": "{two_csv}", "class_tag": 2}, id="old-class-key"),
    pytest.param("circuit", {"classical_control": 1}, id="int-for-bool"),
    pytest.param("evolve", {"input": "{two_csv}", "p0": "0.8,0.2"}, id="string-for-list"),
    pytest.param("preset", {"name": "fig8"}, id="unknown-preset"),
    pytest.param("rank", {"input": "{two_csv}", "max_iter": 100}, id="removed-max-iter"),
])
def test_bad_config_gives_json_error_and_exit_2(tmp_path, capsys, subcommand, config):
    two_csv = str(_write_two_node(tmp_path))
    doc = {k: v.format(two_csv=two_csv) if isinstance(v, str) else v for k, v in config.items()}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "ValueError"
    assert not out.exists()
