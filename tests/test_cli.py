import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.circuit import MAX_WALK_BLOCKS
from semiwalk.cli import main
from semiwalk.corpus import random_stochastic
from semiwalk.dynamics import MAX_SAMPLES
from semiwalk.family import MAX_ENTRIES
from semiwalk.graphs import MAX_NODES
from semiwalk.verify import MAX_COUNT, run_verification


def _write_two_node(tmp_path: Path) -> Path:
    path = tmp_path / "two_node.csv"
    path.write_text(sw.serialize(sw.two_node_chain(), "csv"))
    return path


def _write_hub(tmp_path: Path) -> Path:
    path = tmp_path / "hub.csv"
    path.write_text(sw.serialize(sw.symmetric_hub(), "csv"))
    return path


def _write_random_32(tmp_path: Path) -> Path:
    path = tmp_path / "random_32.csv"
    path.write_text(sw.serialize(random_stochastic(32, np.random.default_rng(32)), "csv"))
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
    # member 1 is the symmetric hub, which fixes the uniform start
    assert report["methods"] == ["fixed"] + ["solve"] * 5
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


def test_long_circuit_and_family_pass(tmp_path, capsys):
    # the stepped members were 1.43e-10 off the channel at t_q = 1000 and
    # failed the unit-sum check from t_q = 1855 on the two-node chain
    out = tmp_path / "circuit"
    assert main(["circuit", "--tq", "1000", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS circuit t_q=1000")
    assert json.loads((out / "verify.json").read_text())["channel_deviation"] < 1e-12  # measured 1.46e-13
    graph = _write_two_node(tmp_path)
    assert main(["family", "--input", str(graph), "--tq-max", "2000", "--out", str(tmp_path / "family")]) == 0
    assert len(json.loads((tmp_path / "family" / "family.json").read_text())) == 2000


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


@pytest.mark.parametrize("make_input, class_tag", [
    (_write_random_32, "1"),
    (_write_hub, "2"),
], ids=["random-32-class-1", "hub-class-2"])
def test_family_writes_family_json_only(tmp_path, make_input, class_tag):
    graph = make_input(tmp_path)
    out = tmp_path / "out"
    assert main(["family", "--input", str(graph), "--class", class_tag, "--tq-max", "6",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["family.json", "manifest.json"]
    assert list(json.loads((out / "manifest.json").read_text())["artifacts"]) == ["family.json"]
    # the one remaining encoding is lossless: each token parses back to the member's float
    g = sw.deserialize(graph.read_text(), "csv")
    members = sw.build_family(g, int(class_tag), 6).members
    entries = json.loads((out / "family.json").read_text())
    assert [e["t_q"] for e in entries] == [1, 2, 3, 4, 5, 6]
    for entry, member in zip(entries, members):
        rows = entry["matrix_csv"].splitlines()[1:]
        parsed = [[float(tok) for tok in row.split(",")] for row in rows]
        assert parsed == member.g.tolist()


def test_manifest_records_versions(tmp_path):
    out = tmp_path / "out"
    assert main(["cycle", "--n", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"semiwalk": sw.__version__, "numpy": np.__version__}
    assert "manifest.json" not in manifest["artifacts"]


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


def test_repeated_main_calls_give_identical_results(tmp_path, capsys):
    # the parser is built once per process and reused by every call
    def run(argv, out):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, _dir_bytes(out) if out.exists() else {}

    argvs = [["circuit", "--tq", "2", "--tc", "3"], ["preset", "fig99"]]
    first = [run(argv, tmp_path / f"a{k}") for k, argv in enumerate(argvs)]
    second = [run(argv, tmp_path / f"b{k}") for k, argv in enumerate(argvs)]
    assert [r[0] for r in first] == [0, 2]
    assert "invalid choice: 'fig99'" in first[1][2]
    assert second == first


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


@pytest.mark.parametrize("subcommand, config, key", [
    pytest.param("cycle", {"n": 6, "tqmax": 4}, "tqmax", id="unknown-key"),
    pytest.param("cycle", {"n": 6, "tq_max": "4"}, "tq_max", id="string-for-int"),
    pytest.param("cycle", {"n": 6.0}, "n", id="float-for-int"),
    pytest.param("family", {"input": "{two_csv}", "class": 3}, "class", id="outside-choices"),
    pytest.param("family", {"input": "{two_csv}", "class_tag": 2}, "class_tag", id="old-class-key"),
    pytest.param("circuit", {"classical_control": 1}, "classical_control", id="int-for-bool"),
    pytest.param("evolve", {"input": "{two_csv}", "p0": "0.8,0.2"}, "p0", id="string-for-list"),
    pytest.param("preset", {"name": "fig8"}, "name", id="unknown-preset"),
    pytest.param("rank", {"input": "{two_csv}", "max_iter": 100}, "max_iter", id="removed-max-iter"),
    # verify used to pass five checks over an empty corpus, and to end a
    # negative seed in numpy's message, which names no key
    pytest.param("verify", {"count": 0}, "count", id="verify-count-zero"),
    pytest.param("verify", {"count": -5}, "count", id="verify-count-negative"),
    pytest.param("verify", {"count": 1, "seed": -1}, "seed", id="verify-seed-negative"),
])
def test_bad_config_gives_json_error_and_exit_2(tmp_path, capsys, subcommand, config, key):
    two_csv = str(_write_two_node(tmp_path))
    doc = {k: v.format(two_csv=two_csv) if isinstance(v, str) else v for k, v in config.items()}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert re.search(rf"\b{key}\b", doc["message"]), doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, cap", [
    pytest.param(["cycle", "--n", str(MAX_NODES + 1)], "MAX_NODES", id="cycle-n"),
    pytest.param(["family", "--input", "{hub}", "--tq-max", "{tq_max}"], "MAX_ENTRIES", id="family-tq-max"),
    pytest.param(["rank", "--input", "{hub}", "--tq-max", "{tq_max}"], "MAX_ENTRIES", id="rank-tq-max"),
    pytest.param(["circuit", "--tq", "{tq}", "--tc", "2"], "MAX_WALK_BLOCKS", id="circuit-tq-tc"),
    # (steps + 1) * N one past the cap on the 7-node hub
    pytest.param(["evolve", "--input", "{hub}", "--steps", "{steps}"], "MAX_SAMPLES", id="evolve-steps"),
    # count * (steps + 1) = MAX_SAMPLES + 1
    pytest.param(["sample", "--input", "{hub}", "--count", "1", "--steps", "{samples}"], "MAX_SAMPLES",
                 id="sample-count-steps"),
    # one member at t_q is capped as a family of t_q members is
    pytest.param(["evolve", "--input", "{hub}", "--tq", "{tq_max}"], "MAX_ENTRIES", id="evolve-tq"),
    pytest.param(["sample", "--input", "{hub}", "--tq", "{tq_max}"], "MAX_ENTRIES", id="sample-tq"),
    pytest.param(["verify", "--count", str(MAX_COUNT + 1)], "MAX_COUNT", id="verify-count"),
])
def test_size_caps_exit_2_before_allocating(tmp_path, capsys, argv, cap):
    hub = _write_hub(tmp_path)
    n = sw.symmetric_hub().n
    tq_max = MAX_ENTRIES // n ** 2 + 1
    tq = MAX_WALK_BLOCKS // 2 + 1
    steps = MAX_SAMPLES // n
    argv = [arg.format(hub=hub, tq_max=tq_max, tq=tq, steps=steps, samples=MAX_SAMPLES) for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "TooLargeError" and cap in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["family", "--input", "{two}", "--tq-max", "0"], "t_q_max must be >= 1", id="family-tq-max"),
    pytest.param(["rank", "--input", "{two}", "--tq-max", "0"], "t_q_max must be >= 1", id="rank-tq-max"),
    pytest.param(["evolve", "--input", "{two}", "--tq", "0"], "t_q must be >= 1", id="evolve-tq"),
    pytest.param(["evolve", "--input", "{two}", "--steps", "-1"],
                 "steps must be an integer >= 0, got -1", id="evolve-steps"),
    pytest.param(["sample", "--input", "{two}", "--tq", "0"], "t_q must be >= 1", id="sample-tq"),
    pytest.param(["sample", "--input", "{two}", "--steps", "-1"],
                 "steps must be an integer >= 0, got -1", id="sample-steps"),
    pytest.param(["sample", "--input", "{two}", "--x0", "-1"], "start node -1 outside 0..1", id="sample-x0"),
    pytest.param(["sample", "--input", "{two}", "--count", "0"],
                 "count must be an integer >= 1, got 0", id="sample-count"),
    pytest.param(["sample", "--input", "{two}", "--seed", "-1"],
                 "seed must be an integer >= 0, got -1", id="sample-seed"),
    pytest.param(["cycle", "--n", "2"], "cycle formulas need n >= 3, got 2", id="cycle-n"),
    pytest.param(["cycle", "--n", "3", "--tq-max", "0"], "t_q_max must be >= 1", id="cycle-tq-max"),
    pytest.param(["circuit", "--tq", "0"], "t_q and t_c must be >= 1", id="circuit-tq"),
    pytest.param(["circuit", "--tc", "0"], "t_q and t_c must be >= 1", id="circuit-tc"),
    pytest.param(["verify", "--count", "0"], "count must be an integer >= 1, got 0", id="verify-count"),
    pytest.param(["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1", id="verify-seed"),
])
def test_integer_options_below_their_least_value_exit_2(tmp_path, capsys, argv, message):
    # evolve --steps -1 used to exit 0 with a header-only evolve.csv
    argv = [arg.format(two=_write_two_node(tmp_path)) for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["message"] == message
    assert not out.exists()


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads raised RecursionError here: a traceback and exit 1
    path = tmp_path / "run.json"
    path.write_text("[" * 100_000)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": "config file nests too deeply"}
    assert not out.exists()


@pytest.mark.parametrize("seed", range(10))
def test_verify_checks_pass_across_seeds(seed):
    checks = run_verification(count=100, seed=seed)
    assert len(checks) == 17
    assert [c["name"] for c in checks if not c["passed"]] == []


def test_verify_stacks_are_chunked():
    # the stacks per size are cut into chunks of a fixed entry budget: with one
    # stack per size the dense operators alone peaked at 28.9 MiB here
    run_verification(count=10, seed=0)
    tracemalloc.start()
    try:
        checks = run_verification(count=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c["name"] for c in checks if not c["passed"]] == []
    assert peak < 6 * 2**20  # measured 2.1 to 2.8 MiB


def test_family_json_is_streamed(tmp_path):
    # the 12 members of an N = 128 input are 4.2 MB of family.json; joined
    # whole, the text and its copies peaked at 9.9 MiB, one member at a time 6.1
    path = tmp_path / "random_128.csv"
    g = random_stochastic(128, np.random.default_rng(128))
    path.write_text(sw.serialize(g, "csv"))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["family", "--input", str(path), "--tq-max", "12", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = (out / "family.json").read_bytes()
    fam = sw.build_family(sw.deserialize(path.read_text(), "csv"), 1, 12)
    assert data == (fam.to_json() + "\n").encode()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]["family.json"] == hashlib.sha256(data).hexdigest()
    assert peak < 8 * 2**20

