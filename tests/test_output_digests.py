"""scripts/output_digests.py: one stable digest line per output."""

import hashlib
import json
import pathlib
import re
import runpy

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def load():
    return runpy.run_path(str(SCRIPT), run_name="output_digests")


def test_quick_list_prints_one_stable_digest_per_output(capsys):
    run = load()["run"]
    assert run(["--quick"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert run(["--quick"]) == 0
    assert capsys.readouterr().out.splitlines() == first
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in first)
    names = [line.split("  ", 1)[1] for line in first]
    assert len(set(names)) == len(names)
    assert sum(name.startswith("classify n1=") for name in names) == 9
    assert "rotinv verify --perturb-l" in names
    assert "rotinv verify --deep --seed 7" in names
    assert "dense oracle 4x4 (seed 8)" in names
    assert "dense oracle 6x8 (seed 8)" in names
    assert "witness, 1 existence-ladder size(s) up to 4x6" in names
    assert "rotinv sweep --n1 6 --n2 8 --grid 15 --format json" in names
    assert "rotinv sweep --n1 4 --n2 9 --grid 200 --format json" in names
    assert "rotinv geometry --n1 6 --n2 8 --tol 1e-8" in names
    assert "rotinv classify --n1 4 --n2 4 --alpha 4,0,0,0" in names
    assert not any(name.startswith("exact-l") for name in names)  # full list only


def test_command_digest_covers_exit_code_and_stderr():
    record = json.loads(load()["_command"](["geometry", "--n1", "5", "--n2", "7"]))
    assert record["exit"] == 2
    assert record["stdout"] == ""
    assert record["stderr"].startswith("error: ")


def test_usage_error_digests_with_exit_2():
    # argparse raises SystemExit(2); the digest records the code and the usage text
    record = json.loads(load()["_command"](["verify", "--tol", "1e-8"]))
    assert record["exit"] == 2
    assert record["stdout"] == ""
    assert "unrecognized arguments: --tol 1e-8" in record["stderr"]


def test_seeded_states_are_normalized_and_span_the_sizes():
    betas = load()["seeded_states"](3, 300)
    assert {b.system.n1 for b in betas} == set(range(2, 11))
    assert all(b.coords[0] == 1.0 and b.system.n2 - b.system.n1 <= 8 for b in betas)


def test_full_list_digests_deep_verify_seeds_and_perturbed_l():
    command_list = load()["command_list"]
    deep = [c for c in command_list(False) if "--deep" in c]
    seeds = [*map(str, range(200)), "12345"]
    assert deep == [*(["verify", "--deep", "--seed", s] for s in seeds),
                    ["verify", "--deep", "--perturb-l"]]
    assert [c for c in command_list(True) if "--deep" in c] == [["verify", "--deep", "--seed", "7"]]


def test_full_list_digests_a_json_sweep_of_each_n1():
    script = load()

    def json_sweeps(quick):
        return [c for c in script["command_list"](quick)
                if c[0] == "sweep" and "json" in c and c not in script["ERROR_COMMANDS"]]

    assert json_sweeps(False) == [
        ["sweep", "--n1", "6", "--n2", "8", "--grid", "15", "--format", "json"],
        ["sweep", "--n1", "4", "--n2", "9", "--grid", "200", "--format", "json"]]
    assert json_sweeps(True) == json_sweeps(False)


def test_classify_commands_cover_every_verdict_from_both_bases():
    script = load()
    commands = script["CLASSIFY_COMMANDS"]
    records = [json.loads(script["_command"](c)) for c in commands]
    assert all(r["exit"] == 0 and r["stderr"] == "" for r in records)
    reports = [json.loads(r["stdout"]) for r in records]
    assert {r["verdict"] for r in reports if r["system"][0] == 4} == {
        "NotAState", "NptEntangled", "PptBoundEntangledDetected", "KnownSeparable",
        "PptUndetermined"}
    assert {c[c.index("--n2") + 2] for c in commands} == {"--alpha", "--beta"}
    by_system = {tuple(r["system"]): r for r in reports}
    assert "note" in by_system[5, 7]
    assert by_system[10, 12]["verdict"] == "PptBoundEntangledDetected"


def test_exact_l_digest_pins_every_entry():
    name, data = load()["_exact_l_digest"]()
    assert name == "exact-l, 37297 entries, n1 = 2..20, n2 = n1..n1+12"
    assert hashlib.sha256(data).hexdigest() == (
        "4eb7964face5fd6ed9e2795d142e956be2e0721d0fd3c63190094345ab7f85f8")


def test_named_4xn_digest_pins_points_and_l():
    name, data = load()["_named_4xn_digest"]()
    assert name == "named-4xn, 15 points and L, N = 4..40"
    assert hashlib.sha256(data).hexdigest() == (
        "e01d6335f50a5a5330dad286415efcaf78aa5b41b0e6796bf44c2379ea9d9833")


def test_command_that_raises_is_recorded_and_the_listing_goes_on(monkeypatch, capsys):
    script = load()

    def rotinv_main(argv):
        raise IsADirectoryError(21, "Is a directory", "out")

    # the script's functions read their module globals, not the dict that run_path returns
    monkeypatch.setitem(script["run"].__globals__, "rotinv_main", rotinv_main)
    record = json.loads(script["_command"](["sweep", "--n1", "4", "--n2", "5"]))
    assert record == {"exit": None, "stdout": "", "stderr": "",
                      "raised": "IsADirectoryError: [Errno 21] Is a directory: 'out'"}
    assert script["run"](["--quick"]) == 0
    names = [line.split("  ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    assert names[-len(script["command_list"](True)):] == [
        f"rotinv {' '.join(c)}" for c in script["command_list"](True)]
    assert not any(name.startswith("named-4xn") for name in names)  # full list only
