"""Command-line contract: flags, exit codes, output files."""

import json
import subprocess
import sys

import pytest

from aexlab import cli as aexlab_cli
from aexlab.isa import render
from aexlab.runtimes import build_runtime, fixture_path

from conftest import CLI_ENV as ENV
from conftest import CLI_TIMEOUT


def cli(*argv, cwd=None):
    r = subprocess.run([sys.executable, "-m", "aexlab.cli", *argv],
                       capture_output=True, text=True, env=ENV, cwd=cwd,
                       timeout=CLI_TIMEOUT)
    return r.returncode, r.stdout, r.stderr


def write_scenario(tmp_path, name="s.json", **kv):
    path = tmp_path / name
    path.write_text(json.dumps(kv))
    return str(path)


def test_run_scripted_exits_ten_and_writes_outputs(tmp_path):
    sc = write_scenario(tmp_path, variant="sdk_style", adversary="scripted")
    out = tmp_path / "out"
    rc, stdout, _ = cli("run", "--scenario", sc, "--out", str(out))
    assert rc == 10
    assert "leaked" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 10
    assert report["milestones"] == ["anchor_written", "pivoted", "leaked"]
    assert (out / "run.trace").exists()
    assert "wall" not in json.dumps(report)     # nothing volatile on disk


def test_run_exhaustive_safe_exits_zero(tmp_path):
    sc = write_scenario(tmp_path, variant="nssa_disabled",
                        adversary="exhaustive")
    rc, stdout, _ = cli("run", "--scenario", sc, "--out",
                        str(tmp_path / "o"))
    assert rc == 0
    assert "no_violation_found" in stdout


def test_run_graphene_exhaustive_exits_zero(tmp_path):
    sc = fixture_path("scenarios/exhaustive_graphene_sgx2.json")
    rc, stdout, _ = cli("run", "--scenario", sc, "--out",
                        str(tmp_path / "o"))
    assert rc == 0
    assert "no_violation_found" in stdout


def test_run_budget_exceeded_exits_two(tmp_path):
    sc = write_scenario(tmp_path, variant="graphene_emulated",
                        adversary="exhaustive", budgets={"max_runs": 10})
    rc, _, _ = cli("run", "--scenario", sc, "--out", str(tmp_path / "o"))
    assert rc == 2


def test_malformed_scenario_exits_one_with_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"variant": "sdk_style",\n  "adversary": }\n')
    rc, _, stderr = cli("run", "--scenario", str(path), "--out",
                        str(tmp_path / "o"))
    assert rc == 1
    assert "line 2" in stderr and "column" in stderr


def test_unknown_scenario_key_exits_one(tmp_path):
    sc = write_scenario(tmp_path, variant="sdk_style", adversary="benign",
                        surprise=1)
    rc, _, stderr = cli("run", "--scenario", sc, "--out",
                        str(tmp_path / "o"))
    assert rc == 1
    assert "surprise" in stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_whose_prefix_misses_its_ocall_exits_one(tmp_path, workers):
    # a 256-byte stack: the compute ecall's prefix ends before its ocall,
    # so the exhaustive search has no state to start from
    sc = write_scenario(tmp_path, variant="sdk_style",
                        layout={"stack_limit": 0x27F00})
    out = tmp_path / "o"
    rc, stdout, stderr = cli("run", "--scenario", sc, "--out", str(out),
                             "--workers", workers)
    assert rc == 1 and stdout == ""
    assert stderr == ("error: scenario prefix does not reach its ocall: "
                      "done after 19 steps, 18 retired\n")
    assert not (out / "report.json").exists()
    assert not out.exists()


def test_replay_golden_trace_matches():
    golden = fixture_path("golden/scripted_sdk_sgx2.trace")
    rc, stdout, stderr = cli("replay", "--trace", golden)
    assert rc == 10
    assert "anchor_integrity: violated" in stdout
    assert "replay ok" in stderr


def test_replay_truncated_trace_exits_three(tmp_path):
    golden = fixture_path("golden/scripted_sdk_sgx2.trace")
    lines = open(golden).read().splitlines()
    trunc = tmp_path / "t.trace"
    trunc.write_text("\n".join(lines[:-4]) + "\n")
    rc, _, stderr = cli("replay", "--trace", str(trunc))
    assert rc == 3
    assert "mismatch" in stderr


def test_replay_mismatch_names_action_and_event_kind(tmp_path):
    golden = fixture_path("golden/scripted_sdk_sgx2.trace")
    lines = open(golden).read().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("A "))
    assert lines[first + 1].startswith("E eenter ")
    lines[first + 1] = lines[first + 1][:-16] + "0" * 16
    tampered = tmp_path / "t.trace"
    tampered.write_text("\n".join(lines) + "\n")
    rc, _, stderr = cli("replay", "--trace", str(tampered))
    assert rc == 3
    assert f"after action 0 ({lines[first]})" in stderr
    assert "expected event kind eenter:" in stderr
    assert "instruction" not in stderr
    # the first instruction event names its instruction, disassembled
    lines = open(golden).read().splitlines()
    retire = next(i for i, ln in enumerate(lines)
                  if ln.startswith("E retire "))
    pc = int(lines[retire].split()[2], 16)
    lines[retire] = lines[retire][:-16] + "0" * 16
    tampered.write_text("\n".join(lines) + "\n")
    rc, _, stderr = cli("replay", "--trace", str(tampered))
    assert rc == 3
    assert "expected event kind retire:" in stderr
    program = build_runtime("sdk_style").program
    assert f"; instruction {pc:#x}: {render(program.code[pc])}" in stderr


def _first(lines, prefix):
    return next(i for i, ln in enumerate(lines) if ln.startswith(prefix))


@pytest.mark.parametrize("prefix,bad,message", [
    ("# lines: ", "# lines: many",
     "error: trace: line count is not an integer: 'many'"),
    ("A eenter ", "A eenter 0xzz - -",
     "error: trace: malformed action line: 'A eenter 0xzz - -'"),
    ("A inject ", "A inject nosuch 0",
     "error: trace: malformed action line: 'A inject nosuch 0'"),
    ("A eenter ", "A eenter", "error: trace: malformed action line"),
    ("E retire ", "E retire 0xzz 0x0 0x0 0x0 0123456789abcdef",
     "expected a well-formed event line"),
    ("A eenter ", "A eenter 0x0 zz=0x1 -",
     "error: trace: malformed action line: 'A eenter 0x0 zz=0x1 -'"),
    ("A prep ", "A prep zz=0x1",
     "error: trace: malformed action line: 'A prep zz=0x1'"),
    ("A eenter ", "A flip 0x999000 1",
     "error: trace: 'A flip 0x999000 1' flips page 0x999000, which the "
     "layout does not map"),
    ("A inject ", "A inject page_fault -3",
     "error: trace: malformed action line: 'A inject page_fault -3'"),
    ("A eenter ", "A flip 0x1000 -1",
     "error: trace: malformed action line: 'A flip 0x1000 -1'"),
    ("A eenter ", "A flip 0x1000 99",
     "error: trace: malformed action line: 'A flip 0x1000 99'"),
    ("A eenter ", "A eenter -0x3 - -",
     "error: trace: malformed action line: 'A eenter -0x3 - -'"),
    ("A eenter ", "A eenter 0x10000000000000003 - -",
     "error: trace: malformed action line: "
     "'A eenter 0x10000000000000003 - -'"),
    ("A prep ", "A prep rax=0x1ffffffffffffffff",
     "error: trace: malformed action line: "
     "'A prep rax=0x1ffffffffffffffff'"),
    ("A eenter ", "A seed 0x41000 0x1ffffffffffffffff",
     "error: trace: malformed action line: "
     "'A seed 0x41000 0x1ffffffffffffffff'"),
    ("A eenter ", "A seed 0x2b000 0x41",
     "error: trace: 'A seed 0x2b000 0x41' seeds other than aligned "
     "public words"),
    ("A eenter ", "A seed 0x41003 0x41",
     "error: trace: 'A seed 0x41003 0x41' seeds other than aligned "
     "public words"),
    ("A eenter ", "A seed 0x999000 0x41",
     "error: trace: 'A seed 0x999000 0x41' seeds other than aligned "
     "public words"),
    ("A prep ", "A prep rsp=0x1,rsp=0x2",
     "error: trace: malformed action line: 'A prep rsp=0x1,rsp=0x2'"),
    ("A eenter ", "A eenter 0x0 rsi=0x0,rsp=0x0,rsp=0x8 -",
     "error: trace: malformed action line: "
     "'A eenter 0x0 rsi=0x0,rsp=0x0,rsp=0x8 -'"),
], ids=["line_count", "action_hex", "vector_name", "short_action",
        "event_hex", "eenter_unknown_register", "prep_unknown_register",
        "unmapped_flip", "negative_boundary", "negative_perms",
        "perms_above_rwx", "negative_cmd", "cmd_above_64_bits",
        "prep_above_64_bits", "seed_word_above_64_bits", "seed_secret_word",
        "seed_unaligned", "seed_unmapped", "prep_register_twice",
        "eenter_register_twice"])
def test_replay_malformed_trace_exits_three(tmp_path, prefix, bad, message):
    golden = fixture_path("golden/scripted_sdk_sgx2.trace")
    lines = open(golden).read().splitlines()
    lines[_first(lines, prefix)] = bad
    tampered = tmp_path / "t.trace"
    tampered.write_text("\n".join(lines) + "\n")
    rc, _, stderr = cli("replay", "--trace", str(tampered))
    assert rc == 3
    assert message in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv,code,message", [
    (["run", "--scenario"], 1, "error: scenario: "),
    (["matrix", "--sgx", "2", "--mapping"], 1, "error: mapping: "),
    (["replay", "--trace"], 3, "error: trace: "),
], ids=["run", "matrix", "replay"])
def test_input_not_utf8_fails_closed(tmp_path, argv, code, message):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "o"
    outputs = [] if argv[0] == "replay" else ["--out", str(out)]
    rc, stdout, stderr = cli(*argv, str(path), *outputs)
    assert rc == code
    assert stderr.startswith(message + "'utf-8' codec can't decode")
    assert "Traceback" not in stderr
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["run", "matrix"])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_one_exit_one_with_message(tmp_path, capsys, command,
                                                 workers):
    sc = write_scenario(tmp_path, variant="sdk_style", adversary="scripted")
    args = (["run", "--scenario", sc] if command == "run"
            else ["matrix", "--sgx", "2"])
    rc = aexlab_cli.main([*args, "--out", str(tmp_path / "o"),
                          "--workers", workers])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--workers" in err and "at least 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_calls_in_one_process_exit_as_fresh_processes_do(tmp_path, capsys):
    # `main` builds its parser once per process; a usage error must leave
    # nothing behind that changes the next call
    sc = write_scenario(tmp_path, variant="sdk_style", adversary="scripted")
    calls = [["run", "--scenario", sc],                     # no --out
             ["run", "--scenario", sc, "--out", str(tmp_path / "a")],
             ["run", "--scenario", sc, "--out", str(tmp_path / "b"),
              "--workers", "0"],
             ["run", "--scenario", sc, "--out", str(tmp_path / "c")]]
    in_process = [aexlab_cli.main(argv) for argv in calls]
    capsys.readouterr()
    assert in_process == [cli(*argv)[0] for argv in calls] == [1, 10, 1, 10]


MAPPING_ROW = {"runtime": "A", "variant": "nssa_disabled",
               "exception_handling": False}


@pytest.mark.parametrize("doc, message", [
    ({"runtimes": [MAPPING_ROW, {"runtime": "B", "variant": "sgx_sdk"}]},
     "runtimes[1]: unknown variant: 'sgx_sdk'"),
    ({"runtimes": [MAPPING_ROW, {"variant": "sdk_style"}]},
     "runtimes[1]: runtime must be a non-empty string, got None"),
    ({"runtimes": [MAPPING_ROW, {"runtime": "B",
                                 "variant": "graphene_emulated",
                                 "toggles": {"critical_pad": -1}}]},
     "runtimes[1]: toggle critical_pad must be in"),
    ({"runtimes": 5}, "runtimes is a list"),
    ({"runtimes": [MAPPING_ROW, {"runtime": "B", "variant": "sdk_style",
                                 "toggles": []}]},
     "runtimes[1]: toggles must be an object, got []"),
    ({"runtimes": [MAPPING_ROW, {"runtime": "B", "variant": "sdk_style",
                                 "exception_handling": "no"}]},
     "runtimes[1]: exception_handling must be true or false, got 'no'"),
    ({"runtimes": []}, "runtimes must list at least one row"),
], ids=["unknown_variant", "no_runtime", "negative_critical_pad",
        "runtimes_not_a_list", "toggles_not_an_object",
        "exception_handling_not_a_bool", "empty_runtimes"])
def test_malformed_mapping_exits_one_before_certifying(tmp_path, doc,
                                                       message):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc, stdout, stderr = cli("matrix", "--mapping", str(path), "--sgx", "2",
                             "--out", str(out))
    assert rc == 1
    assert stderr.startswith("error: mapping: ") and message in stderr
    assert "Traceback" not in stderr
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["run", "matrix"])
def test_out_naming_an_existing_file_exits_one(tmp_path, command):
    # the command does its work, then cannot create --out: one error line
    # and the file left as it was
    out = tmp_path / "taken"
    out.write_text("keep\n")
    if command == "run":
        sc = write_scenario(tmp_path, variant="sdk_style",
                            adversary="scripted")
        args = ["run", "--scenario", sc]
    else:
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({"runtimes": [MAPPING_ROW]}))
        args = ["matrix", "--mapping", str(mapping), "--sgx", "2"]
    rc, stdout, stderr = cli(*args, "--out", str(out))
    assert rc == 1 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert str(out) in stderr
    assert out.read_text() == "keep\n"


def test_fixture_dir_override(tmp_path):
    env = dict(ENV, ENCLAVE_AEX_LAB_FIXTURES=str(tmp_path))
    r = subprocess.run([sys.executable, "-m", "aexlab.cli", "matrix",
                        "--sgx", "2", "--out", str(tmp_path / "o")],
                       capture_output=True, text=True, env=env,
                       timeout=CLI_TIMEOUT)
    assert r.returncode == 1
    assert "mapping fixture missing" in r.stderr
