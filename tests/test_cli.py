import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import isotypic
from isotypic import cli
from isotypic.cli import (
    decomposition_to_json,
    run,
)
from isotypic.lr import tensor_multi
from isotypic.signatures import GroupFamily


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_process(*argv):
    """Run the CLI in a fresh interpreter, so an escaping traceback shows on stderr."""
    src = str(Path(isotypic.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "isotypic.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_tensor_table_json(capsys):
    code, out, _ = invoke(
        capsys, "tensor", "--group", "u", "--rank", "2", "--json", "1", "2", "2", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == {"family": "u", "rank": 2}
    assert obj["terms"] == [
        {"signature": [8], "mult": 1},
        {"signature": [7, 1], "mult": 3},
        {"signature": [6, 2], "mult": 5},
        {"signature": [5, 3], "mult": 5},
        {"signature": [4, 4], "mult": 2},
    ]


def test_tensor_stable_reports_k0(capsys):
    code, out, _ = invoke(capsys, "tensor", "--stable", "--json", "1", "2", "2", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["group"]["rank"] == "stable"
    assert obj["k0"] == 4
    assert len(obj["terms"]) == 14


def test_tensor_human_table(capsys):
    code, out, _ = invoke(capsys, "tensor", "--rank", "2", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group: u(2)"
    assert [line.split() for line in lines[1:]] == [["1", "2"], ["1", "1,1"]]


def test_tensor_stable_multiplies_long_columns():
    """Two 26-row columns need no deep recursion: the table prints, exit 0."""
    column = ",".join(["1"] * 26)
    code, out, err = invoke_process("tensor", "--stable", column, column)
    assert code == 0 and "Traceback" not in err
    lines = out.splitlines()
    assert lines[0] == "group: u(stable)  k0=52"
    assert len(lines) == 1 + 27


def test_branch_subcommand(capsys):
    code, out, _ = invoke(capsys, "branch", "--to", "so", "--rank", "5", "--json", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"signature": [3], "mult": 1},
        {"signature": [1], "mult": 1},
    ]
    code, out, _ = invoke(capsys, "branch", "--to", "sp", "--stable", "--json", "2,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["k0"] == 6
    assert {tuple(t["signature"]): t["mult"] for t in obj["terms"]} == {
        (2, 2): 1, (1, 1): 1, (): 1,
    }


def test_dim_subcommand(capsys):
    code, out, _ = invoke(capsys, "dim", "--group", "so", "--rank", "3", "2")
    assert code == 0
    assert out.strip() == "5"


def test_dim_subcommand_at_huge_ranks():
    """dim works per cell of the signature, not per rank: a whole process at rank 10^20."""
    for argv, value in (
        (["--group", "u", "--rank", "1000000", "1"], 10**6),
        (["--group", "so", "--rank", str(10**20), "1"], 10**20),
        (["--group", "u", "--rank", str(10**20), "0"], 1),
    ):
        code, out, err = invoke_process("dim", *argv)
        assert (code, out, err) == (0, f"{value}\n", ""), argv


def test_reciprocity_subcommand(capsys):
    code, out, _ = invoke(capsys, "reciprocity", "--n", "1", "--k", "5", "--json", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_agree"] is True
    assert {tuple(r["mu"]) for r in obj["rows"]} == {(3,), (1,)}


def test_identity_mult_subcommand(capsys):
    code, out, _ = invoke(capsys, "identity-mult", "--mu", "2,1", "1", "1", "1")
    assert code == 0
    assert out.strip() == "2"


def test_fock_verify_subcommand(capsys):
    code, out, _ = invoke(capsys, "fock", "verify", "sp2n", "--n", "2", "--k", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is True
    assert obj["relations_checked"] == 96


def test_fock_verify_human_output(capsys):
    code, out, _ = invoke(capsys, "fock", "verify", "sl2", "--k", "4")
    assert code == 0
    assert out.strip() == "sl2 (k=4): 3 relations hold"
    code, out, _ = invoke(
        capsys, "fock", "verify", "supq", "--p", "2", "--q", "1", "--k", "4"
    )
    assert code == 0
    assert "relations hold" in out


def test_fock_hwv_so_kinds(capsys):
    code, out, _ = invoke(
        capsys, "fock", "hwv", "--kind", "so_rank1", "--sig", "2", "--k", "3", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert "2*i * Z[1][1] * Z[1][3]" in obj["polynomial"]
    code, out, _ = invoke(
        capsys, "fock", "hwv", "--kind", "so_general", "--sig", "2,1",
        "--n", "2", "--k", "5", "--json",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_fock_hwv_subcommand(capsys):
    code, out, _ = invoke(
        capsys, "fock", "hwv", "--kind", "gl", "--sig", "2,1", "--n", "2", "--k", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert "Z[1][1]^2 * Z[2][2]" in obj["polynomial"]
    code, out, _ = invoke(
        capsys, "fock", "hwv", "--kind", "upq", "--sig", "2,0,0,-1",
        "--p", "1", "--q", "1", "--k", "4", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert (obj["p"], obj["q"], obj["k"]) == (1, 1, 4)
    code, out, _ = invoke(
        capsys, "fock", "hwv", "--kind", "upq", "--sig", "2,0,0,-1", "--k", "4",
    )
    assert code == 0
    assert out.splitlines()[-1] == "verified (p=1, q=1, k=4)"


def test_fock_pair_subcommand(capsys):
    code, out, _ = invoke(capsys, "fock", "pair", "Z[1][1]^2", "Z[1][1]^2")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = invoke(capsys, "fock", "pair", "Z[1][1]", "Z[1][2]")
    assert code == 0
    assert out.strip() == "0"


def test_fock_pair_reads_an_i_factor_after_a_coefficient(capsys):
    code, out, err = invoke(capsys, "fock", "pair", "2*i*i", "1")
    assert (code, out, err) == (0, "-2\n", "")


def test_domain_error_exit_code(capsys):
    code, out, err = invoke(capsys, "branch", "--to", "so", "--rank", "4", "2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("OutsideStableRange")
    code, _, err = invoke(capsys, "tensor", "--rank", "1", "1,1")
    assert code == 1
    assert err.startswith("RankTooSmall")
    code, out, err = invoke(capsys, "tensor", "--rank", "-2", "0")
    assert code == 1 and out == ""
    assert err == "RankConstraint: rank must be a positive integer, got -2\n"


def test_non_positive_branch_and_reciprocity_ranks_exit_with_the_rank_message(capsys):
    """--rank and --k are plain ints, so a negative or zero rank reaches the
    library, which refuses it before its stable-range check."""
    for argv, rank in (
        (("branch", "--to", "so", "--rank", "-3", "0"), -3),
        (("branch", "--to", "sp", "--rank", "0", "1"), 0),
        (("reciprocity", "--n", "0", "--k", "-1", "0"), -1),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"RankConstraint: rank must be a positive integer, got {rank}\n"


def test_usage_error_exit_code(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "tensor", "1")[0] == 2  # neither --stable nor --rank
    assert invoke(capsys, "branch", "--to", "nowhere", "--rank", "5", "1")[0] == 2
    assert invoke(capsys, "dim", "--group", "u", "--rank", "2", "junk")[0] == 2
    code, _, err = invoke(capsys, "dim", "--group", "u", "--rank", "0", "1")
    assert code == 1 and err.startswith("RankConstraint")
    assert invoke(capsys, "fock", "verify", "sp2n", "--n", "0", "--k", "3")[0] == 2
    assert invoke(capsys, "fock", "verify", "supq", "--p", "0", "--k", "3")[0] == 2
    assert invoke(
        capsys, "fock", "hwv", "--kind", "upq", "--sig", "1,-1", "--q", "0", "--k", "2"
    )[0] == 2
    assert invoke(capsys, "fock", "verify", "sl2", "--k", "-1")[0] == 2
    assert invoke(capsys, "fock", "verify", "sp2n", "--k", "-2")[0] == 2
    assert invoke(capsys, "fock", "verify", "supq", "--k", "0")[0] == 2
    assert invoke(capsys, "fock", "hwv", "--kind", "gl", "--sig", "1", "--k", "-1")[0] == 2


def test_fock_pair_zero_denominator_is_usage_error():
    code, out, err = invoke_process("fock", "pair", "1/0*Z[1][1]", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_json_round_trip():
    dec = tensor_multi([(2,), (1, 1)], 3)
    obj = json.loads(json.dumps(decomposition_to_json(dec)))
    assert obj["group"] == {"family": dec.group.family, "rank": dec.group.rank}
    assert {tuple(t["signature"]): t["mult"] for t in obj["terms"]} == dec.terms
    stable_obj = decomposition_to_json(dec, k0=3)
    assert stable_obj["k0"] == 3


def test_byte_identical_outputs(capsys):
    first = invoke(capsys, "tensor", "--rank", "3", "--json", "2,1", "1")
    second = invoke(capsys, "tensor", "--rank", "3", "--json", "2,1", "1")
    assert first == second
    a = invoke(capsys, "fock", "hwv", "--kind", "gl", "--sig", "2,1",
               "--n", "2", "--k", "3", "--seed", "9", "--json")
    b = invoke(capsys, "fock", "hwv", "--kind", "gl", "--sig", "2,1",
               "--n", "2", "--k", "3", "--seed", "9", "--json")
    assert a == b


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ["tensor", "--rank", "2", "--json", "--cache", str(cache), "1", "2", "2", "3"]
    first = invoke(capsys, *args)
    assert first[0] == 0
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["engine_version"]
    second = invoke(capsys, *args)
    assert second == first
    assert len(cache.read_text().strip().splitlines()) == 1


def test_fock_hwv_cache_key_ignores_seed(tmp_path, capsys, monkeypatch):
    """--seed changes no answer, so runs that differ only in it share one record."""
    cache = tmp_path / "cache.jsonl"
    built = []
    monkeypatch.setattr(cli, "hwv", lambda *a: built.append(a) or isotypic.hwv(*a))
    args = ["fock", "hwv", "--kind", "gl", "--sig", "2,1", "--n", "2", "--k", "3",
            "--json", "--cache", str(cache)]
    first = invoke(capsys, *args, "--seed", "1")
    second = invoke(capsys, *args, "--seed", "2")
    assert first[0] == 0 and second == first
    assert len(cache.read_text().strip().splitlines()) == 1
    assert len(built) == 1  # the second run is served from the cache


def test_fock_hwv_so_rank1_rejects_several_parts(tmp_path, capsys):
    """A signature of two parts is an error, not the vector of its first part."""
    cache = tmp_path / "cache.jsonl"
    args = ["fock", "hwv", "--kind", "so_rank1", "--sig", "2,1", "--k", "4", "--cache", str(cache)]
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err == "BadSignature: signature [2, 1] has more than one part\n"
    assert not cache.exists() or cache.read_text() == ""


def test_fock_hwv_so_rank1_rejects_more_than_one_row(tmp_path, capsys):
    """--n other than 1 is an error with no cache record, not a one-row vector."""
    cache = tmp_path / "cache.jsonl"
    args = ["fock", "hwv", "--kind", "so_rank1", "--sig", "2", "--n", "3", "--k", "4",
            "--json", "--cache", str(cache)]
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err == "BadSignature: an isotropic linear form needs n = 1, got n=3\n"
    assert not cache.exists() or cache.read_text() == ""


def test_cache_ignores_corruption_and_old_versions(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("not json at all\n")
    args = ["dim", "--group", "u", "--rank", "2", "--cache", str(cache), "8"]
    code, out, err = invoke(capsys, *args)
    assert code == 0 and out.strip() == "9"
    assert "corrupt" in err
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 2
    # A version bump invalidates existing records.
    record = json.loads(lines[1])
    record["engine_version"] = "0.0.0"
    stale = dict(record)
    stale["result"] = {"dim": 12345, "group": record["result"]["group"],
                       "signature": record["result"]["signature"]}
    cache.write_text(json.dumps(stale) + "\n")
    code, out, _ = invoke(capsys, *args)
    assert code == 0 and out.strip() == "9"


def test_cache_ignores_records_of_other_engine_source(tmp_path, capsys, monkeypatch):
    """A record keyed under another source fingerprint is never served,
    even when it carries the current engine version."""
    cache = tmp_path / "cache.jsonl"
    args = ["dim", "--group", "u", "--rank", "2", "--cache", str(cache), "8"]
    assert invoke(capsys, *args)[:2] == (0, "9\n")
    record = json.loads(cache.read_text())
    assert record["key"] == cli.canonical_key(record["query"])
    assert record["engine_version"] == isotypic.__version__
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_engine_fingerprint", lambda: "0" * 64)
        other_key = cli.canonical_key(record["query"])
    assert other_key != record["key"]
    stale = dict(record, key=other_key)
    stale["result"] = dict(record["result"], dim=12345)
    cache.write_text(json.dumps(stale) + "\n")
    assert invoke(capsys, *args)[:2] == (0, "9\n")
    lines = cache.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[1]) == record


def test_cache_lookup_parses_only_the_candidate(tmp_path, monkeypatch):
    """Records that cache_put wrote under other keys are skipped unparsed."""
    cache = str(tmp_path / "cache.jsonl")
    for i in range(2000):
        cli.cache_put(cache, {
            "key": cli.canonical_key(f"dim|u|rank=3|{i}"), "query": f"dim|u|rank=3|{i}",
            "result": {"dim": i}, "engine_version": isotypic.__version__,
        })
    key = cli.canonical_key("dim|u|rank=2|8")
    wanted = {"key": key, "query": "dim|u|rank=2|8", "result": {"dim": 9},
              "engine_version": isotypic.__version__}
    cli.cache_put(cache, wanted)
    calls = []

    def counting_loads(text):
        calls.append(text)
        return json.loads(text)

    monkeypatch.setattr(cli, "json", SimpleNamespace(
        loads=counting_loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError,
    ))
    assert cli.cache_get(cache, key) == wanted
    assert len(calls) == 1


def _cached_dim_query(tmp_path, capsys):
    """Run one cached ``dim`` query; return its argv, the cache path and its one line."""
    cache = tmp_path / "cache.jsonl"
    args = ["dim", "--group", "u", "--rank", "2", "--cache", str(cache), "8"]
    code, out, err = invoke(capsys, *args)
    assert (code, out, err) == (0, "9\n", "")
    return args, cache, cache.read_text()


def test_cache_skips_damaged_record_of_another_key(tmp_path, capsys):
    args, cache, line = _cached_dim_query(tmp_path, capsys)
    other = json.dumps({
        "key": cli.canonical_key("dim|u|rank=3|1"), "query": "dim|u|rank=3|1",
        "result": {"group": {"family": "u", "rank": 3}, "signature": [1], "dim": 3},
        "engine_version": isotypic.__version__,
    })
    cache.write_text(other[: len(other) // 2] + "\n" + line)
    before = cache.read_text()
    assert invoke(capsys, *args) == (0, "9\n", "")
    assert cache.read_text() == before


def test_cache_reports_damaged_record_of_its_own_key(tmp_path, capsys):
    args, cache, line = _cached_dim_query(tmp_path, capsys)
    cache.write_text(line[: len(line) // 2] + "\n")
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (0, "9\n") and "corrupt" in err
    lines = cache.read_text().splitlines()
    assert len(lines) == 2 and lines[1] + "\n" == line


def test_cache_skips_own_key_record_without_query_or_dict_result(tmp_path, capsys):
    """A record under the query's key is served only with its query and a dict result."""
    args, cache, line = _cached_dim_query(tmp_path, capsys)
    record = json.loads(line)
    damaged = [
        {key: value for key, value in record.items() if key != "query"},
        {key: value for key, value in record.items() if key != "result"},
        dict(record, result=[1]),
    ]
    for bad in damaged:
        cache.write_text(json.dumps(bad) + "\n")
        code, out, err = invoke(capsys, *args)
        assert (code, out) == (0, "9\n")
        assert err == "warning: skipping corrupt cache line\n"
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and lines[1] + "\n" == line


def test_cache_serves_record_with_fields_in_another_order(tmp_path, capsys):
    args, cache, line = _cached_dim_query(tmp_path, capsys)
    record = json.loads(line)
    reordered = {"engine_version": record.pop("engine_version"), **record}
    cache.write_text(json.dumps(reordered) + "\n")
    before = cache.read_text()
    assert invoke(capsys, *args) == (0, "9\n", "")
    assert cache.read_text() == before


def test_cache_does_not_change_output(tmp_path, capsys):
    with_cache = invoke(
        capsys, "branch", "--to", "so", "--rank", "5", "--json",
        "--cache", str(tmp_path / "c.jsonl"), "2,2",
    )
    without_cache = invoke(capsys, "branch", "--to", "so", "--rank", "5", "--json", "2,2")
    assert with_cache == without_cache


def test_env_var_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.jsonl"
    monkeypatch.setenv("ISOTYPIC_CACHE", str(cache))
    code, out, _ = invoke(capsys, "dim", "--group", "sp", "--rank", "4", "1,1")
    assert code == 0 and out.strip() == "5"
    assert cache.exists()


def test_group_family_json_shape():
    dec = tensor_multi([(1,)], 2)
    obj = decomposition_to_json(dec)
    assert obj == {
        "group": {"family": "u", "rank": 2},
        "terms": [{"signature": [1], "mult": 1}],
    }
    assert dec.group == GroupFamily("u", 2)


_SMALL = st.integers(-2, 4)
_SIG = st.lists(st.integers(-2, 3), min_size=1, max_size=3).map(
    lambda parts: ",".join(map(str, parts))
)


@st.composite
def _cli_argv(draw):
    """Small, possibly invalid argument lists for the computing subcommands."""
    command = draw(st.sampled_from(
        ["tensor", "branch", "dim", "identity-mult", "verify", "hwv"]
    ))
    rank = ["--rank", str(draw(_SMALL))]
    if command == "tensor":
        argv = ["tensor", *draw(st.sampled_from([["--stable"], rank]))]
        argv += draw(st.lists(_SIG, min_size=1, max_size=3))
    elif command == "branch":
        argv = ["branch", "--to", draw(st.sampled_from(["so", "sp"]))]
        argv += [*draw(st.sampled_from([["--stable"], rank])), draw(_SIG)]
    elif command == "dim":
        # Only dim answers at any rank; the other subcommands still crash at huge ones.
        rank = ["--rank", str(draw(st.one_of(_SMALL, st.integers(5, 10**20))))]
        argv = ["dim", "--group", draw(st.sampled_from(["u", "so", "sp"])), *rank]
        argv.append(draw(_SIG))
    elif command == "identity-mult":
        argv = ["identity-mult", "--mu", draw(_SIG)]
        argv += draw(st.lists(_SIG, min_size=1, max_size=2))
    else:
        argv = ["fock", command]
        if command == "verify":
            argv.append(draw(st.sampled_from(["sl2", "sp2n", "supq"])))
        else:
            kind = draw(st.sampled_from(["gl", "so_rank1", "so_general", "upq"]))
            argv += ["--kind", kind, "--sig", draw(_SIG)]
        argv += ["--k", str(draw(_SMALL))]
        for name in ("--n", "--p", "--q"):
            if draw(st.booleans()):
                argv += [name, str(draw(st.integers(-1, 2)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=80, deadline=None)
@given(_cli_argv())
def test_cli_fuzz_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        assert re.match(r"[A-Z]\w+: ", err), (argv, err)
    if code == 0:
        assert out.getvalue() and not err, argv
