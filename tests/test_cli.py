"""Command-line surface: subcommands, formats, exit codes, round trips."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from orbitcodes.cli import main
from tests.conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "--n", "10", "--d", "4", "--k", "3")
    assert code == 0 and out.strip() == "24893"


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6", "--k", "3")
    assert code == 0
    assert "d=2:14" in out and "d=4:8" in out and "d=6:1" in out
    assert "mass 1395" in out
    assert "diff vs published table: none" in out


def test_classify_json_and_csv(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6", "--k", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mass_ok"] and doc["orbits"] == 23
    code, out, _ = run(capsys, "classify", "--n", "6", "--k", "3",
                       "--format", "csv")
    assert code == 0
    assert "3,6,9,1" in out.splitlines()


def test_classify_deterministic(capsys):
    a = run(capsys, "classify", "--n", "8", "--k", "3", "--m", "5")
    b = run(capsys, "classify", "--n", "8", "--k", "3", "--m", "5")
    assert a == b


def test_classify_quasi_diff_report(capsys):
    code, out, _ = run(capsys, "classify", "--n", "8", "--k", "4", "--m", "3")
    assert code == 0
    assert "published 2262, computed 2266" in out
    assert "degenerate:17" in out


# sha256 of `classify --n N --k K --m M --format json` stdout and of the files
# `classify --n 8 --k 3` writes, taken from the CLI as it was before the
# correlation kernel had lanes of 3 and 4 bits and the walk a flat last row
CLASSIFY_JSON_SHA256 = {
    (9, 1, 1): "1b713149ec211fd344379a75f2d15acda8e0121062b070ef317395eac900f833",
    (9, 2, 1): "f934693c5c7c34bc5f1f04570cf7dd4edfdb9dbcef7b23a93d2a476270d59d19",
    (9, 3, 1): "cd5e261b180fe9541e1f9e2389cad4c14e7c5b16f08634dc307dd829e3e8751f",
    (9, 4, 1): "da6ac9c56ca4c4d83713a2386c08c8f34ab4104f55d4b1a65e583976910e27cf",
    (10, 3, 1): "3345494f3642a822d04c97810c105d8484c2409c6aeefbbc89475072814cac27",
    (8, 4, 3): "211ef59498cc2df3dcc11c0cc840cca8a33111eb538e7c79e03de6df0e518653",
    (8, 4, 5): "040aa2519dfa7548c8782de5c63cadc34b52b93fdb77454168f4168bd7b6e58f",
    (8, 4, 15): "006b255e134f4430c9e22b31deddcfcd857c33ccb1c9edee220cebe57670d003",
    (8, 4, 17): "6c1e87c7bf40aa98187e9187df3cb9d75ecd4035d2f797eb11385fdf1cdb9361",
    (8, 4, 51): "9a44b2ab635c99e0cc91290b889daf6b313ad6e484fd01ec92769e46c10f8ea2",
    (8, 4, 85): "55e5cea894bc95db26d53269e5ea59d189df6e5fbbcde04a016ef20c39abe47e",
}
CLASSIFY_N8K3_FILE_SHA256 = {
    "--db": "c9c72c96f0f639e46873584af274490b985a7c42f3eec181ddcbc036feedcda0",
    "--checkpoint": "b299b4956c684051d87073e8d51f2fcebfbb1047ef4870636365b1ed0ff4d15e",
}


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("n, k, m", list(CLASSIFY_JSON_SHA256))
def test_classify_json_is_pinned(capsys, n, k, m):
    code, out, _ = run(capsys, "classify", "--n", str(n), "--k", str(k), "--m", str(m),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_JSON_SHA256[n, k, m]


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("flag", list(CLASSIFY_N8K3_FILE_SHA256))
def test_classify_file_is_pinned(tmp_path, capsys, flag):
    path = tmp_path / "out"
    code, _, _ = run(capsys, "classify", "--n", "8", "--k", "3", flag, str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CLASSIFY_N8K3_FILE_SHA256[flag]


def test_classify_extended_gate(capsys, monkeypatch):
    """The gate counts candidates x q^k, the vectors the walk spans: every
    n <= 9 runs, n = 10 only at k <= 3 and k >= 8, and n = 16 at k = 15
    (32,767 candidates of 32,768 vectors each) needs --extended."""
    from orbitcodes import orbits

    class Ran(Exception):
        pass

    def census(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(orbits, "classify", census)
    ungated = [(9, k) for k in range(10)] + [(10, k) for k in (0, 1, 2, 3, 8, 9, 10)]
    for n, k in ungated:
        with pytest.raises(Ran):
            main(["classify", "--n", str(n), "--k", str(k)])
    for n, k in [(10, 4), (10, 5), (10, 6), (10, 7), (16, 15)]:
        code, _, err = run(capsys, "classify", "--n", str(n), "--k", str(k))
        assert code == 4 and "--extended" in err and err.count("\n") == 1
        with pytest.raises(Ran):
            main(["classify", "--n", str(n), "--k", str(k), "--extended"])


def test_classify_invalid_modulus(capsys):
    code, _, err = run(capsys, "classify", "--n", "6", "--k", "2", "--m", "4")
    assert code == 3 and "does not divide" in err


def test_verify_ok_and_mismatch(capsys):
    code, out, _ = run(capsys, "verify", data_path("example1_n10k5.json"))
    assert code == 0
    assert "[10, 5, 33, 10] OK" in out and "optimal" in out
    code, out, err = run(capsys, "verify", data_path("example3_n8k4.json"))
    assert code == 5
    assert "4505" in out and "duplicate" in out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "dualize"])
def test_malformed_generator_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"q": 2, "n": 4, "poly": [1, 1, 0, 0, 1]},
                               "m": 1, "generators": [5]}))
    code, _, err = run(capsys, command, str(bad))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_poly_term_is_a_parse_error(capsys):
    code, _, err = run(capsys, "selfdual", "--n", "4", "--poly", "x^a")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("poly", ["x^4+x+1-", "x^4 - - x + 1", "x^4+x+1+", "x^4++x+1"])
def test_dangling_poly_sign_is_a_parse_error(capsys, poly):
    code, _, err = run(capsys, "selfdual", "--n", "4", "--poly=" + poly)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("poly", ["x^^4+x+1", "2**x+1", "x4+x+1"])
def test_malformed_poly_term_is_a_parse_error(capsys, poly):
    code, _, err = run(capsys, "selfdual", "--n", "4", "--poly=" + poly)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "malformed term" in err


@pytest.mark.parametrize("argv", [["selfdual", "--n", "4"], ["classify", "--n", "4", "--k", "2"]],
                         ids=["selfdual", "classify"])
def test_empty_poly_is_a_parse_error(capsys, argv):
    """--poly '' is refused, not read as "no --poly"."""
    code, _, err = run(capsys, *argv, "--poly", "")
    assert code == 2
    assert err == "error: cannot parse polynomial '': no terms\n"


@pytest.mark.extended
def test_verify_of_a_dualized_file_extended(tmp_path, capsys):
    """The file dualize writes for example3_n8k4 lists its 4,505 words under
    m = 255, each a one-word orbit, which verify compares word by word."""
    out = str(tmp_path / "dual.json")
    assert run(capsys, "dualize", data_path("example3_n8k4.json"), "-o", out)[0] == 0
    code, text, _ = run(capsys, "verify", out, "--format", "json")
    assert code == 0
    assert json.loads(text) == {
        "field": {"q": 2, "n": 8, "poly": [1, 0, 1, 1, 1, 0, 0, 0, 1]}, "m": 255,
        "generators": 4505, "duplicate_generators": [], "orbit_sizes": [1] * 4505,
        "size": 4505, "dims": [4], "min_dist": 4, "claimed": None,
        "matches_claim": None, "bound": 6477, "optimal": False, "notes": []}
    assert run(capsys, "verify", out) == (0, "[8, 4, 4505, 4], bound 6477\n", "")


def test_dualize_round_trip(tmp_path, capsys):
    d1 = str(tmp_path / "dual.json")
    d2 = tmp_path / "dual2.json"
    code, _, _ = run(capsys, "dualize", data_path("cyclic_n5k2.json"), "-o", d1)
    assert code == 0
    code, _, _ = run(capsys, "dualize", d1, "-o", str(d2))
    assert code == 0
    with open(data_path("cyclic_n5k2.json")) as fh:
        orig = json.load(fh)
    back = json.loads(d2.read_text())
    from orbitcodes import from_exponents, make_field
    from orbitcodes.codes import code_from_generators
    f = make_field(2, 5)
    orig_code = code_from_generators(
        f, orig["m"], [from_exponents(f, g) for g in orig["generators"]])
    back_words = {tuple(sorted(g)) for g in back["generators"]}
    assert back_words == {w.exponents for w in orig_code.words}


def test_dualize_json(tmp_path, capsys):
    """--format json prints the text line's three facts; the text line stays."""
    out = str(tmp_path / "dual.json")
    code, text, err = run(capsys, "dualize", data_path("cyclic_n5k2.json"), "-o", out,
                          "--format", "json")
    assert code == 0 and err == f"wrote 31 dual words to {out}\n"
    assert text == json.dumps({"size": 31, "dims": [3], "cyclic": False}, indent=1) + "\n"
    code, text, _ = run(capsys, "dualize", data_path("cyclic_n5k2.json"), "-o", out)
    assert code == 0 and text == "dual code: size 31, dims [3], cyclic: False\n"


# sha256 of the files dualize and spread write, taken from the CLI as it was
# before dump_code_file laid out the exponent lists itself
WRITTEN_SHA256 = {
    "example3_n8k4": "492c07dbe694f2dd846bc4401169b004b06c8ae95da93d97a3ad2cc773e77f23",
    "quasi3_n8k4": "231d6ea65f8d5d99854aecd3e77ee56219f04acea5021209090e4c2c3b483500",
    "cyclic_n5k2": "42d0ea43155bd9a0c32f162245ae52afd8ac9e3df3504716022528572ec11fd0",
    # taken before codes from generators kept their orbits: k = n/2, and a
    # generator whose cyclic orbit (9 words) is shorter than q^n - 1
    "example1_n10k5": "911e1ffcdcd4154cc0ab3972c1b27ecb060fcab874719440dcbb672fbe01c91d",
    "spread_n6k3": "001f5d96fa0ccbe7bf82cf7e6b843311c556de2300475cb420dd05d1042eb12f",
    "spread --n 6 --t 3": "2c8a65bc039eb0922cab1f2e62422a545ecf8d007c1491137c3ade755267e939",
}


@pytest.mark.parametrize("name", ["example3_n8k4", "quasi3_n8k4", "cyclic_n5k2",
                                  "example1_n10k5", "spread_n6k3"])
def test_dualize_file_is_pinned(tmp_path, capsys, name):
    out = tmp_path / "dual.json"
    assert run(capsys, "dualize", data_path(name + ".json"), "-o", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN_SHA256[name]


def test_spread_file_is_pinned(tmp_path, capsys):
    out = tmp_path / "spread.json"
    assert run(capsys, "spread", "--n", "6", "--t", "3", "-o", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN_SHA256["spread --n 6 --t 3"]


def test_spread(tmp_path, capsys, monkeypatch):
    out_file = str(tmp_path / "spread.json")
    code, out, _ = run(capsys, "spread", "--n", "10", "--t", "5", "-o", out_file)
    assert code == 0 and "[10,5,33,10]" in out
    code, out, _ = run(capsys, "verify", out_file)
    assert code == 0 and "optimal" in out


def test_graph_and_clique_pipeline(tmp_path, capsys):
    db = str(tmp_path / "orbits.jsonl")
    g = str(tmp_path / "graph.dimacs")
    code, _, err = run(capsys, "classify", "--n", "8", "--k", "3", "--db", db)
    assert code == 0
    code, out, _ = run(capsys, "graph", "--db", db, "--d", "4", "-o", g)
    assert code == 0 and os.path.exists(g)
    code, out, _ = run(capsys, "clique", "--graph", g, "--mode", "greedy",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] >= 1 and not doc["certified"]
    # db-backed clique run assembles and re-verifies an actual code
    code, out, _ = run(capsys, "clique", "--db", db, "--d", "4",
                       "--mode", "greedy", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"][0] == 8 and doc["params"][3] >= 4
    assert len(doc["representatives"]) == doc["size"]


# sha256 of the DIMACS file `graph` writes for the n = 8, k = 3, d = 4 orbit
# graph, taken from the CLI before write_dimacs wrote one vertex at a time
GRAPH_N8K3_D4_SHA256 = "b7b016626f18e7494a814f717aa0b65854bfc2f476821c1cc26b116d00fc2b34"


def test_graph_file_is_pinned(tmp_path, capsys):
    db, g = tmp_path / "orbits.jsonl", tmp_path / "graph.dimacs"
    assert run(capsys, "classify", "--n", "8", "--k", "3", "--db", str(db))[0] == 0
    assert run(capsys, "graph", "--db", str(db), "--d", "4", "-o", str(g))[0] == 0
    assert hashlib.sha256(g.read_bytes()).hexdigest() == GRAPH_N8K3_D4_SHA256


# sha256 of the help texts (stdout) and of the unknown-command error
# (stderr), taken at 80 columns from the CLI as it was when main gave every
# subcommand its arguments, but for classify's and conjecture-check's, taken
# once their --budget-sec help named the census walk's wall-clock limit and
# exit 4; argparse's layout differs between Python versions
HELP_SHA256 = {
    "": "ed5c5b4465c774490519163efd92ddd833976a627ae10ba47db8a00876f1f0b8",
    "classify": "c8db11905b5299f312436aa5e12eb0e965d72ca1d49b502a42e35770a5ffacad",
    "verify": "282dee9641baba6c4ce233be7ffb8a5b6def717d99126847c86d8491f46b6e97",
    "dualize": "26a47f7a2cf56abad67c94e405c8602addc806723b17069c8d77268fb22a0fb4",
    "bound": "200736c62b8ec1ac945a72c7414ab299885b99da0f28fe6971b616584147a89a",
    "spread": "1fefa06551fcc65cacc3172d1b73fa74846a37a359451a86ce6e08880b99f2c8",
    "graph": "68c52d4828552b10da1a172f71ab4340e6eaa6ed4d2adadcd7d0113244a3452b",
    "clique": "603dd4f0376dc0a1c087093d0ad3fdfcf0867ef18482c0359bd61b22aec16f7d",
    "selfdual": "cabb503e451aefe8bdb6ae1ef6799e470a47a6c086d79e4de1b82919cb6a7d8a",
    "conjecture-check": "01a19113915a1ef3b30121f80698dc2ab4fd313cc390b88b466aefc68639d7c3",
    "bogus": "097ce2a01fb5b1edfd7b3a2643695f7b6a76ee648828f69dfbaa6ba99050c137",
}
HELP_CASES = [([command, "--help"] if command else ["--help"], 0)
              for command in HELP_SHA256 if command != "bogus"] + [(["bogus"], 2)]


def exit_output(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of CPython 3.11's argparse layout")
@pytest.mark.parametrize("argv, code", HELP_CASES, ids=[" ".join(a) for a, _ in HELP_CASES])
def test_help_and_unknown_command_are_pinned(capsys, monkeypatch, argv, code):
    got, out, err = exit_output(capsys, monkeypatch, main, argv)
    key = "" if argv == ["--help"] else argv[0]
    assert got == code
    assert hashlib.sha256((out or err).encode()).hexdigest() == HELP_SHA256[key]


@pytest.mark.parametrize("argv, code", HELP_CASES, ids=[" ".join(a) for a, _ in HELP_CASES])
def test_help_matches_the_parser_with_every_argument(capsys, monkeypatch, argv, code):
    """main gives arguments only to the command it runs; what it prints is unchanged."""
    from orbitcodes.cli import build_parser
    full = exit_output(capsys, monkeypatch, build_parser().parse_args, argv)
    assert exit_output(capsys, monkeypatch, main, argv) == full
    assert full[0] == code


def test_main_gives_arguments_only_to_the_chosen_command(monkeypatch):
    from orbitcodes import cli
    built, build = [], cli.build_parser

    def recording_build(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recording_build)
    assert main(["bound", "--n", "10", "--d", "4", "--k", "3"]) == 0
    assert built == ["bound"]
    # verify is registered, but without the file argument it requires
    assert build("bound").parse_args(["verify"]).func is cli.cmd_verify


def test_selfdual(capsys):
    code, out, _ = run(capsys, "selfdual", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    primary = doc["constant_dimension_single_generator"]
    assert len(primary) == 1
    assert primary[0]["m"] == 5 and primary[0]["params"] == [4, 2, 2, 4]
    assert doc["other_minimal"]


def test_conjecture_check(capsys):
    code, out, _ = run(capsys, "conjecture-check", "--n", "6", "--k", "2")
    assert code == 0 and "yes" in out


@pytest.mark.parametrize("k", ["-1", "7"])
def test_k_outside_0_to_n_is_a_domain_error(tmp_path, capsys, k):
    db = tmp_path / "orbits.db"
    code, _, err = run(capsys, "classify", "--n", "6", "--k", k, "--db", str(db))
    assert_one_line_error((code, "", err), 3)
    assert "0..6" in err and not db.exists()
    code, _, err = run(capsys, "conjecture-check", "--n", "6", "--k", k)
    assert_one_line_error((code, "", err), 3)
    assert "0..6" in err


def test_custom_poly_flag(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4", "--k", "2",
                       "--poly", "x^4+x+1")
    assert code == 0 and "mass 35" in out


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "6", "--k", "3", "--workers", "4"],
    ["classify", "--n", "6", "--k", "3", "--seed", "7"],
    ["spread", "--n", "6", "--t", "3", "--workers", "2"],
    ["spread", "--n", "6", "--t", "3", "--seed", "7"],
    ["spread", "--n", "6", "--t", "3", "--budget-sec", "1"],
    ["spread", "--n", "6", "--t", "3", "--format", "json"],
    ["selfdual", "--n", "4", "--workers", "9"],
    ["selfdual", "--n", "4", "--seed", "7"],
    ["selfdual", "--n", "4", "--budget-sec", "1e-6"],
    ["selfdual", "--n", "4", "--format", "csv"],
    ["conjecture-check", "--n", "6", "--k", "2", "--workers", "2"],
    ["conjecture-check", "--n", "6", "--k", "2", "--seed", "7"],
    ["conjecture-check", "--n", "6", "--k", "2", "--format", "csv"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


def assert_one_line_error(result, code):
    status, _, err = result
    assert status == code
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "bound --q 1 --n 4 --d 4 --k 2", "bound --q 0 --n 4 --d 4 --k 2",
    "bound --n -3 --d 4 --k 2", "bound --n 0 --d 4 --k 0",
    "bound --n 4 --d 4 --k 9", "bound --n 4 --d 4 --k -1",
    "spread --n 6 --t 0", "spread --n 6 --t -3", "spread --n 6 --t 4"])
def test_bound_and_spread_outside_their_domain_are_domain_errors(tmp_path, capsys, argv):
    extra = ["-o", str(tmp_path / "spread.json")] if argv.startswith("spread") else []
    code, out, err = run(capsys, *argv.split(), *extra)
    assert_one_line_error((code, out, err), 3)
    assert out == "" and "Traceback" not in err and not list(tmp_path.iterdir())


def test_bound_takes_a_prime_power_q(capsys):
    code, out, _ = run(capsys, "bound", "--q", "4", "--n", "4", "--d", "4", "--k", "2")
    assert code == 0 and out.strip() == "17"


@pytest.mark.parametrize("argv", ["bound --n 4 --d 100 --k 2", "bound --n 4 --d 4 --k 0",
                                  "bound --n 5 --d 4 --k 4"],
                         ids=["d-above-2k", "k-0", "d-above-2(n-k)"])
def test_bound_above_the_largest_distance_is_one_word(capsys, argv):
    """Two k-subspaces are at most 2 min(k, n - k) apart, so only a one-word code fits."""
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and out.strip() == "1" and err == ""


@pytest.mark.parametrize("argv,status,out", [
    ("--n 5 --k 2 --d 200000", 0, "1\n"),
    ("--n 300 --k 150 --d 300", 0, f"{2 ** 150 + 1}\n"),
    ("--n 300 --k 150 --d 4", 3, ""),
    ("--n 1000000 --k 500000 --d 4", 3, ""),
], ids=["d-far-above-2k", "46-digits", "past-the-digit-limit", "n-1e6"])
def test_bound_answers_or_refuses_at_once(argv, status, out):
    """In a child, so that a bound that never finishes fails on the timeout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    child = subprocess.run([sys.executable, "-m", "orbitcodes.cli", "bound", *argv.split()],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, timeout=30)
    assert (child.returncode, child.stdout) == (status, out)
    if status:
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
        assert "digits" in child.stderr


UNWRITABLE_OUTPUT = {
    "classify --db": lambda out, db: ["classify", "--n", "5", "--k", "2", "--db", out],
    "classify --checkpoint": lambda out, db: ["classify", "--n", "5", "--k", "2",
                                              "--checkpoint", out],
    "dualize -o": lambda out, db: ["dualize", data_path("cyclic_n5k2.json"), "-o", out],
    "spread -o": lambda out, db: ["spread", "--n", "6", "--t", "3", "-o", out],
    "graph -o": lambda out, db: ["graph", "--db", db, "--d", "4", "-o", out],
}


@pytest.mark.parametrize("command", UNWRITABLE_OUTPUT)
def test_output_in_a_missing_directory_is_a_one_line_error(tmp_path, capsys, command):
    db = tmp_path / "orbits.jsonl"
    if command.startswith("graph"):
        assert run(capsys, "classify", "--n", "6", "--k", "3", "--db", str(db))[0] == 0
    out = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *UNWRITABLE_OUTPUT[command](str(out), str(db)))
    assert_one_line_error((code, "", err), 2)
    assert str(out) in err and "Traceback" not in err
    assert not out.parent.exists()


def test_graph_missing_db_is_a_parse_error(tmp_path, capsys):
    assert_one_line_error(run(capsys, "graph", "--db", str(tmp_path / "none.db"),
                              "--d", "4"), 2)


def test_graph_garbage_db_is_a_parse_error(tmp_path, capsys):
    db = tmp_path / "garbage.db"
    db.write_text("garbage\n")
    assert_one_line_error(run(capsys, "graph", "--db", str(db), "--d", "4"), 2)


def test_orbit_db_mixing_fields_is_a_parse_error(tmp_path, capsys):
    db = str(tmp_path / "orbits.jsonl")
    other = str(tmp_path / "other.jsonl")
    assert run(capsys, "classify", "--n", "6", "--k", "2", "--db", db)[0] == 0
    assert run(capsys, "classify", "--n", "6", "--k", "2", "--db", other,
               "--poly", "x^6+x+1")[0] == 0
    with open(db, "a") as fh, open(other) as src:
        fh.write(src.readline())
    assert_one_line_error(run(capsys, "graph", "--db", db, "--d", "2"), 2)


def test_graph_odd_threshold_is_a_domain_error(tmp_path, capsys):
    db = str(tmp_path / "orbits.jsonl")
    assert run(capsys, "classify", "--n", "6", "--k", "2", "--db", db)[0] == 0
    assert_one_line_error(run(capsys, "graph", "--db", db, "--d", "3"), 3)


@pytest.mark.parametrize("text", ["p edge 2 1\ne 1 3\n", "e 1 2\n", "c no p line\n",
                                  "p edge 2 1\ne 1 x\n", "p edge 3 2\ne 1 2\ne 2 2\n"],
                         ids=["edge-past-n", "edge-before-p", "no-p-line", "not-a-number",
                              "self-loop"])
def test_bad_dimacs_is_a_parse_error(tmp_path, capsys, text):
    g = tmp_path / "bad.dimacs"
    g.write_text(text)
    assert_one_line_error(run(capsys, "clique", "--graph", str(g)), 2)


def test_clique_needs_a_graph(capsys):
    assert_one_line_error(run(capsys, "clique"), 2)


@pytest.mark.parametrize("argv, message", [
    (["--db", "orbits.jsonl", "--graph", "graph.dimacs"], "takes --graph or --db, not both"),
    (["--graph", "graph.dimacs", "--d", "4"], "--d applies only with --db"),
    (["--db", "orbits.jsonl", "--seed", "3"], "--seed applies only to --mode greedy"),
    (["--graph", "graph.dimacs", "--mode", "exact", "--seed", "0"],
     "--seed applies only to --mode greedy"),
], ids=["graph-and-db", "d-with-graph", "seed-in-exact-mode", "seed-0-in-exact-mode"])
def test_clique_flag_it_would_ignore_is_a_parse_error(capsys, argv, message):
    """Each check comes before any file is read, so the files need not exist."""
    result = run(capsys, "clique", *argv)
    assert_one_line_error(result, 2)
    assert message in result[2]


def test_clique_db_without_an_orbit_at_the_threshold_is_an_empty_clique(tmp_path, capsys):
    """No 2-subspace orbit of F_2^6 reaches d = 6, so the graph has no vertex:
    the clique is empty and certified, and no code is assembled."""
    db = str(tmp_path / "orbits.jsonl")
    assert run(capsys, "classify", "--n", "6", "--k", "2", "--db", db)[0] == 0
    assert run(capsys, "clique", "--db", db, "--d", "6") == (0, "clique size 0 (certified)\n", "")
    code, out, err = run(capsys, "clique", "--db", db, "--d", "6", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"mode": "exact", "size": 0, "certified": True, "vertices": []}


def test_clique_defaults_are_d4_and_seed0(tmp_path, capsys):
    db = str(tmp_path / "orbits.jsonl")
    assert run(capsys, "classify", "--n", "6", "--k", "3", "--db", db)[0] == 0
    for argv, given in [([], ["--d", "4"]), (["--mode", "greedy"], ["--mode", "greedy", "--seed", "0"])]:
        assert run(capsys, "clique", "--db", db, *argv) == run(capsys, "clique", "--db", db, *given)


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_for_another_poly_is_refused(tmp_path, capsys):
    from orbitcodes import make_field
    from orbitcodes.orbits import Checkpoint, cyclic_orbit_data
    ck = tmp_path / "ck.jsonl"
    cyclic_orbit_data(make_field(2, 6), 3, checkpoint=Checkpoint(str(ck)))
    before = ck.read_text()
    assert_one_line_error(run(capsys, "classify", "--n", "6", "--k", "3",
                              "--checkpoint", str(ck), "--poly", "x^6+x+1"), 3)
    assert ck.read_text() == before


def _checkpoint_lines(path):
    from orbitcodes import make_field
    from orbitcodes.orbits import Checkpoint, cyclic_orbit_data
    cyclic_orbit_data(make_field(2, 6), 3, checkpoint=Checkpoint(str(path)))
    return path.read_text().splitlines()


def _assert_older_format_is_refused(tmp_path, capsys, fmt):
    ck = tmp_path / "ck.jsonl"
    header, *records = _checkpoint_lines(ck)
    assert json.loads(header)["checkpoint"] == 4
    ck.write_text("\n".join([json.dumps({**json.loads(header), "checkpoint": fmt}),
                             *records]) + "\n")
    before = ck.read_text()
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 3)
    assert f"format {fmt}" in result[2]
    assert ck.read_text() == before


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_in_format_1_is_refused(tmp_path, capsys):
    """A format-1 file lists its orbits in another order, so it is not resumed."""
    _assert_older_format_is_refused(tmp_path, capsys, 1)


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_in_format_2_is_refused(tmp_path, capsys):
    """Format 2 numbered the candidates of q > 2 in another order."""
    _assert_older_format_is_refused(tmp_path, capsys, 2)


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_in_format_3_is_refused(tmp_path, capsys):
    """Format 3 stored each orbit's walk data, and a resumed run printed its
    distances as stored.  An F_3^4 file with one record's distances set to 4
    and its last two records dropped resumed to a census that passed the
    mass check; it is refused, and a run from the file's representatives
    alone rebuilds every record."""
    from orbitcodes import make_field
    from orbitcodes.orbits import cyclic_orbit_data
    argv = ("classify", "--q", "3", "--n", "4", "--k", "2", "--checkpoint")
    fresh = run(capsys, *argv, str(tmp_path / "fresh.jsonl"))
    header, *lines = (tmp_path / "fresh.jsonl").read_text().splitlines()
    records = cyclic_orbit_data(make_field(3, 4), 2)
    old = [{**json.loads(line), "length": r.length, "stab_degree": r.stab_degree,
            "min_by_step": {str(g): d for g, d in r.min_by_step.items()}}
           for line, r in zip(lines, records)][:-2]
    old[0]["min_by_step"] = dict.fromkeys(old[0]["min_by_step"], 4)
    ck = tmp_path / "ck.jsonl"
    ck.write_text("\n".join(map(json.dumps, [{**json.loads(header), "checkpoint": 3},
                                              *old])) + "\n")
    before = ck.read_text()
    result = run(capsys, *argv, str(ck))
    assert_one_line_error(result, 3)
    assert "format 3" in result[2]
    assert ck.read_text() == before
    ck.write_text("\n".join([header, *lines[:-2]]) + "\n")
    assert run(capsys, *argv, str(ck)) == fresh


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("edit", ["negative", "repeated", "decreasing", "past-end"])
def test_checkpoint_cand_that_does_not_increase_is_refused(tmp_path, capsys, edit):
    """Records come in increasing candidate order, below the candidate count
    ([5, 2]_2 = 155 here); a resumed run that trusted a repeated index would
    walk an orbit twice, and one past the end would skip the rest, and each
    would fail the mass check."""
    ck = tmp_path / "ck.jsonl"
    header, *records = _checkpoint_lines(ck)
    records = [json.loads(line) for line in records[:5]]
    if edit == "negative":
        records[0]["cand"] = -1
    elif edit == "repeated":
        records[4]["cand"] = records[3]["cand"]
    elif edit == "past-end":
        records[4]["cand"] = 10 ** 6
    else:
        records[4]["cand"] = records[2]["cand"]
    ck.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 2)
    assert ("line 2" if edit == "negative" else "line 6") in result[2]


@pytest.mark.parametrize("k", [0, 6])
def test_checkpoint_of_the_zero_subspace_and_the_full_space(tmp_path, capsys, k):
    """k = 0 and k = n write a checkpoint like any other k, and resume from it."""
    ck = tmp_path / "ck.jsonl"
    argv = ("classify", "--n", "6", "--k", str(k), "--checkpoint", str(ck))
    first = run(capsys, *argv)
    assert first[0] == 0 and "mass 1 = " in first[1]
    lines = ck.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[1])["cand"] == 0
    assert run(capsys, *argv) == first
    assert ck.read_text().splitlines() == lines


@pytest.mark.parametrize("content", [b'{"not": "a checkpoint"}', b"first line\nlast line"],
                         ids=["json-without-newline", "text-with-torn-last-line"])
def test_checkpoint_path_to_another_file_is_refused_and_kept(tmp_path, capsys, content):
    """A file that does not start with a checkpoint header is neither cut nor
    overwritten, even when it does not end in a newline."""
    path = tmp_path / "notes.json"
    path.write_bytes(content)
    result = run(capsys, "classify", "--n", "5", "--k", "2", "--checkpoint", str(path))
    assert_one_line_error(result, 2)
    assert path.read_bytes() == content


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_with_a_torn_last_record_resumes(tmp_path, capsys):
    """The torn record is cut off, the run resumes after the last whole one,
    and the file ends as the uninterrupted run's does."""
    argv = ("classify", "--n", "6", "--k", "3", "--checkpoint")
    whole = run(capsys, *argv, str(tmp_path / "whole.jsonl"))
    lines = (tmp_path / "whole.jsonl").read_text().splitlines(keepends=True)
    ck = tmp_path / "ck.jsonl"
    ck.write_text("".join(lines[:6]) + lines[6][:len(lines[6]) // 2])
    assert run(capsys, *argv, str(ck)) == whole
    assert ck.read_text().splitlines(keepends=True) == lines


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_rep_that_is_not_the_smallest_member_is_refused(tmp_path, capsys):
    from orbitcodes.subspace import rotate_bits
    ck = tmp_path / "ck.jsonl"
    header, first, *records = _checkpoint_lines(ck)
    rec = json.loads(first)
    # another member of the same orbit, so its size fits and it is a subspace
    rec["rep_bits"] = format(rotate_bits(int(rec["rep_bits"], 16), 1, 63), "x")
    ck.write_text("\n".join([header, json.dumps(rec), *records]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 2)
    assert "line 2" in result[2]


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_rep_that_is_not_a_subspace_is_refused(tmp_path, capsys):
    """A rep whose size is right and that is its orbit's smallest member, but
    that is not closed under addition, is refused: the records are computed
    from it."""
    from orbitcodes import OrbitCodesError, from_exponents, make_field
    with pytest.raises(OrbitCodesError, match="not closed"):
        from_exponents(make_field(2, 6), range(7))
    ck = tmp_path / "ck.jsonl"
    header, first, *records = _checkpoint_lines(ck)
    ck.write_text("\n".join([header, json.dumps({**json.loads(first), "rep_bits": "7f"}),
                             *records]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 2)
    assert "line 2" in result[2]


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_without_a_predicted_conjugate_fails(tmp_path, capsys):
    """A file that lacks an orbit whose Frobenius conjugate it stores earlier,
    with records after it, leaves that orbit in the map of a resumed run:
    exit 5, not a census short of an orbit."""
    from orbitcodes import make_field
    from orbitcodes.orbits import _frobenius_conjugates
    field = make_field(2, 6)
    ck = tmp_path / "ck.jsonl"
    header, *records = _checkpoint_lines(ck)
    predicted, cut = set(), None
    for j, line in enumerate(records[:-1]):
        bits = int(json.loads(line)["rep_bits"], 16)
        if bits in predicted:
            cut = j
            break
        predicted.update(_frobenius_conjugates(field, bits))
    assert cut is not None
    ck.write_text("\n".join([header, *records[:cut], *records[cut + 1:]]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 5)
    assert "never met" in result[2]


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_without_a_self_conjugate_orbit_fails(tmp_path, capsys):
    """A file that lacks an orbit that is its own Frobenius class, with
    records after it, leaves nothing in the conjugate map of a resumed run;
    the count per stabilizer degree against the closed form makes it exit
    5 before the stdout is written."""
    from orbitcodes import make_field
    from orbitcodes.orbits import _frobenius_conjugates
    field = make_field(2, 6)
    ck = tmp_path / "ck.jsonl"
    header, *records = _checkpoint_lines(ck)
    cut = next(j for j, line in enumerate(records[:-1])
               if not _frobenius_conjugates(field, int(json.loads(line)["rep_bits"], 16)))
    ck.write_text("\n".join([header, *records[:cut], *records[cut + 1:]]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 5)
    assert result[1] == "" and "the closed form" in result[2]


@pytest.mark.extended
@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_of_a_census_stopped_by_its_budget_resumes(tmp_path, capsys):
    """The n = 10, k = 4 census stopped by --budget-sec 1 keeps every record
    it found, and resumes to the stdout of a run without a checkpoint."""
    argv = ("classify", "--n", "10", "--k", "4", "--extended")
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    ck = str(tmp_path / "ck.jsonl")
    assert run(capsys, *argv, "--checkpoint", ck, "--budget-sec", "1")[0] == 4
    assert run(capsys, *argv, "--checkpoint", ck) == fresh


def test_selfdual_other_minimal_is_every_non_primary_hit(capsys, monkeypatch):
    """F_3^6 under x^6+x^5+2 has 28,315 hits; listing them takes linear time."""
    import time
    from orbitcodes import construct
    hits = []
    search = construct.self_dual_search

    def recording_search(field):
        hits.extend(search(field))
        return hits

    monkeypatch.setattr(construct, "self_dual_search", recording_search)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "selfdual", "--q", "3", "--n", "6",
                       "--poly", "2,0,0,0,0,1,1", "--format", "json")
    # the search takes a few seconds; a quadratic filter took minutes
    assert code == 0 and time.monotonic() - t0 < 60
    doc = json.loads(out)
    others = [h for h in hits if not (h.constant_dimension and h.single_generator)]
    assert len(doc["constant_dimension_single_generator"]) == 16940
    assert len(others) == 11375 == len(hits) - 16940
    assert doc["other_minimal"] == [
        {"m": h.m, "size": h.code.size, "dims": list(h.code.dims),
         "orbit_count": h.orbit_count, "constant_dimension": h.constant_dimension}
        for h in others]
    assert hashlib.sha256(out.encode()).hexdigest() == SELFDUAL_STDOUT_SHA256["q3n6", "json"]


# sha256 of `selfdual` stdout, taken from the CLI as it was before
# SelfDualHit held word bitsets (each hit then held its SubspaceCode)
SELFDUAL_STDOUT_SHA256 = {
    ("4", "json"): "dc135468e3bf0fff7115dbb15cb5f95d48a18d99993691bb814dc5166d8dfb12",
    ("4", "text"): "5a6b5fa0c52e4b59d1799f5c007e16ae76a0e2182aac46f07192a849818a191a",
    ("6", "json"): "bac6e9641bcf2627a836e39bac382f3881fec849a317325f78ce94ce0d8b644e",
    ("6", "text"): "e4be9ceae1c9fbfdf8e423dd7e21e555fe912ef28f039266b558c552cce5314c",
    ("8", "json"): "8ed588173144198bb48fa6cd241ad3b82a537b2f5a9e9819e47d655948d52bcf",
    ("8", "text"): "b3954c408474a54432772d0a7bc9977e50c9c575ed391a7ac3a3c2231dba8043",
    # --q 3 --n 6 --poly 2,0,0,0,0,1,1
    ("q3n6", "json"): "ca23855fc3832a3fb5c25009c10ee2973e6b150512dd3d7186d78f3b0be28609",
}


# Bound on the peak resident set of a child running `selfdual --n 8`, read
# from its own VmHWM.  The child peaked at about 104 MB while the search held
# every subspace's bitset and a dict over them, at about 40 MB once it held
# member ids, at about 33 MB while each union-find level kept its member ->
# node map and parent list for the whole search, and at 24.0-24.2 MB on
# CPython 3.10, 27.2-27.3 MB on 3.11 and 26.0-26.1 MB on 3.12 while each
# level built its own map and parent list.  With the complement pairs
# selected once and joined over one parent array indexed by member it peaks
# at 22.4-23.4 MB on 3.10, 26.3-26.6 MB on 3.11 and 24.8 MB on 3.12 (either
# format), and at 27.0-27.5 MB on 3.11 once the quasi-cyclic check reads a
# 1.7 MB rotation table.  It went from 23.4 to 20.2-20.7 MB on 3.10, 26.7-26.8 to
# 23.8-24.0 MB on 3.11, 25.1 to 22.5 MB on 3.12 and 25.2 to 22.3 MB on 3.13
# once the complement index covers one dimension at a time, orbit_of holds
# 16-bit ids, closable's images go before the member arrays are built, and
# the pairing goes before the rotation tables.  With the closure tests read
# lazily per component, no per-prime images are made at all, and it peaks
# at 23.9-24.0 MB on 3.11 (--format json, 3 runs; 23.8-24.1 MB before).
# The bound is at least 1.5 MB above each of these, so it fails on a return
# to holding those together, not on run-to-run noise.
SELFDUAL_N8_PEAK_MB = 26

# runs the CLI, then reports its own peak from /proc/self/status on stderr;
# ru_maxrss would not do, as a child's starts at its parent's high-water mark
PEAK_CHILD = """\
import os, sys
from orbitcodes.cli import main
code = main(sys.argv[1:])
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        sys.stderr.writelines(line for line in fh if line.startswith("VmHWM:"))
sys.exit(code)
"""


def run_child_with_peak(*argv):
    """(exit code, stdout, peak RSS in MB or None) of the CLI in a child process."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", PEAK_CHILD, *argv], env=env,
                           capture_output=True, text=True)
    peaks = [int(line.split()[1]) / 1024 for line in child.stderr.splitlines()
             if line.startswith("VmHWM:")]
    return child.returncode, child.stdout, peaks[0] if peaks else None


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n", ["4", "6", pytest.param("8", marks=pytest.mark.extended)])
def test_selfdual_stdout_is_pinned(capsys, n, fmt):
    argv = ("selfdual", "--n", n, "--format", fmt)
    if n == "8":         # in a child of its own, whose peak is then measured
        code, out, peak_mb = run_child_with_peak(*argv)
    else:
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFDUAL_STDOUT_SHA256[n, fmt]
    if n != "8":
        return
    if peak_mb is None:
        pytest.skip("no /proc/self/status: the child's peak RSS is not measured")
    assert peak_mb < SELFDUAL_N8_PEAK_MB


@pytest.mark.extended
@pytest.mark.parametrize("q,n,poly", [(2, 8, None), (3, 6, "2,0,0,0,0,1,1")],
                         ids=["P2(8)", "P3(6)"])
def test_selfdual_estimate_covers_the_peak(q, n, poly):
    """The memory estimate is at least the child's peak, and within twice it."""
    from orbitcodes import make_field
    from orbitcodes.construct import _space_needed
    argv = ["selfdual", "--q", str(q), "--n", str(n)] + (["--poly", poly] if poly else [])
    code, _, peak_mb = run_child_with_peak(*argv)
    assert code == 0
    if peak_mb is None:
        pytest.skip("no /proc/self/status: the child's peak RSS is not measured")
    _, need = _space_needed(make_field(q, n, poly))
    assert peak_mb * 2 ** 20 <= need < 2 * peak_mb * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["--n", "9"],
    ["--q", "3", "--n", "7", "--poly", "1,0,0,0,0,2,0,1"],     # x^7 + 2x^5 + 1
], ids=["P2(9)", "P3(7)"])
def test_selfdual_refuses_a_space_over_the_memory_estimate(capsys, argv):
    """The estimate is checked before any work, so the refusal is instant."""
    result = run(capsys, "selfdual", *argv)
    assert_one_line_error(result, 4)
    assert "estimated" in result[2]


def test_graph_refuses_a_db_with_forged_distances(tmp_path, capsys):
    """A stored min_dist is checked, not trusted: 2 -> 6 no longer passes."""
    db = tmp_path / "orbits.jsonl"
    assert run(capsys, "classify", "--n", "6", "--k", "3", "--db", str(db))[0] == 0
    records = [json.loads(line) for line in db.read_text().splitlines()]
    assert any(r["min_dist"] == 2 for r in records)
    for r in records:
        if r["min_dist"] == 2:
            r["min_dist"] = 6
    db.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert_one_line_error(run(capsys, "graph", "--db", str(db), "--d", "6"), 2)


def test_clique_budget_sec_is_wall_clock(tmp_path, capsys):
    import random
    import time
    rng = random.Random(11)
    n = 120
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.9]
    g = tmp_path / "dense.dimacs"
    g.write_text(f"p edge {n} {len(edges)}\n"
                 + "".join(f"e {i} {j}\n" for i, j in edges))
    t0 = time.monotonic()
    code, out, _ = run(capsys, "clique", "--graph", str(g), "--budget-sec", "0.3",
                       "--format", "json")
    assert code == 0 and time.monotonic() - t0 < 10
    doc = json.loads(out)
    assert not doc["certified"] and doc["size"] >= 2


def test_zero_budget_sec_stops_a_census(capsys):
    """--budget-sec 0 is zero seconds: a census reads the clock at its first
    candidate and stops (exit 4), the n = 6, k = 3 one of 155 candidates
    as well as the n = 9, k = 4 one."""
    for command in ("classify", "conjecture-check"):
        for n, k in (("6", "3"), ("9", "4")):
            result = run(capsys, command, "--n", n, "--k", k, "--budget-sec", "0")
            assert_one_line_error(result, 4)
            assert "time budget 0.0s exceeded" in result[2]


def test_zero_budget_sec_leaves_the_clique_uncertified(tmp_path, capsys):
    """The n = 8, k = 3, d = 4 exact search reads the clock at its first
    node, so a zero budget stops it there, uncertified."""
    db = str(tmp_path / "orbits.jsonl")
    assert run(capsys, "classify", "--n", "8", "--k", "3", "--db", db)[0] == 0
    code, out, _ = run(capsys, "clique", "--db", db, "--budget-sec", "0", "--format", "json")
    assert code == 0 and not json.loads(out)["certified"]


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("argv", [
    ["classify", "--n", "9", "--k", "4"],
    ["conjecture-check", "--n", "9", "--k", "4"],
    ["clique", "--graph", "graph.dimacs"],
], ids=lambda argv: argv[0])
def test_budget_sec_not_a_number_of_seconds_is_a_parse_error(capsys, argv, value):
    result = run(capsys, *argv, "--budget-sec", value)
    assert_one_line_error(result, 2)
    assert f"--budget-sec {float(value)} is not a number of seconds >= 0" in result[2]


def _db(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    assert run(capsys, "classify", "--n", "6", *argv, "--db", str(path))[0] == 0
    return path.read_text()


def test_graph_of_orbits_under_two_moduli_is_a_domain_error(tmp_path, capsys):
    db = tmp_path / "mixed.jsonl"
    db.write_text(_db(tmp_path, capsys, "m1.jsonl", "--k", "3")
                  + _db(tmp_path, capsys, "m3.jsonl", "--k", "3", "--m", "3"))
    result = run(capsys, "graph", "--db", str(db), "--d", "4")
    assert_one_line_error(result, 3)
    assert "orbits must share a field and modulus" in result[2]


def test_graph_of_a_repeated_orbit_is_a_domain_error(tmp_path, capsys):
    db = tmp_path / "twice.jsonl"
    db.write_text(2 * _db(tmp_path, capsys, "once.jsonl", "--k", "3"))
    result = run(capsys, "graph", "--db", str(db), "--d", "4")
    assert_one_line_error(result, 3)
    assert "orbits are identical" in result[2]


def test_graph_of_a_mixed_dimension_db_matches_the_pairwise_oracle(tmp_path, capsys):
    from orbitcodes.construct import write_dimacs
    from orbitcodes.orbits import read_orbit_db
    from tests.orbit_oracle import pairwise_graph
    db = tmp_path / "k2k3.jsonl"
    db.write_text(_db(tmp_path, capsys, "k2.jsonl", "--k", "2")
                  + _db(tmp_path, capsys, "k3.jsonl", "--k", "3"))
    g, expected = tmp_path / "g.dimacs", tmp_path / "oracle.dimacs"
    assert run(capsys, "graph", "--db", str(db), "--d", "4", "-o", str(g))[0] == 0
    oracle = pairwise_graph(read_orbit_db(str(db)), 4)
    assert {o.k for o in oracle.orbits} == {2, 3}
    write_dimacs(oracle, str(expected))
    assert g.read_text() == expected.read_text()


@pytest.mark.usefixtures("fresh_census_cache")
@pytest.mark.parametrize("name, code, argv", [
    ("ParseError", 2, ["--budget-sec", "-1"]),
    ("OrbitCodesError", 3, ["--m", "4"]),
    ("ResourceLimit", 4, ["--budget-sec", "0"]),
    ("VerificationFailed", 5, []),
])
def test_each_error_class_carries_the_exit_code_main_returns(capsys, monkeypatch, name, code,
                                                             argv):
    """Each class's exit_code is the one the errors module documents, and a
    classify run that raises that class, and no other, exits with it."""
    from orbitcodes import cli, errors, orbits
    documented = dict(re.findall(r"- (\w+) \(exit (\d)\)", errors.__doc__))
    assert len(documented) == 4 and documented[name] == str(code)
    cls = getattr(errors, name)
    assert cls.exit_code == code
    if name == "VerificationFailed":        # a closed form the census cannot meet
        monkeypatch.setattr(orbits, "stabilizer_counts", lambda q, n, k: {})
    raised = []
    summary, add_args, func = cli.COMMANDS["classify"]

    def spy(args):
        try:
            return func(args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setitem(cli.COMMANDS, "classify", (summary, add_args, spy))
    result = run(capsys, "classify", "--n", "6", "--k", "3", *argv)
    assert raised == [cls]
    assert_one_line_error(result, code)
