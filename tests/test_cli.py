"""Command-line surface: subcommands, formats, exit codes, round trips."""

import json
import os

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


def test_classify_extended_gate(capsys, monkeypatch):
    """The gate counts candidates x q^k, the vectors the walk spans: every
    n <= 9 runs, n = 10 only at k <= 3 and k >= 8, and n = 16 at k = 15
    (32,767 candidates of 32,768 vectors each) needs --extended."""
    from orbitcodes import cli

    class Ran(Exception):
        pass

    def census(*args, **kwargs):
        raise Ran

    monkeypatch.setattr(cli, "classify", census)
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


def test_dualize_round_trip(tmp_path, capsys):
    d1 = str(tmp_path / "dual.json")
    d2 = str(tmp_path / "dual2.json")
    code, _, _ = run(capsys, "dualize", data_path("cyclic_n5k2.json"), "-o", d1)
    assert code == 0
    code, _, _ = run(capsys, "dualize", d1, "-o", d2)
    assert code == 0
    orig = json.load(open(data_path("cyclic_n5k2.json")))
    back = json.load(open(d2))
    from orbitcodes import from_exponents, make_field
    from orbitcodes.codes import code_from_generators
    f = make_field(2, 5)
    orig_code = code_from_generators(
        f, orig["m"], [from_exponents(f, g) for g in orig["generators"]])
    back_words = {tuple(sorted(g)) for g in back["generators"]}
    assert back_words == {w.exponents for w in orig_code.words}


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


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_for_another_poly_is_refused(tmp_path, capsys):
    from orbitcodes import make_field
    from orbitcodes.orbits import Checkpoint, cyclic_orbit_data
    ck = str(tmp_path / "ck.jsonl")
    cyclic_orbit_data(make_field(2, 6), 3, checkpoint=Checkpoint(ck))
    before = open(ck).read()
    assert_one_line_error(run(capsys, "classify", "--n", "6", "--k", "3",
                              "--checkpoint", ck, "--poly", "x^6+x+1"), 3)
    assert open(ck).read() == before


def _checkpoint_lines(path):
    from orbitcodes import make_field
    from orbitcodes.orbits import Checkpoint, cyclic_orbit_data
    cyclic_orbit_data(make_field(2, 6), 3, checkpoint=Checkpoint(str(path)))
    return path.read_text().splitlines()


def _assert_older_format_is_refused(tmp_path, capsys, fmt):
    ck = tmp_path / "ck.jsonl"
    header, *records = _checkpoint_lines(ck)
    assert json.loads(header)["checkpoint"] == 3
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
    ck = str(tmp_path / "ck.jsonl")
    argv = ("classify", "--n", "6", "--k", str(k), "--checkpoint", ck)
    first = run(capsys, *argv)
    assert first[0] == 0 and "mass 1 = " in first[1]
    lines = open(ck).read().splitlines()
    assert len(lines) == 2 and json.loads(lines[1])["cand"] == 0
    assert run(capsys, *argv) == first
    assert open(ck).read().splitlines() == lines


@pytest.mark.usefixtures("fresh_census_cache")
def test_checkpoint_rep_that_is_not_the_smallest_member_is_refused(tmp_path, capsys):
    from orbitcodes.subspace import rotate_bits
    ck = tmp_path / "ck.jsonl"
    header, first, *records = _checkpoint_lines(ck)
    rec = json.loads(first)
    # another member of the same orbit, so its size, t and D still fit
    rec["rep_bits"] = format(rotate_bits(int(rec["rep_bits"], 16), 1, 63), "x")
    ck.write_text("\n".join([header, json.dumps(rec), *records]) + "\n")
    result = run(capsys, "classify", "--n", "6", "--k", "3", "--checkpoint", str(ck))
    assert_one_line_error(result, 2)
    assert "line 2" in result[2]


def test_selfdual_other_minimal_is_every_non_primary_hit(capsys, monkeypatch):
    """F_3^6 under x^6+x^5+2 has 28,315 hits; listing them takes linear time."""
    import time
    from orbitcodes import cli
    hits = []
    search = cli.self_dual_search

    def recording_search(field):
        hits.extend(search(field))
        return hits

    monkeypatch.setattr(cli, "self_dual_search", recording_search)
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
