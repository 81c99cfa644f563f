"""Hypothesis fuzzing of every file loader, of main() on the files they read,
and of main() on the numbers and polynomials given on its command line.

Random bytes, random JSON, and valid documents with one value replaced by
random JSON (or removed) go to read_orbit_db, read_dimacs, load_code_file
and Checkpoint.load: only OrbitCodesError subclasses may escape.  main() on
the same kinds of file must return an exit code in {0, 2, 3, 4, 5}, print
a one-line error whenever it is not 0, and never raise.  bound on random
integers and classify --poly on random term strings must also return 0, 2
or 3, within the Hypothesis deadline.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import make_field
from orbitcodes.cli import main
from orbitcodes.codes import load_code_file
from orbitcodes.construct import read_dimacs
from orbitcodes.errors import OrbitCodesError, ParseError
from orbitcodes.orbits import Checkpoint, read_orbit_db

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

# one valid document of each kind, for F_2^4 (F_2^5 for the code file)
DB_RECORD = {"q": 2, "n": 4, "poly": [1, 1, 0, 0, 1], "m": 1, "k": 2, "length": 15,
             "min_dist": 2, "stab_degree": 1, "rep": [0, 1, 4]}
CODE_DOC = {"field": {"q": 2, "n": 5, "poly": [1, 0, 1, 0, 0, 1]}, "m": 1,
            "generators": [[0, 13, 14]],
            "claimed": {"n": 5, "k": 2, "size": 31, "d": 2}}
CK_HEADER = {"checkpoint": 4, "q": 2, "n": 4, "poly": [1, 1, 0, 0, 1], "k": 2}
CK_RECORD = {"cand": 0, "rep_bits": "13"}


def mutated(doc):
    """doc with one key set to random JSON or removed."""
    keys = st.sampled_from(sorted(doc))
    return (st.builds(lambda key, value: {**doc, key: value}, keys, json_values)
            | st.builds(lambda key: {k: v for k, v in doc.items() if k != key}, keys))


def jsonl(lines):
    return st.lists(lines, max_size=4).map(
        lambda docs: "".join(json.dumps(d) + "\n" for d in docs).encode())


db_files = (st.binary(max_size=200)
            | jsonl(json_values | mutated(DB_RECORD) | st.just(DB_RECORD)))
code_files = (st.binary(max_size=200)
              | json_values.map(lambda d: json.dumps(d).encode())
              | mutated(CODE_DOC).map(lambda d: json.dumps(d).encode())
              | mutated(CODE_DOC["field"]).map(
                  lambda f: json.dumps({**CODE_DOC, "field": f}).encode()))
checkpoint_files = (st.binary(max_size=200)
                    | jsonl(json_values | mutated(CK_RECORD)).map(
                        lambda body: (json.dumps(CK_HEADER) + "\n").encode() + body))


def dimacs_files(vertices):
    line = st.one_of(
        st.text(alphabet="pe dgx0123456789-\n", max_size=20),
        st.builds("p edge {} {}".format, vertices, st.integers(-1, 60)),
        st.builds("e {} {}".format, st.integers(-1, 12), st.integers(-1, 12)))
    return (st.binary(max_size=200)
            | st.lists(line, max_size=8).map(lambda ls: "\n".join(ls).encode()))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_refuses(load, path, data):
    path.write_bytes(data)
    try:
        load(str(path))
    except OrbitCodesError:
        pass


FUZZ = settings(max_examples=80, deadline=None)


@FUZZ
@given(db_files)
def test_read_orbit_db_fuzz(workdir, data):
    loads_or_refuses(read_orbit_db, workdir / "orbits.jsonl", data)


@FUZZ
@given(dimacs_files(st.integers()))
def test_read_dimacs_fuzz(workdir, data):
    loads_or_refuses(read_dimacs, workdir / "graph.dimacs", data)


@FUZZ
@given(code_files)
def test_load_code_file_fuzz(workdir, data):
    loads_or_refuses(load_code_file, workdir / "code.json", data)


def as_booleans(value):
    """value with each 0 and 1 in it, lists included, made JSON false and true."""
    if isinstance(value, list):
        return list(map(as_booleans, value))
    return bool(value) if value in (0, 1) else value


@pytest.mark.parametrize("key", ["m", "stab_degree", "poly", "rep"])
def test_read_orbit_db_refuses_booleans_for_integers(workdir, key):
    """A record that is valid with 0 and 1 is refused with false and true in their place."""
    path = workdir / "orbits.jsonl"
    path.write_text(json.dumps(DB_RECORD) + "\n")
    assert len(read_orbit_db(str(path))) == 1
    path.write_text(json.dumps({**DB_RECORD, key: as_booleans(DB_RECORD[key])}) + "\n")
    with pytest.raises(ParseError, match="must be an integer"):
        read_orbit_db(str(path))


@pytest.mark.parametrize("key", ["m", "poly", "generators"])
def test_load_code_file_refuses_booleans_for_integers(workdir, key):
    """A code file that is valid with 0 and 1 is refused with false and true in their place."""
    doc = {**CODE_DOC, "field": dict(CODE_DOC["field"])}
    part = doc["field"] if key == "poly" else doc
    path = workdir / "code.json"
    path.write_text(json.dumps(doc))
    assert load_code_file(str(path)).m == 1
    part[key] = as_booleans(part[key])
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="must be integers"):
        load_code_file(str(path))
    assert run_main("verify", str(path)) == 2


@pytest.mark.parametrize("claim", [{"n": True, "size": True}, {"k": "x"}, {"k": None},
                                   {"size": [31]}, {"d": False}, {"d": 2.0}, {"sise": 31}],
                         ids=["bools", "string", "null-k", "list", "bool-d", "float-d",
                              "misspelt-key"])
def test_load_code_file_refuses_claims_that_are_not_integers(workdir, claim):
    """n, k and size are claimed as integers and d as an integer or null, and
    nothing else is claimed: a misspelt key would otherwise check nothing."""
    path = workdir / "code.json"
    path.write_text(json.dumps({**CODE_DOC, "claimed": claim}))
    with pytest.raises(ParseError, match="claimed an object of only n, k and size"):
        load_code_file(str(path))
    assert run_main("verify", str(path)) == 2


def test_a_spread_file_with_a_null_claimed_distance_verifies(workdir):
    """spread writes "d": null for its one-word code over F_2^4 at t = 4."""
    path = workdir / "spread.json"
    assert run_main("spread", "--n", "4", "--t", "4", "--out", str(path)) == 0
    assert load_code_file(str(path)).claimed["d"] is None
    assert run_main("verify", str(path)) == 0


@pytest.mark.parametrize("field", [{"q": 2, "n": 4}, {"q": 2, "n": 4, "poly": None}],
                         ids=["missing", "null"])
def test_a_code_file_without_poly_takes_the_default_polynomial(workdir, field):
    """field.poly is optional: missing or null, it is the built-in polynomial."""
    path = workdir / "code.json"
    path.write_text(json.dumps({"field": field, "generators": [[0]]}))
    assert load_code_file(str(path)).field == make_field(2, 4)
    assert run_main("verify", str(path)) == 0


@FUZZ
@given(checkpoint_files)
def test_checkpoint_load_fuzz(workdir, data):
    field = make_field(2, 4)
    loads_or_refuses(lambda path: Checkpoint(path).load(field, 2),
                     workdir / "ckpt.jsonl", data)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3, 4, 5)
    if code:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1
    return code


MAIN_FUZZ = settings(max_examples=40, deadline=None)


@MAIN_FUZZ
@given(db_files)
def test_graph_command_fuzz(workdir, data):
    (workdir / "db.jsonl").write_bytes(data)
    run_main("graph", "--db", str(workdir / "db.jsonl"), "--d", "2",
             "-o", str(workdir / "db.dimacs"))


# the exact search's cost grows with the vertex count by design, so main()
# gets small graphs; read_dimacs alone is fuzzed with any count above
@MAIN_FUZZ
@given(dimacs_files(st.integers(-1, 40)))
def test_clique_command_fuzz(workdir, data):
    (workdir / "in.dimacs").write_bytes(data)
    run_main("clique", "--graph", str(workdir / "in.dimacs"))


@MAIN_FUZZ
@given(code_files)
def test_verify_and_dualize_commands_fuzz(workdir, data):
    (workdir / "in.json").write_bytes(data)
    run_main("verify", str(workdir / "in.json"))
    run_main("dualize", str(workdir / "in.json"), "-o", str(workdir / "dual.json"))


@MAIN_FUZZ
@given(checkpoint_files)
def test_classify_checkpoint_fuzz(workdir, data):
    (workdir / "ck.jsonl").write_bytes(data)
    run_main("classify", "--n", "4", "--k", "2", "--checkpoint", str(workdir / "ck.jsonl"))


# -- command-line inputs, each answered or refused within the deadline -----------


@st.composite
def bound_args(draw):
    """(n, k, d, q): any integers, or n >= 1, 0 <= k <= n and an even d >= 2."""
    big = st.integers(-2, 10 ** 6)
    if draw(st.booleans()):
        return draw(big), draw(big), draw(big), draw(big)
    n = draw(st.integers(1, 10 ** 6))
    return (n, draw(st.integers(0, n)), 2 * draw(st.integers(1, 5 * 10 ** 5)),
            draw(st.integers(2, 10 ** 6)))


@given(bound_args())
def test_bound_command_fuzz(args):
    n, k, d, q = map(str, args)
    assert run_main("bound", "--n", n, "--k", k, "--d", d, "--q", q) in (0, 3)


# terms c*x^e joined by signs, or any text of their characters
poly_texts = (st.lists(st.tuples(st.sampled_from(["+", "-", " - ", ""]), st.integers(0, 12),
                                 st.sampled_from(["", "x", "*x"]), st.integers(0, 6)),
                       min_size=1, max_size=6).map(
                  lambda terms: "".join(f"{sign}{c}{x}^{e}" if x else f"{sign}{c}"
                                        for sign, c, x, e in terms))
              | st.text(alphabet="x^+-*0123456789 ,", max_size=24))


@given(q=st.sampled_from([2, 3]), poly=poly_texts)
def test_classify_poly_fuzz(q, poly):
    code = run_main("classify", "--q", str(q), "--n", "4", "--k", "2", f"--poly={poly}")
    assert code in (0, 2, 3)
