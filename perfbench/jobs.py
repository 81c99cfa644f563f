"""Workload job lists, seeded field polynomials and the check on each job's output.

A job is one orbitcodes CLI call.  It is kept as a dict so that the traced
run can replay the same library calls in-process (see traced_job.py); argv()
turns it into the command line.  Every check is written against the paper's
published numbers and the shipped data files, not against the library's own
helpers, so a later change to the library cannot move the goalposts.
"""

from __future__ import annotations

import json
import os
import random
import re

DATA = os.path.join("src", "orbitcodes", "data")
WORK = ".perfbench_work"

WORKLOADS = ("census", "construct", "selfdual")
SEEDED_DEGREES = (8, 9, 10)
QUASI_MODULI = (3, 5, 15, 17, 51, 85)
CODE_FILES = ("example1_n10k5", "example2_n10k3", "example3_n8k4",
              "quasi3_n8k4", "cyclic_n5k2", "spread_n6k3")
DUALIZED = ("example3_n8k4", "quasi3_n8k4")

# Every cell where an n = 8, k = 4 quasi-cyclic census deviates from the
# published tables, as (table, d, length, reference, computed).  The mass
# invariant certifies the computed side; cyclic censuses have no deviations.
GOLDEN_DIFFS = {
    (8, 4, 3): [("full", 4, 85, 2262, 2266),
                ("degenerate:17", 8, 17, 0, 1),
                ("degenerate-total", None, None, 0, 1)],
    (8, 4, 5): [("orbits", 8, None, 0, 1),
                ("degenerate:17", 8, 17, 0, 1)],
    (8, 4, 15): [("full", 4, 17, 6000, 6020),
                 ("full", 8, 17, 0, 1)],
    (8, 4, 51): [("full", 8, 5, 1836, 1904),
                 ("degenerate:1", 0, 1, 0, 17),
                 ("degenerate-total", None, None, 0, 17)],
    (8, 4, 85): [("orbits", 0, None, 340, 357),
                 ("degenerate:1", 0, 1, 340, 357)],
}

# verify: (exit code, size, dims, min_dist, duplicate generators)
GOLDEN_VERIFY = {
    "example1_n10k5": (0, 33, [5], 10, []),
    "example2_n10k3": (0, 21483, [3], 4, []),
    "example3_n8k4": (5, 4505, [4], None, [18]),
    "quasi3_n8k4": (0, 2992, [4], 4, []),
    "cyclic_n5k2": (0, None, None, None, []),
    "spread_n6k3": (0, None, None, None, []),
}

# selfdual: the one constant-dimension single-generator hit per n
GOLDEN_SELFDUAL = {
    4: (5, [4, 2, 2, 4], "selfdual_p2_4_m5.json"),
    6: (21, [6, 3, 3, 2], "selfdual_p2_6_m21.json"),
    8: (85, [8, 4, 2, 4], "selfdual_p2_8_m85.json"),
}

CLIQUE_SIZE, CLIQUE_DIST = 5, 4


# -- primitive polynomials over GF(2) ------------------------------------------


def _mulmod(a: int, b: int, p: int, n: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= p
    return r


def _x_pow(e: int, p: int, n: int) -> int:
    result, base = 1, 2
    while e:
        if e & 1:
            result = _mulmod(result, base, p, n)
        base = _mulmod(base, base, p, n)
        e >>= 1
    return result


def _prime_factors(N: int) -> list:
    out, d = [], 2
    while d * d <= N:
        if N % d == 0:
            out.append(d)
            while N % d == 0:
                N //= d
        d += 1
    if N > 1:
        out.append(N)
    return out


def primitive_polys(n: int) -> list:
    """Every primitive degree-n polynomial over GF(2), coefficients constant first.

    p is primitive exactly when x has order 2^n - 1 modulo p.
    """
    N = (1 << n) - 1
    factors = _prime_factors(N)
    out = []
    for p in range((1 << n) | 1, 1 << (n + 1), 2):
        if _x_pow(N, p, n) == 1 and all(_x_pow(N // r, p, n) != 1 for r in factors):
            out.append(tuple((p >> i) & 1 for i in range(n + 1)))
    return out


def seeded_polys(seed: int) -> dict:
    """The seed's primitive polynomial for each field degree the workloads vary."""
    rng = random.Random(seed)
    return {n: rng.choice(primitive_polys(n)) for n in SEEDED_DEGREES}


def poly_arg(poly) -> str | None:
    return None if poly is None else ",".join(map(str, poly))


# -- job lists ------------------------------------------------------------------


def _classify(n, k, m, polys, db=None):
    return {"id": f"classify-n{n}k{k}m{m}" + ("-db" if db else ""),
            "cmd": "classify", "n": n, "k": k, "m": m,
            "poly": poly_arg(polys[n]), "db": db}


def setup_job(polys) -> dict:
    """A call that does only set-up: start, import, parse, build one field."""
    return _classify(10, 1, 1, polys)


def workload_jobs(workload: str, polys: dict) -> list:
    if workload == "census":
        jobs = [_classify(9, k, 1, polys) for k in (1, 2, 3, 4)]
        jobs.append(_classify(10, 3, 1, polys))
        jobs += [_classify(8, 4, m, polys) for m in QUASI_MODULI]
        return jobs
    if workload == "construct":
        db = os.path.join(WORK, "orbits_n8k3.jsonl")
        jobs = [_classify(8, 3, 1, polys, db=db),
                {"id": "clique-n8k3d4", "cmd": "clique", "db": db, "d": 4}]
        jobs += [{"id": f"verify-{name}", "cmd": "verify", "name": name,
                  "file": os.path.join(DATA, name + ".json")} for name in CODE_FILES]
        jobs += [{"id": f"dualize-{name}", "cmd": "dualize", "name": name,
                  "file": os.path.join(DATA, name + ".json"),
                  "out": os.path.join(WORK, name + ".dual.json")} for name in DUALIZED]
        return jobs
    if workload == "selfdual":
        # the published hits are stated in the default polynomial basis
        return [{"id": f"selfdual-n{n}", "cmd": "selfdual", "n": n} for n in (4, 6, 8)]
    raise ValueError(f"unknown workload {workload!r}")


def argv(job: dict) -> list:
    """The orbitcodes command line for a job."""
    cmd = job["cmd"]
    if cmd == "classify":
        out = ["classify", "--n", str(job["n"]), "--k", str(job["k"]),
               "--m", str(job["m"]), "--format", "json"]
        if job["poly"]:
            out += ["--poly", job["poly"]]
        if job["db"]:
            out += ["--db", job["db"]]
        return out
    if cmd == "clique":
        return ["clique", "--db", job["db"], "--d", str(job["d"]),
                "--mode", "exact", "--format", "json"]
    if cmd == "verify":
        return ["verify", job["file"], "--format", "json"]
    if cmd == "dualize":
        return ["dualize", job["file"], "-o", job["out"]]
    if cmd == "selfdual":
        return ["selfdual", "--n", str(job["n"]), "--format", "json"]
    raise ValueError(f"unknown command {cmd!r}")


def candidates(job: dict) -> int:
    """Candidate subspaces a classify job enumerates: [n-1, k-1]_2."""
    return gaussian(job["n"] - 1, job["k"] - 1)


def gaussian(n: int, k: int, q: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- output checks ----------------------------------------------------------------


def parse_cli_output(job: dict, stdout: str) -> dict:
    """The CLI's stdout in the shape check() reads."""
    if job["cmd"] != "dualize":
        return json.loads(stdout)
    match = re.search(r"dual code: size (\d+), dims \[([\d, ]*)\]", stdout)
    if not match:
        raise ValueError("no 'dual code' line")
    return {"size": int(match.group(1)),
            "dims": [int(d) for d in match.group(2).split(",") if d.strip()]}


def check(job: dict, exit_code: int, result: dict | None) -> list:
    """Problems with one job's outcome; an empty list means the job passed."""
    cmd = job["cmd"]
    want_exit = GOLDEN_VERIFY[job["name"]][0] if cmd == "verify" else 0
    if exit_code != want_exit:
        return [f"exit code {exit_code}, expected {want_exit}"]
    if result is None:
        return ["no output"]
    checker = {"classify": _check_classify, "clique": _check_clique,
               "verify": _check_verify, "dualize": _check_dualize,
               "selfdual": _check_selfdual}[cmd]
    try:
        return checker(job, result)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"output not in the expected shape: {exc!r}"]


def _check_classify(job, r):
    problems = []
    if [r.get(key) for key in ("q", "n", "k", "m")] != [2, job["n"], job["k"], job["m"]]:
        problems.append("census header does not echo the job")
    if r.get("mass_ok") is not True:
        problems.append("mass check failed")
    got = [(d["table"], d["d"], d["length"], d["reference"], d["computed"])
           for d in r.get("diffs", [])]
    want = GOLDEN_DIFFS.get((job["n"], job["k"], job["m"]), [])
    if got != want:
        problems.append(f"published-table diffs {got} != golden {want}")
    return problems


def _check_clique(job, r):
    problems = []
    if r.get("size") != CLIQUE_SIZE or r.get("certified") is not True:
        problems.append(f"clique size {r.get('size')} certified={r.get('certified')}, "
                        f"expected a certified clique of size {CLIQUE_SIZE}")
    params = r.get("params") or []
    if len(params) != 4 or params[0] != 8 or params[1] != 3 or params[3] != CLIQUE_DIST:
        problems.append(f"assembled code params {params}, expected [8, 3, *, {CLIQUE_DIST}]")
    return problems


def _check_verify(job, r):
    _, size, dims, dist, dups = GOLDEN_VERIFY[job["name"]]
    problems = []
    if r.get("duplicate_generators") != dups:
        problems.append(f"duplicate generators {r.get('duplicate_generators')} != {dups}")
    for key, want in (("size", size), ("dims", dims), ("min_dist", dist)):
        if want is not None and r.get(key) != want:
            problems.append(f"{key} {r.get(key)} != {want}")
    if r.get("matches_claim") is not (not dups):
        problems.append(f"matches_claim is {r.get('matches_claim')}")
    return problems


def _check_dualize(job, r):
    size = GOLDEN_VERIFY[job["name"]][1]
    problems = []
    if r.get("size") != size or r.get("dims") != [4]:
        problems.append(f"dual size {r.get('size')} dims {r.get('dims')}, "
                        f"expected {size} and [4]")
    try:
        with open(job["out"]) as fh:
            written = json.load(fh)["generators"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"dual file unreadable: {exc}"]
    # a 4-dim subspace of F_2^8 has 15 nonzero elements
    if len(written) != size or any(len(set(w)) != 15 for w in written):
        problems.append("dual file does not hold one 4-dim word per dual codeword")
    return problems


def selfdual_words(n: int) -> set:
    """Word set of the shipped self-dual code for n, expanded independently."""
    _, _, fname = GOLDEN_SELFDUAL[n]
    with open(os.path.join(DATA, fname)) as fh:
        doc = json.load(fh)
    N, m = (1 << n) - 1, doc["m"]
    return {tuple(sorted((e + j * m) % N for e in gen))
            for gen in doc["generators"] for j in range(N // m)}


def _check_selfdual(job, r):
    m, params, _ = GOLDEN_SELFDUAL[job["n"]]
    primary = r.get("constant_dimension_single_generator", [])
    if len(primary) != 1:
        return [f"{len(primary)} primary hits, expected 1"]
    hit = primary[0]
    problems = []
    if hit.get("m") != m or hit.get("params") != params:
        problems.append(f"primary hit m={hit.get('m')} params={hit.get('params')}, "
                        f"expected m={m} params={params}")
    words = [tuple(w) for w in hit.get("words", [])]
    if len(words) != len(set(words)) or set(words) != selfdual_words(job["n"]):
        problems.append("primary hit words differ from the shipped code")
    return problems
