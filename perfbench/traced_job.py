"""Replay one benchmark job in-process, with a span around each library call.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/traced_job.py '<job JSON from jobs.py>' <run id>

Each job runs in its own process, as its CLI call does, so no job reuses
another job's in-process caches.  The calls mirror the orbitcodes CLI command
the job names, through public functions only, each under a span; the calls
those functions make into other layers are traced at their module bindings
(NESTED), so a layer's self time leaves out the layers below it.  Work the
CLI does not do, such as counting cyclic orbits, runs after the job, untraced.
Prints one JSON object: spans, self time per span name, counts, the result in
the shape jobs.check reads, the exit code the CLI would return, and the time
the process spent inside and after the job.
"""

from __future__ import annotations

import json
import sys
import time

from orbitcodes import (
    assemble_code,
    build_graph,
    classify,
    code_from_generators,
    dualize,
    dump_code_file,
    enumerate_orbits,
    find_cliques,
    is_cyclic,
    load_code_file,
    make_field,
    parse_poly,
    read_orbit_db,
    self_dual_search,
    verify_code_file,
    write_orbit_db,
)

from jobs import candidates, gaussian
from spans import Tracer, span_cost

# Calls the library makes across layers, wrapped where the caller looks them
# up: a module-level import binds the name in the calling module, an import
# inside a function reads it from the defining module.  Cheap primitives such
# as rotate_bits and from_bits are left out, since a traced call costs about
# as much as they do; their time, and that of private helpers, stays in the
# calling layer's self time.
NESTED = (
    # module binding, attribute, span name          # caller
    ("orbitcodes.codes", "make_field", "gfext.make_field"),            # load_code_file
    ("orbitcodes.orbits", "make_field", "gfext.make_field"),           # read_orbit_db
    ("orbitcodes.reference_tables", "compare_census",
     "reference_tables.compare_census"),                               # classify
    ("orbitcodes.codes", "orthogonal_complement",
     "subspace.orthogonal_complement"),                                # dualize
    ("orbitcodes.subspace", "complement_bits", "subspace.complement_bits"),  # is_self_dual
    ("orbitcodes.codes", "is_quasi_cyclic", "codes.is_quasi_cyclic"),  # self_dual_search
    ("orbitcodes.construct", "inter_orbit_distance",
     "construct.inter_orbit_distance"),                                # build_graph
    ("orbitcodes.construct", "code_from_generators",
     "codes.code_from_generators"),                                    # assemble_code
    ("orbitcodes.construct", "min_distance", "codes.min_distance"),    # assemble_code
    ("orbitcodes.construct", "is_self_dual", "codes.is_self_dual"),    # self_dual_search
    ("orbitcodes.construct", "cyclic_orbit_data",
     "orbits.cyclic_orbit_data"),                                      # self_dual_search
    ("orbitcodes.construct", "complement_bits",
     "subspace.complement_bits"),                                      # self_dual_search
)


def _field(job, tr):
    with tr.span("gfext.make_field"):
        poly = parse_poly(job["poly"], 2) if job.get("poly") else None
        return make_field(2, job["n"], poly)


def run_classify(job, tr):
    field = _field(job, tr)
    with tr.span("orbits.classify"):
        table = classify(field, job["k"], job["m"])
    if job["db"]:
        with tr.span("orbits.enumerate_orbits"):
            orbits = list(enumerate_orbits(field, job["k"], job["m"]))
        with tr.span("orbits.write_orbit_db"):
            write_orbit_db(orbits, job["db"])
    result = {"q": table.q, "n": table.n, "k": table.k, "m": table.m,
              "mass_ok": table.mass == table.expected_mass, "diffs": table.diffs}
    counts = {"orbits.candidates": candidates(job),
              "reference_tables.diffs": len(table.diffs)}

    def probe():
        # the cyclic census of the same field is cached in-process, so this
        # only counts the cyclic orbits the job walked
        cyclic = table if job["m"] == 1 else classify(field, job["k"], 1)
        counts["orbits.cyclic_orbits"] = cyclic.total_orbits()
    return 0, result, counts, probe


def run_clique(job, tr):
    with tr.span("orbits.read_orbit_db"):
        orbits = read_orbit_db(job["db"])
    with tr.span("construct.build_graph"):
        G = build_graph(orbits, job["d"])
    with tr.span("construct.find_cliques"):
        best = find_cliques(G, budget=None, mode="exact", seed=0)[0]
    with tr.span("construct.assemble_code"):
        code = assemble_code(G, best)
    with tr.span("codes.params"):
        params = list(code.params())
    n = G.n_vertices
    counts = {"construct.graph_pairs": n * (n - 1) // 2,
              "construct.graph_edges": sum(a.bit_count() for a in G.adj) // 2,
              "construct.clique_size": best.size}
    result = {"size": best.size, "certified": best.certified, "params": params}
    return 0, result, counts, None


def run_verify(job, tr):
    with tr.span("codes.verify_code_file"):
        report = verify_code_file(job["file"])
    return (5 if report["matches_claim"] is False else 0), report, {}, None


def run_dualize(job, tr):
    with tr.span("codes.load_code_file"):
        cf = load_code_file(job["file"])
    with tr.span("codes.code_from_generators"):
        code = code_from_generators(cf.field, cf.m, cf.generators)
    with tr.span("codes.dualize"):
        dual = dualize(code)
    words = sorted(dual.words, key=lambda w: w.bits)
    with tr.span("codes.dump_code_file"):
        dump_code_file(job["out"], cf.field, cf.field.group_order, words)
    with tr.span("codes.is_cyclic"):
        is_cyclic(dual)
    return 0, {"size": dual.size, "dims": list(dual.dims)}, {}, None


def run_selfdual(job, tr):
    field = _field(job, tr)
    with tr.span("construct.self_dual_search"):
        hits = self_dual_search(field)
    primary = [h for h in hits if h.constant_dimension and h.single_generator]
    result = {"constant_dimension_single_generator": [
        {"m": h.m, "params": list(h.params()),
         "words": [sorted(w.exponents) for w in h.code.words]} for h in primary]}
    counts = {"construct.selfdual_subspaces":
              sum(gaussian(job["n"], k) for k in range(job["n"] + 1)),
              "construct.selfdual_hits": len(hits)}
    return 0, result, counts, None


RUNNERS = {"classify": run_classify, "clique": run_clique, "verify": run_verify,
           "dualize": run_dualize, "selfdual": run_selfdual}


def main(argv) -> int:
    job, run_id = json.loads(argv[1]), argv[2]
    tr = Tracer(run_id)
    with tr.patch(NESTED) as untraced:
        with tr.span("job"):
            exit_code, result, counts, probe = RUNNERS[job["cmd"]](job, tr)
    t0 = time.perf_counter()
    if probe is not None:
        probe()
    cost = span_cost()
    print(json.dumps({"spans": tr.spans, "self_s": tr.self_s, "counts": counts,
                      "result": result, "exit": exit_code,
                      "job_s": tr.spans[0]["total"],
                      "after_job_s": time.perf_counter() - t0,
                      "traced_calls": tr.calls, "span_cost_s": cost,
                      "untraced": untraced}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
